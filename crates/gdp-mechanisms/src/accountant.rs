use serde::{Deserialize, Serialize};

use crate::budget::{Delta, Epsilon, PrivacyBudget};
use crate::error::MechanismError;
use crate::Result;

/// Tracks cumulative `(ε, δ)` spend against an authorized total, under
/// **sequential composition** (spends add up).
///
/// The disclosure pipeline threads one accountant through both phases so
/// the end-to-end guarantee printed in a release's metadata is exactly
/// what was enforced, not merely what was intended. It keeps only the
/// running sums; the per-epoch record that persists is the
/// `ManifestLedger` each sealed artifact carries.
///
/// ```
/// use gdp_mechanisms::{PrivacyAccountant, PrivacyBudget};
///
/// # fn main() -> Result<(), gdp_mechanisms::MechanismError> {
/// let mut acct = PrivacyAccountant::new(PrivacyBudget::new(1.0, 1e-6)?);
/// acct.charge(PrivacyBudget::new(0.4, 0.0)?)?;
/// acct.charge(PrivacyBudget::new(0.6, 1e-6)?)?;
/// // The pot is now empty; any further charge fails.
/// assert!(acct.charge(PrivacyBudget::new(0.01, 0.0)?).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrivacyAccountant {
    total: PrivacyBudget,
    spent_epsilon: f64,
    spent_delta: f64,
}

impl PrivacyAccountant {
    /// Creates an accountant authorized to spend up to `total`.
    pub fn new(total: PrivacyBudget) -> Self {
        Self {
            total,
            spent_epsilon: 0.0,
            spent_delta: 0.0,
        }
    }

    /// The authorized total budget.
    pub fn total(&self) -> PrivacyBudget {
        self.total
    }

    /// Cumulative `ε` spent so far.
    pub fn spent_epsilon(&self) -> f64 {
        self.spent_epsilon
    }

    /// Cumulative `δ` spent so far.
    pub fn spent_delta(&self) -> f64 {
        self.spent_delta
    }

    /// Budget still available under sequential composition.
    ///
    /// Comparisons are **tolerance-aware**: a long chain of small
    /// charges accumulates ulp-level rounding in the running sums, so a
    /// naive `total − spent` can report a vanishing positive residue
    /// after the pot was drained exactly, or a vanishing negative one a
    /// step early. Residues within [`BUDGET_RELATIVE_SLACK`] of the
    /// total are treated as zero in both `ε` (→ `None`, the pot is
    /// empty) and `δ` (→ clamped to pure).
    ///
    /// Returns `None` once the remaining `ε` is exhausted within
    /// tolerance (a zero-ε budget cannot be represented, by design).
    pub fn remaining(&self) -> Option<PrivacyBudget> {
        let eps = self.total.epsilon.get() - self.spent_epsilon;
        if eps <= self.total.epsilon.get() * BUDGET_RELATIVE_SLACK {
            return None;
        }
        let mut delta = (self.total.delta.get() - self.spent_delta).max(0.0);
        if delta <= self.total.delta.get() * BUDGET_RELATIVE_SLACK {
            delta = 0.0;
        }
        match (Epsilon::new(eps), Delta::new(delta)) {
            (Ok(e), Ok(d)) => Some(PrivacyBudget {
                epsilon: e,
                delta: d,
            }),
            _ => None,
        }
    }

    /// Whether the pot is drained within tolerance — equivalent to
    /// `remaining().is_none()`, and the state in which **every** further
    /// charge is refused regardless of size.
    pub fn is_exhausted(&self) -> bool {
        self.remaining().is_none()
    }

    /// Records a charge, failing (without recording) if it would exceed
    /// the authorized total.
    ///
    /// The comparison carries the same [`BUDGET_RELATIVE_SLACK`]
    /// tolerance as [`Self::remaining`], symmetric in both directions:
    /// a charge that exactly fits still fits when the running sum
    /// drifted a few ulps *high* (budgets assembled by repeated
    /// splitting), and once the pot is drained within tolerance no
    /// charge is admitted even if drift left a sub-slack positive
    /// residue — `charge` and `remaining` can never disagree about
    /// whether the pot is empty.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::BudgetExhausted`] if the cumulative spend
    /// would exceed the total in either `ε` or `δ`.
    pub fn charge(&mut self, budget: PrivacyBudget) -> Result<()> {
        let (new_eps, new_delta) = self.admit(budget)?;
        self.spent_epsilon = new_eps;
        self.spent_delta = new_delta;
        Ok(())
    }

    /// Whether a charge of `budget` would be admitted **right now**,
    /// without recording anything — the exact admission test
    /// [`Self::charge`] applies, shared so a caller can refuse an
    /// operation *before* mutating other state and still be guaranteed
    /// the subsequent `charge` succeeds (absent interleaved charges).
    ///
    /// # Errors
    ///
    /// The same [`MechanismError::BudgetExhausted`] the matching
    /// `charge` would return.
    pub fn check(&self, budget: PrivacyBudget) -> Result<()> {
        self.admit(budget).map(|_| ())
    }

    /// The shared admission test: the post-charge `(ε, δ)` sums, or the
    /// typed refusal if they would exceed the authorized total under
    /// [`BUDGET_RELATIVE_SLACK`] tolerance.
    fn admit(&self, budget: PrivacyBudget) -> Result<(f64, f64)> {
        let new_eps = self.spent_epsilon + budget.epsilon.get();
        let new_delta = self.spent_delta + budget.delta.get();
        let eps_cap = self.total.epsilon.get() * (1.0 + BUDGET_RELATIVE_SLACK);
        let delta_cap = self.total.delta.get() * (1.0 + BUDGET_RELATIVE_SLACK) + f64::MIN_POSITIVE;
        if self.is_exhausted() || new_eps > eps_cap || new_delta > delta_cap {
            return Err(MechanismError::BudgetExhausted {
                requested_epsilon: new_eps,
                available_epsilon: self.total.epsilon.get(),
                requested_delta: new_delta,
                available_delta: self.total.delta.get(),
            });
        }
        Ok((new_eps, new_delta))
    }
}

/// The relative tolerance [`PrivacyAccountant`] applies when comparing
/// cumulative spend against the authorized total, in **both**
/// directions: it absorbs the ulp-level drift of long charge chains
/// (so an exactly-fitting final epoch is admitted even if the running
/// sum rounded up) and collapses sub-slack positive residues to "empty"
/// (so a drained pot refuses everything even if the sum rounded down).
/// At 1e-9 it is ~10⁷ × the rounding error of a million-charge chain
/// yet far below any meaningful privacy budget granularity.
pub const BUDGET_RELATIVE_SLACK: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    fn b(eps: f64, delta: f64) -> PrivacyBudget {
        PrivacyBudget::new(eps, delta).unwrap()
    }

    /// `parts` equal shares of `total`, as a caller splitting one budget
    /// evenly over `parts` charges would compute them.
    fn even_shares(total: PrivacyBudget, parts: usize) -> Vec<PrivacyBudget> {
        let n = parts as f64;
        vec![b(total.epsilon.get() / n, total.delta.get() / n); parts]
    }

    #[test]
    fn accountant_accumulates_and_stops_at_cap() {
        let mut acct = PrivacyAccountant::new(b(1.0, 1e-6));
        acct.charge(b(0.5, 5e-7)).unwrap();
        acct.charge(b(0.5, 5e-7)).unwrap();
        assert!((acct.spent_epsilon() - 1.0).abs() < 1e-12);
        assert!((acct.spent_delta() - 1e-6).abs() < 1e-18);
        let err = acct.charge(b(0.1, 0.0)).unwrap_err();
        assert!(matches!(err, MechanismError::BudgetExhausted { .. }));
        // Failed charge must not be recorded.
        assert!((acct.spent_epsilon() - 1.0).abs() < 1e-12);
        assert!((acct.spent_delta() - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn accountant_tolerates_float_rounding_from_splits() {
        let total = b(0.9, 1e-6);
        let mut acct = PrivacyAccountant::new(total);
        for share in even_shares(total, 9) {
            acct.charge(share).unwrap();
        }
        // Exactly consumed despite 9-way division rounding.
        assert!(acct.remaining().is_none() || acct.remaining().unwrap().epsilon.get() < 1e-9);
    }

    #[test]
    fn thousand_way_drain_ends_exactly_empty() {
        // Regression: `remaining()` used naive `total − spent`, so a
        // 1000-charge chain whose rounding drifted the running sum a few
        // ulps *low* reported a vanishing positive residue after the pot
        // was drained exactly — and a sub-slack charge could still be
        // admitted. The drain must (a) admit every share including the
        // exactly-fitting last one, (b) end with `remaining() == None`,
        // and (c) refuse any further charge no matter how small.
        let total = b(1.0, 1e-6);
        let mut acct = PrivacyAccountant::new(total);
        for (i, share) in even_shares(total, 1000).into_iter().enumerate() {
            acct.charge(share)
                .unwrap_or_else(|e| panic!("charge {i} refused: {e}"));
        }
        assert!((acct.spent_epsilon() - 1.0).abs() < 1e-9);
        assert!(acct.remaining().is_none(), "drained pot must read empty");
        assert!(acct.is_exhausted());
        // Even a charge far below the slack tolerance is refused once
        // the pot is empty — charge and remaining cannot disagree.
        let spent = acct.spent_epsilon();
        let err = acct.charge(b(1e-15, 0.0)).unwrap_err();
        assert!(matches!(err, MechanismError::BudgetExhausted { .. }));
        assert_eq!(acct.spent_epsilon(), spent);
    }

    #[test]
    fn drift_high_still_admits_exactly_fitting_final_charge() {
        // The symmetric direction: sums that drift a few ulps *high*
        // must not refuse a final charge that logically fits.
        let total = b(0.7, 0.0);
        let mut acct = PrivacyAccountant::new(total);
        for i in 0..7 {
            // 0.1 is not exactly representable; 7 additions drift high.
            acct.charge(b(0.1, 0.0))
                .unwrap_or_else(|e| panic!("charge {i} refused: {e}"));
        }
        assert!(acct.remaining().is_none());
    }

    #[test]
    fn remaining_reflects_spend() {
        let mut acct = PrivacyAccountant::new(b(1.0, 1e-6));
        acct.charge(b(0.25, 0.0)).unwrap();
        let rem = acct.remaining().unwrap();
        assert!((rem.epsilon.get() - 0.75).abs() < 1e-12);
        assert!((rem.delta.get() - 1e-6).abs() < 1e-18);
    }
}
