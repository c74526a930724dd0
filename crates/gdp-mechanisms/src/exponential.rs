use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::budget::Epsilon;
use crate::error::MechanismError;
use crate::sampling;
use crate::sensitivity::L1Sensitivity;
use crate::Result;

/// The **exponential mechanism** (McSherry & Talwar, FOCS 2007): selects a
/// candidate `c` from a finite set with probability proportional to
/// `exp(ε·u(c) / (2·Δu))`, where `u` is a utility score and `Δu` its
/// sensitivity under the adjacency relation being protected.
///
/// This is the paper's Phase-1 primitive: at every specialization round a
/// cut position is chosen among candidates scored by how evenly they split
/// the group's association mass.
///
/// Selection uses the Gumbel-max trick, which is numerically stable for
/// arbitrarily large score ranges (no explicit softmax, hence no
/// overflow), and provably samples the same distribution.
///
/// ```
/// use gdp_mechanisms::{Epsilon, L1Sensitivity, ExponentialMechanism};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), gdp_mechanisms::MechanismError> {
/// let mech = ExponentialMechanism::new(Epsilon::new(1.0)?, L1Sensitivity::new(1.0)?)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let chosen = mech.select(&[0.0, 10.0, 0.0], &mut rng)?;
/// // The middle candidate has overwhelmingly higher utility.
/// assert_eq!(chosen, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExponentialMechanism {
    epsilon: Epsilon,
    utility_sensitivity: L1Sensitivity,
}

impl ExponentialMechanism {
    /// Creates an exponential mechanism calibrated to `(ε, Δu)`.
    ///
    /// # Errors
    ///
    /// Never fails for valid inputs; the `Result` keeps constructor
    /// signatures uniform across mechanisms.
    pub fn new(epsilon: Epsilon, utility_sensitivity: L1Sensitivity) -> Result<Self> {
        Ok(Self {
            epsilon,
            utility_sensitivity,
        })
    }

    /// Selects the index of one candidate, given per-candidate utility
    /// scores (higher is better).
    ///
    /// # Errors
    ///
    /// * [`MechanismError::EmptyCandidates`] when `utilities` is empty.
    /// * [`MechanismError::NonFiniteUtility`] when any score is NaN/∞.
    pub fn select<R: Rng + ?Sized>(&self, utilities: &[f64], rng: &mut R) -> Result<usize> {
        if utilities.is_empty() {
            return Err(MechanismError::EmptyCandidates);
        }
        if let Some(bad) = utilities.iter().find(|u| !u.is_finite()) {
            return Err(MechanismError::NonFiniteUtility(*bad));
        }
        let scale = self.epsilon.get() / (2.0 * self.utility_sensitivity.get());
        let mut best_idx = 0usize;
        let mut best_key = f64::NEG_INFINITY;
        for (i, &u) in utilities.iter().enumerate() {
            let key = scale * u + sampling::gumbel(rng);
            if key > best_key {
                best_key = key;
                best_idx = i;
            }
        }
        Ok(best_idx)
    }

    /// The exact selection distribution over candidates (stable softmax).
    ///
    /// The test oracle for [`Self::select`]: the sampling path never
    /// materializes these weights, and the property suites check its
    /// draws and its `e^ε` ratio bound against this pmf.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::select`].
    pub fn selection_probabilities(&self, utilities: &[f64]) -> Result<Vec<f64>> {
        if utilities.is_empty() {
            return Err(MechanismError::EmptyCandidates);
        }
        if let Some(bad) = utilities.iter().find(|u| !u.is_finite()) {
            return Err(MechanismError::NonFiniteUtility(*bad));
        }
        let scale = self.epsilon.get() / (2.0 * self.utility_sensitivity.get());
        let max = utilities.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = utilities
            .iter()
            .map(|u| (scale * (u - max)).exp())
            .collect();
        let total: f64 = weights.iter().sum();
        Ok(weights.into_iter().map(|w| w / total).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mech(eps: f64, du: f64) -> ExponentialMechanism {
        ExponentialMechanism::new(Epsilon::new(eps).unwrap(), L1Sensitivity::new(du).unwrap())
            .unwrap()
    }

    #[test]
    fn empty_candidates_rejected() {
        let m = mech(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            m.select(&[], &mut rng),
            Err(MechanismError::EmptyCandidates)
        ));
        assert!(m.selection_probabilities(&[]).is_err());
    }

    #[test]
    fn non_finite_utility_rejected() {
        let m = mech(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(m.select(&[1.0, f64::NAN], &mut rng).is_err());
        assert!(m.select(&[1.0, f64::INFINITY], &mut rng).is_err());
    }

    #[test]
    fn probabilities_sum_to_one_and_order_matches_utility() {
        let m = mech(1.0, 1.0);
        let p = m.selection_probabilities(&[0.0, 1.0, 2.0, 3.0]).unwrap();
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        for w in p.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn probabilities_follow_softmax_closed_form() {
        let m = mech(2.0, 1.0); // scale = 1.0
        let utilities = [0.0, 1.0];
        let p = m.selection_probabilities(&utilities).unwrap();
        let want1 = 1.0f64.exp() / (1.0 + 1.0f64.exp());
        assert!((p[1] - want1).abs() < 1e-12);
    }

    #[test]
    fn empirical_frequencies_match_probabilities() {
        let m = mech(1.5, 1.0);
        let utilities = [0.0, 1.0, 2.5, 0.5];
        let p = m.selection_probabilities(&utilities).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let n = 200_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[m.select(&utilities, &mut rng).unwrap()] += 1;
        }
        for i in 0..4 {
            let freq = counts[i] as f64 / n as f64;
            assert!(
                (freq - p[i]).abs() < 0.01,
                "candidate {i}: freq {freq} vs p {}",
                p[i]
            );
        }
    }

    #[test]
    fn huge_utility_gaps_do_not_overflow() {
        let m = mech(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        // These would overflow a naive softmax (exp(1e9)).
        let utilities = [0.0, 2.0e9, 1.0e9];
        let idx = m.select(&utilities, &mut rng).unwrap();
        assert_eq!(idx, 1);
        let p = m.selection_probabilities(&utilities).unwrap();
        assert!((p[1] - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn uniform_utilities_give_uniform_choice() {
        let m = mech(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(6);
        let utilities = [7.0; 5];
        let n = 100_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            counts[m.select(&utilities, &mut rng).unwrap()] += 1;
        }
        for c in counts {
            let freq = c as f64 / n as f64;
            assert!((freq - 0.2).abs() < 0.01, "freq {freq}");
        }
    }

    #[test]
    fn higher_epsilon_concentrates_on_best() {
        let utilities = [0.0, 1.0];
        let weak = mech(0.1, 1.0).selection_probabilities(&utilities).unwrap();
        let strong = mech(5.0, 1.0).selection_probabilities(&utilities).unwrap();
        assert!(strong[1] > weak[1]);
        assert!(strong[1] > 0.9);
        assert!(weak[1] < 0.52);
    }

    #[test]
    fn single_candidate_always_selected() {
        let m = mech(0.5, 2.0);
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(m.select(&[3.25], &mut rng).unwrap(), 0);
        assert_eq!(m.selection_probabilities(&[3.25]).unwrap(), vec![1.0]);
    }

    #[test]
    fn empirical_dp_bound_on_selection() {
        // Two adjacent utility vectors differing by Δu in one coordinate:
        // selection probabilities must stay within exp(ε) of each other.
        let e = 0.8;
        let m = mech(e, 1.0);
        let u1 = [1.0, 2.0, 3.0];
        let u2 = [1.0, 3.0, 3.0]; // candidate 1's utility moved by Δu = 1
        let p1 = m.selection_probabilities(&u1).unwrap();
        let p2 = m.selection_probabilities(&u2).unwrap();
        for i in 0..3 {
            assert!(p1[i] <= e.exp() * p2[i] + 1e-12, "idx {i}");
            assert!(p2[i] <= e.exp() * p1[i] + 1e-12, "idx {i} rev");
        }
    }
}
