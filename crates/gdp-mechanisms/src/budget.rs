use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::MechanismError;
use crate::Result;

/// A validated differential-privacy parameter `ε`.
///
/// `ε` quantifies the worst-case multiplicative change `e^ε` a single
/// adjacent-dataset step may induce on any output probability. Values are
/// required to be finite and strictly positive; validation happens once at
/// construction so downstream code never re-checks.
///
/// ```
/// use gdp_mechanisms::Epsilon;
/// # fn main() -> Result<(), gdp_mechanisms::MechanismError> {
/// let eps = Epsilon::new(0.5)?;
/// assert_eq!(eps.get(), 0.5);
/// assert!(Epsilon::new(0.0).is_err());
/// assert!(Epsilon::new(f64::NAN).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(try_from = "f64", into = "f64")]
pub struct Epsilon(f64);

impl Epsilon {
    /// Creates a new `ε`, rejecting non-finite or non-positive values.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::InvalidEpsilon`] if `value` is NaN,
    /// infinite, zero or negative.
    pub fn new(value: f64) -> Result<Self> {
        if value.is_finite() && value > 0.0 {
            Ok(Self(value))
        } else {
            Err(MechanismError::InvalidEpsilon(value))
        }
    }

    /// Returns the raw `ε` value.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Epsilon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ε={}", self.0)
    }
}

impl TryFrom<f64> for Epsilon {
    type Error = MechanismError;

    fn try_from(value: f64) -> Result<Self> {
        Self::new(value)
    }
}

impl From<Epsilon> for f64 {
    fn from(value: Epsilon) -> f64 {
        value.0
    }
}

/// A validated differential-privacy failure probability `δ`.
///
/// `δ` bounds the probability mass on which the `e^ε` guarantee may fail.
/// Pure `ε`-DP corresponds to `δ = 0`. Values must lie in `[0, 1)`.
///
/// ```
/// use gdp_mechanisms::Delta;
/// # fn main() -> Result<(), gdp_mechanisms::MechanismError> {
/// let delta = Delta::new(1e-6)?;
/// assert_eq!(delta.get(), 1e-6);
/// assert!(Delta::new(1.0).is_err());
/// assert!(Delta::ZERO.is_pure());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(try_from = "f64", into = "f64")]
pub struct Delta(f64);

impl Delta {
    /// The `δ = 0` of pure differential privacy.
    pub const ZERO: Delta = Delta(0.0);

    /// Creates a new `δ`, rejecting values outside `[0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::InvalidDelta`] if `value` is NaN or lies
    /// outside `[0, 1)`.
    pub fn new(value: f64) -> Result<Self> {
        if value.is_finite() && (0.0..1.0).contains(&value) {
            Ok(Self(value))
        } else {
            Err(MechanismError::InvalidDelta(value))
        }
    }

    /// Returns the raw `δ` value.
    pub fn get(self) -> f64 {
        self.0
    }

    /// Returns `true` when `δ = 0`, i.e. the guarantee is pure `ε`-DP.
    pub fn is_pure(self) -> bool {
        self.0 == 0.0
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "δ={}", self.0)
    }
}

impl TryFrom<f64> for Delta {
    type Error = MechanismError;

    fn try_from(value: f64) -> Result<Self> {
        Self::new(value)
    }
}

impl From<Delta> for f64 {
    fn from(value: Delta) -> f64 {
        value.0
    }
}

/// A complete `(ε, δ)` privacy budget.
///
/// The budget is the currency of the disclosure pipeline: Phase 1
/// (specialization) and Phase 2 (noise injection) each draw on an explicit
/// `PrivacyBudget`, and the [`crate::PrivacyAccountant`] enforces that the
/// total spend never exceeds what the data owner authorized.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrivacyBudget {
    /// The multiplicative-guarantee parameter.
    pub epsilon: Epsilon,
    /// The failure-probability parameter.
    pub delta: Delta,
}

impl PrivacyBudget {
    /// Creates a budget from raw `ε` and `δ` values.
    ///
    /// # Errors
    ///
    /// Propagates [`MechanismError::InvalidEpsilon`] /
    /// [`MechanismError::InvalidDelta`] from the component constructors.
    pub fn new(epsilon: f64, delta: f64) -> Result<Self> {
        Ok(Self {
            epsilon: Epsilon::new(epsilon)?,
            delta: Delta::new(delta)?,
        })
    }
}

impl fmt::Display for PrivacyBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.epsilon, self.delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_rejects_bad_values() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(Epsilon::new(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn epsilon_accepts_positive_values() {
        for good in [1e-12, 0.1, 1.0, 10.0, 1e6] {
            assert_eq!(Epsilon::new(good).unwrap().get(), good);
        }
    }

    #[test]
    fn delta_rejects_bad_values() {
        for bad in [-1e-9, 1.0, 2.0, f64::NAN, f64::INFINITY] {
            assert!(Delta::new(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn delta_zero_is_pure() {
        assert!(Delta::ZERO.is_pure());
        assert!(!Delta::new(1e-9).unwrap().is_pure());
    }

    #[test]
    fn display_formats() {
        let b = PrivacyBudget::new(0.5, 1e-6).unwrap();
        let s = b.to_string();
        assert!(s.contains("0.5"));
        assert!(s.contains("0.000001") || s.contains("1e-6"));
    }
}
