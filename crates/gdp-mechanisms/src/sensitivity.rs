use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::MechanismError;
use crate::Result;

/// A validated **L1 (Manhattan) sensitivity** bound `Δ₁`.
///
/// For a query `q` and an adjacency relation on datasets, the L1
/// sensitivity is `max ‖q(D₁) − q(D₂)‖₁` over adjacent `D₁, D₂`. It
/// calibrates the Laplace and geometric mechanisms. Under the paper's
/// *group-level* adjacency (Definition 3), adjacent datasets differ by an
/// entire group, so Δ₁ is taken over whole-group insertions/removals — the
/// `gdp-core` crate computes those bounds per hierarchy level and feeds
/// them in here.
///
/// ```
/// use gdp_mechanisms::L1Sensitivity;
/// # fn main() -> Result<(), gdp_mechanisms::MechanismError> {
/// let s = L1Sensitivity::new(42.0)?;
/// assert_eq!(s.get(), 42.0);
/// assert!(L1Sensitivity::new(0.0).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(try_from = "f64", into = "f64")]
pub struct L1Sensitivity(f64);

impl L1Sensitivity {
    /// Creates a new sensitivity bound, rejecting non-finite or
    /// non-positive values.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::InvalidSensitivity`] for NaN, infinite,
    /// zero or negative input.
    pub fn new(value: f64) -> Result<Self> {
        if value.is_finite() && value > 0.0 {
            Ok(Self(value))
        } else {
            Err(MechanismError::InvalidSensitivity(value))
        }
    }

    /// Creates the unit sensitivity (`Δ₁ = 1`), the common case for
    /// counting queries under individual adjacency.
    pub fn unit() -> Self {
        Self(1.0)
    }

    /// Returns the raw bound.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl fmt::Display for L1Sensitivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Δ₁={}", self.0)
    }
}

impl TryFrom<f64> for L1Sensitivity {
    type Error = MechanismError;

    fn try_from(value: f64) -> Result<Self> {
        Self::new(value)
    }
}

impl From<L1Sensitivity> for f64 {
    fn from(value: L1Sensitivity) -> f64 {
        value.0
    }
}

/// A validated **L2 (Euclidean) sensitivity** bound `Δ₂`.
///
/// Calibrates the Gaussian mechanism. For scalar queries `Δ₂ = Δ₁`; for
/// vector-valued queries `Δ₂ ≤ Δ₁` and using the L2 bound directly is what
/// makes Gaussian noise attractive for the per-group count vectors
/// released at each hierarchy level.
///
/// ```
/// use gdp_mechanisms::L2Sensitivity;
/// # fn main() -> Result<(), gdp_mechanisms::MechanismError> {
/// let l2 = L2Sensitivity::new(9.0)?;
/// assert_eq!(l2.get(), 9.0);
/// assert!(L2Sensitivity::new(f64::NAN).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(try_from = "f64", into = "f64")]
pub struct L2Sensitivity(f64);

impl L2Sensitivity {
    /// Creates a new sensitivity bound, rejecting non-finite or
    /// non-positive values.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::InvalidSensitivity`] for NaN, infinite,
    /// zero or negative input.
    pub fn new(value: f64) -> Result<Self> {
        if value.is_finite() && value > 0.0 {
            Ok(Self(value))
        } else {
            Err(MechanismError::InvalidSensitivity(value))
        }
    }

    /// Creates the unit sensitivity (`Δ₂ = 1`).
    pub fn unit() -> Self {
        Self(1.0)
    }

    /// Returns the raw bound.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl fmt::Display for L2Sensitivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Δ₂={}", self.0)
    }
}

impl TryFrom<f64> for L2Sensitivity {
    type Error = MechanismError;

    fn try_from(value: f64) -> Result<Self> {
        Self::new(value)
    }
}

impl From<L2Sensitivity> for f64 {
    fn from(value: L2Sensitivity) -> f64 {
        value.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_rejects_bad_values() {
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            assert!(L1Sensitivity::new(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn l2_rejects_bad_values() {
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            assert!(L2Sensitivity::new(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn unit_sensitivities() {
        assert_eq!(L1Sensitivity::unit().get(), 1.0);
        assert_eq!(L2Sensitivity::unit().get(), 1.0);
    }

    #[test]
    fn ordering_works() {
        let a = L1Sensitivity::new(1.0).unwrap();
        let b = L1Sensitivity::new(2.0).unwrap();
        assert!(a < b);
    }
}
