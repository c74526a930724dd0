use std::error::Error;
use std::fmt;

/// Errors produced when constructing or running a privacy mechanism.
///
/// Every variant captures the offending value so callers can report
/// precisely which parameter was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum MechanismError {
    /// The privacy parameter `ε` was not a finite positive number.
    InvalidEpsilon(f64),
    /// The failure probability `δ` was outside `[0, 1)`.
    InvalidDelta(f64),
    /// A sensitivity bound was not a finite positive number.
    InvalidSensitivity(f64),
    /// The classic Gaussian calibration requires `ε < 1`.
    EpsilonTooLargeForClassicGaussian(f64),
    /// The classic Gaussian calibration requires `δ > 0`.
    DeltaZeroForGaussian,
    /// No normal double below 1 realizes the decay `α = exp(−ε/Δ₁)`:
    /// it is exactly 1 in f64, or every double below 1 realizes an
    /// `−ln(α̂)·Δ₁` above `ε` beyond the ledger's slack (no noise
    /// distribution left: every draw is ±1), or it is a subnormal or 0
    /// (no noise at all). So no geometric mechanism can be calibrated
    /// to this pair.
    GeometricDecayOutOfRange {
        /// The requested `ε`.
        epsilon: f64,
        /// The L1 sensitivity `Δ₁`.
        sensitivity: f64,
    },
    /// A candidate set handed to the exponential mechanism was empty.
    EmptyCandidates,
    /// A utility score handed to the exponential mechanism was not finite.
    NonFiniteUtility(f64),
    /// A privacy accountant refused a charge that would exceed its budget.
    BudgetExhausted {
        /// ε that would have been spent in total had the charge succeeded.
        requested_epsilon: f64,
        /// total ε the accountant may spend.
        available_epsilon: f64,
        /// δ that would have been spent in total had the charge succeeded.
        requested_delta: f64,
        /// total δ the accountant may spend.
        available_delta: f64,
    },
}

impl fmt::Display for MechanismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidEpsilon(v) => {
                write!(f, "epsilon must be a finite positive number, got {v}")
            }
            Self::InvalidDelta(v) => write!(f, "delta must lie in [0, 1), got {v}"),
            Self::InvalidSensitivity(v) => {
                write!(f, "sensitivity must be a finite positive number, got {v}")
            }
            Self::EpsilonTooLargeForClassicGaussian(v) => write!(
                f,
                "classic gaussian calibration requires epsilon < 1, got {v} \
                 (use the analytic calibration for larger epsilon)"
            ),
            Self::DeltaZeroForGaussian => {
                write!(f, "gaussian mechanism requires delta > 0")
            }
            Self::GeometricDecayOutOfRange {
                epsilon,
                sensitivity,
            } => write!(
                f,
                "geometric mechanism cannot be calibrated to epsilon={epsilon} with \
                 L1 sensitivity {sensitivity}: the decay exp(-epsilon/sensitivity) \
                 rounds to {} in f64, or too near it to realize that epsilon",
                if epsilon / sensitivity > 1.0 { 0 } else { 1 }
            ),
            Self::EmptyCandidates => {
                write!(f, "exponential mechanism requires at least one candidate")
            }
            Self::NonFiniteUtility(v) => {
                write!(f, "utility scores must be finite, got {v}")
            }
            Self::BudgetExhausted {
                requested_epsilon,
                available_epsilon,
                requested_delta,
                available_delta,
            } => write!(
                f,
                "privacy budget exhausted: charge would spend ε={requested_epsilon} of \
                 {available_epsilon}, δ={requested_delta} of {available_delta}"
            ),
        }
    }
}

impl Error for MechanismError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_offending_value() {
        let err = MechanismError::InvalidEpsilon(-1.0);
        assert!(err.to_string().contains("-1"));
        let err = MechanismError::InvalidDelta(1.5);
        assert!(err.to_string().contains("1.5"));
        let err = MechanismError::InvalidSensitivity(f64::NAN);
        assert!(err.to_string().contains("NaN"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MechanismError>();
    }

    #[test]
    fn budget_exhausted_reports_all_four_numbers() {
        let err = MechanismError::BudgetExhausted {
            requested_epsilon: 2.0,
            available_epsilon: 1.0,
            requested_delta: 0.25,
            available_delta: 0.125,
        };
        let s = err.to_string();
        for needle in ["2", "1", "0.25", "0.125"] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }
}
