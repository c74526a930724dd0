//! Differential-privacy mechanism substrate for the `group-dp` workspace.
//!
//! This crate implements, from scratch, every randomized primitive the
//! paper *"Group Differential Privacy-Preserving Disclosure of Multi-level
//! Association Graphs"* (ICDCS 2017) relies on:
//!
//! * the **Laplace mechanism** ([`LaplaceMechanism`]) for `ε`-DP numeric
//!   release,
//! * the **Gaussian mechanism** ([`GaussianMechanism`]) for `(ε, δ)`-DP
//!   numeric release, with both the classic `σ = Δ₂√(2 ln(1.25/δ))/ε`
//!   calibration and the tighter *analytic* calibration of Balle & Wang,
//! * the **exponential mechanism** ([`ExponentialMechanism`]) used by the
//!   paper's Phase-1 specialization to pick partition cut points,
//! * the **geometric mechanism** ([`GeometricMechanism`]) — the discrete
//!   analogue of Laplace for integer counts,
//! * a **privacy accountant** ([`PrivacyAccountant`]): the one ledger,
//!   which enforces an authorized total under sequential composition.
//!
//! All mechanisms are parameterized by validated newtypes ([`Epsilon`],
//! [`Delta`], [`L1Sensitivity`], [`L2Sensitivity`]) so that an invalid
//! privacy parameter is unrepresentable once construction succeeds.
//!
//! Randomness always flows in through an explicit `&mut impl Rng`
//! argument, which keeps every caller — tests, benches, the experiment
//! harness — deterministic under a fixed seed.
//!
//! The public surface is what the `gdp` pipeline calls, the
//! `sample_into` fill every noise mechanism offers beside
//! `randomize_slice` (`docs/batched-noise.md`), and one named test
//! oracle: [`ExponentialMechanism::selection_probabilities`], the exact
//! selection pmf the sampling path is checked against.
//!
//! # Example
//!
//! ```
//! use gdp_mechanisms::{Epsilon, Delta, L2Sensitivity, GaussianMechanism};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), gdp_mechanisms::MechanismError> {
//! let mech = GaussianMechanism::classic(
//!     Epsilon::new(0.5)?,
//!     Delta::new(1e-6)?,
//!     L2Sensitivity::new(1.0)?,
//! )?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let noisy = mech.randomize(42.0, &mut rng);
//! assert!(noisy.is_finite());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod accountant;
mod budget;
mod error;
mod exponential;
mod gaussian;
mod geometric;
mod laplace;
mod sampling;
mod sensitivity;
mod special;

pub use accountant::{PrivacyAccountant, BUDGET_RELATIVE_SLACK};
pub use budget::{Delta, Epsilon, PrivacyBudget};
pub use error::MechanismError;
pub use exponential::ExponentialMechanism;
pub use gaussian::GaussianMechanism;
pub use geometric::GeometricMechanism;
pub use laplace::LaplaceMechanism;
pub use sensitivity::{L1Sensitivity, L2Sensitivity};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, MechanismError>;
