use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::accountant::BUDGET_RELATIVE_SLACK;
use crate::budget::Epsilon;
use crate::error::MechanismError;
use crate::sampling;
use crate::sensitivity::L1Sensitivity;
use crate::Result;

/// The **geometric mechanism** — the discrete analogue of the Laplace
/// mechanism for integer-valued queries.
///
/// Adds two-sided geometric noise with decay `α = exp(−ε/Δ₁)`:
/// `P[X = k] = ((1−α)/(1+α))·α^{|k|}`, guaranteeing `ε`-DP while keeping
/// the released count an integer. Useful when downstream consumers require
/// consistent integer counts (e.g. the per-group association counts of a
/// level release).
///
/// ```
/// use gdp_mechanisms::{Epsilon, L1Sensitivity, GeometricMechanism};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), gdp_mechanisms::MechanismError> {
/// let mech = GeometricMechanism::new(Epsilon::new(0.5)?, L1Sensitivity::new(1.0)?)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut counts: Vec<i64> = vec![100, 7];
/// // Outputs are still integer counts.
/// mech.randomize_slice(&mut counts, &mut rng);
/// // An ε/Δ₁ so small that α rounds to 1 has no noise left to add:
/// // refused rather than released as ±1.
/// assert!(GeometricMechanism::new(Epsilon::new(1e-13)?, L1Sensitivity::new(2881.0)?).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeometricMechanism {
    alpha: f64,
}

impl GeometricMechanism {
    /// Creates a geometric mechanism calibrated to `(ε, Δ₁)`.
    ///
    /// The decay is `α̂ = exp(−ε/Δ₁)` rounded to a double, stepped up
    /// toward 1 one ulp at a time while its realized
    /// `ε̂ = −ln(α̂)·Δ₁` exceeds `ε` by more than
    /// [`BUDGET_RELATIVE_SLACK`] (relative), so the sampler never gives
    /// more than the `ε` the ledger charges. Rounding moves `α` by up
    /// to half an ulp, which near 1 is a large share of `1 − α` (at
    /// `ε/Δ₁ = 6e-17` the rounded decay realizes 1.85·ε); only
    /// `ε/Δ₁` below about 5.6e-8 can need a step, and it needs one or
    /// two. Everywhere else `α̂` is the rounded `exp(−ε/Δ₁)` itself.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::GeometricDecayOutOfRange`] when no
    /// normal double below 1 realizes `ε`:
    /// * `α̂` reaches exactly 1 (`ε/Δ₁` below about 1.1e-16), where
    ///   every draw would be ±1: the strongest privacy request would
    ///   publish near-exact counts.
    /// * `α̂` is subnormal or 0 (`ε/Δ₁` above about 708), where the
    ///   zero mass rounds to 1 and the noise is always 0.
    pub fn new(epsilon: Epsilon, sensitivity: L1Sensitivity) -> Result<Self> {
        let (eps, sens) = (epsilon.get(), sensitivity.get());
        let mut alpha = (-eps / sens).exp();
        if alpha.is_normal() {
            // `ln` of a double near 1 is exact to an ulp of the result,
            // so ε̂ carries the rounding of α̂ and nothing more; a larger
            // α̂ realizes a smaller ε̂.
            while alpha < 1.0 && -alpha.ln() * sens > eps * (1.0 + BUDGET_RELATIVE_SLACK) {
                alpha = alpha.next_up();
            }
        }
        if !(alpha.is_normal() && alpha < 1.0) {
            return Err(MechanismError::GeometricDecayOutOfRange {
                epsilon: eps,
                sensitivity: sens,
            });
        }
        Ok(Self { alpha })
    }

    /// The geometric decay `α = exp(−ε/Δ₁)`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Fills `noise` with independent two-sided geometric draws — one
    /// calibration, `N` draws, no per-cell dispatch.
    pub fn sample_into<R: Rng + ?Sized>(&self, noise: &mut [i64], rng: &mut R) {
        sampling::two_sided_geometric_into(rng, self.alpha, noise);
    }

    /// Adds calibrated noise to every element of `values` in place
    /// (saturating) — the batched hot path the disclosure pipeline uses.
    /// Outputs may be negative; clamp at the application layer only if
    /// the post-processing story allows it.
    pub fn randomize_slice<R: Rng + ?Sized>(&self, values: &mut [i64], rng: &mut R) {
        for v in values {
            *v = v.saturating_add(sampling::two_sided_geometric(rng, self.alpha));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mech(eps: f64, sens: f64) -> GeometricMechanism {
        GeometricMechanism::new(
            Epsilon::new(eps).unwrap(),
            L1Sensitivity::new(sens).unwrap(),
        )
        .unwrap()
    }

    /// The two-sided geometric variance `2α/(1−α)²`.
    fn variance(m: &GeometricMechanism) -> f64 {
        let a = m.alpha();
        2.0 * a / ((1.0 - a) * (1.0 - a))
    }

    /// `n` noisy copies of `value`.
    fn released(m: &GeometricMechanism, value: i64, n: usize, rng: &mut StdRng) -> Vec<i64> {
        let mut out = vec![value; n];
        m.randomize_slice(&mut out, rng);
        out
    }

    #[test]
    fn alpha_formula() {
        let m = mech(1.0, 1.0);
        assert!((m.alpha() - (-1.0f64).exp()).abs() < 1e-15);
        let m = mech(0.5, 2.0);
        assert!((m.alpha() - (-0.25f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn refuses_a_decay_that_rounds_to_one() {
        // The release-path reproduction: ε = 1e-13 at a level whose
        // Δ₁ is 2881 gives ε/Δ₁ ≈ 3.5e-17, and exp(−3.5e-17) == 1.0.
        for (eps, sens) in [(1e-13, 2881.0), (1e-17, 1.0), (1e-300, 1e10)] {
            let err = GeometricMechanism::new(
                Epsilon::new(eps).unwrap(),
                L1Sensitivity::new(sens).unwrap(),
            )
            .unwrap_err();
            assert_eq!(
                err,
                MechanismError::GeometricDecayOutOfRange {
                    epsilon: eps,
                    sensitivity: sens,
                }
            );
            let msg = err.to_string();
            assert!(msg.contains(&eps.to_string()), "{msg}");
            assert!(msg.contains(&sens.to_string()), "{msg}");
            assert!(msg.contains("rounds to 1"), "{msg}");
        }
        // Just above the edge α is still below 1 and the mechanism adds
        // noise of magnitude ~1/(ε/Δ₁).
        let m = mech(1e-15, 1.0);
        assert!(m.alpha() < 1.0);
        let noise = released(&m, 0, 64, &mut StdRng::seed_from_u64(6));
        assert!(noise.iter().any(|x| x.abs() > 1_000_000), "{noise:?}");
    }

    /// The realized `ε̂ = −ln(α̂)·Δ₁` of a built mechanism.
    fn realized(m: &GeometricMechanism, sens: f64) -> f64 {
        -m.alpha().ln() * sens
    }

    #[test]
    fn recalibrates_a_decay_that_misstates_epsilon() {
        // The rounded decay α̂ = 1 − 2⁻⁵³ realizes 1.85·ε at
        // ε/Δ₁ = 6e-17 and 1.11·ε at 1e-16, and the only larger double
        // is 1: refused. At 710 α̂ is subnormal and the noise is always
        // 0: refused.
        for x in [6e-17, 1e-16, 710.0] {
            let err =
                GeometricMechanism::new(Epsilon::new(x).unwrap(), L1Sensitivity::new(1.0).unwrap())
                    .unwrap_err();
            assert!(
                matches!(err, MechanismError::GeometricDecayOutOfRange { .. }),
                "{x}: {err}"
            );
        }
        assert!(!(-710.0f64).exp().is_normal());
        // At 2e-16 the rounded decay 1 − 2·2⁻⁵³ realizes 1.11·ε; one
        // step up, 1 − 2⁻⁵³ realizes 0.56·ε and is kept.
        let x = 2e-16f64;
        assert!(-(-x).exp().ln() > x * (1.0 + BUDGET_RELATIVE_SLACK));
        let m = mech(x, 1.0);
        assert_eq!(m.alpha(), 1.0 - f64::EPSILON / 2.0);
        assert!(realized(&m, 1.0) <= x, "{}", realized(&m, 1.0));
        // The perfbench fixture's coarsest level, Δ₁ = 2 · 962,014
        // associations: every ε here is built, realizing at most ε
        // (within the slack), and ε = 0.5 keeps the rounded decay.
        let sens = 2.0 * 962_014.0;
        for eps in [0.05, 0.1, 0.5] {
            let m = mech(eps, sens);
            let r = realized(&m, sens);
            assert!(r <= eps * (1.0 + BUDGET_RELATIVE_SLACK), "{eps}: {r}");
            assert!(m.alpha() >= (-eps / sens).exp(), "{eps}");
        }
        assert_eq!(mech(0.5, sens).alpha(), (-0.5 / sens).exp());
    }

    #[test]
    fn refuses_a_decay_that_rounds_to_zero() {
        for (eps, sens) in [(1000.0, 1.0), (1e300, 1e-300)] {
            let err = GeometricMechanism::new(
                Epsilon::new(eps).unwrap(),
                L1Sensitivity::new(sens).unwrap(),
            )
            .unwrap_err();
            assert!(
                matches!(err, MechanismError::GeometricDecayOutOfRange { .. }),
                "{err}"
            );
            assert!(err.to_string().contains("rounds to 0"), "{err}");
        }
        // Just short of the subnormal range α is normal: accepted.
        assert!(mech(700.0, 1.0).alpha().is_normal());
    }

    #[test]
    fn output_distribution_centered_on_input() {
        let m = mech(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let mean = released(&m, 1000, n, &mut rng).iter().sum::<i64>() as f64 / n as f64;
        assert!((mean - 1000.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn empirical_variance_matches_formula() {
        let m = mech(0.5, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200_000;
        let xs = released(&m, 0, n, &mut rng);
        let mean = xs.iter().sum::<i64>() as f64 / n as f64;
        let var = xs
            .iter()
            .map(|x| (*x as f64 - mean) * (*x as f64 - mean))
            .sum::<f64>()
            / n as f64;
        let rel = (var - variance(&m)).abs() / variance(&m);
        assert!(rel < 0.03, "variance {var} vs {}", variance(&m));
    }

    #[test]
    fn empirical_dp_ratio_on_point_masses() {
        // Under Δ₁ = 1, for adjacent answers 0 and 1 every point mass must
        // satisfy P[M(0)=k] ≤ e^ε·P[M(1)=k].
        let e = 0.7;
        let m = mech(e, 1.0);
        let n = 400_000usize;
        let mut rng = StdRng::seed_from_u64(3);
        let mut h0 = std::collections::HashMap::new();
        let mut h1 = std::collections::HashMap::new();
        for x in released(&m, 0, n, &mut rng) {
            *h0.entry(x).or_insert(0usize) += 1;
        }
        for x in released(&m, 1, n, &mut rng) {
            *h1.entry(x).or_insert(0usize) += 1;
        }
        for k in -3..=4 {
            let p0 = *h0.get(&k).unwrap_or(&0) as f64 / n as f64;
            let p1 = *h1.get(&k).unwrap_or(&0) as f64 / n as f64;
            assert!(p0 <= e.exp() * p1 + 0.01, "k={k}: {p0} vs {p1}");
            assert!(p1 <= e.exp() * p0 + 0.01, "k={k} rev: {p1} vs {p0}");
        }
    }

    #[test]
    fn sample_into_matches_mechanism_variance() {
        let m = mech(0.5, 1.0);
        let mut rng = StdRng::seed_from_u64(30);
        let mut noise = vec![0i64; 200_000];
        m.sample_into(&mut noise, &mut rng);
        let mean = noise.iter().sum::<i64>() as f64 / noise.len() as f64;
        let var = noise
            .iter()
            .map(|x| (*x as f64 - mean) * (*x as f64 - mean))
            .sum::<f64>()
            / noise.len() as f64;
        assert!(
            (var - variance(&m)).abs() / variance(&m) < 0.03,
            "var {var}"
        );
    }

    #[test]
    fn randomize_slice_and_sample_into_share_one_stream() {
        // Both paths must draw through the same sampler so a future
        // change to one cannot silently diverge from the other.
        let m = mech(0.8, 1.0);
        let mut noise = vec![0i64; 64];
        m.sample_into(&mut noise, &mut StdRng::seed_from_u64(32));
        let mut values = vec![100i64; 64];
        m.randomize_slice(&mut values, &mut StdRng::seed_from_u64(32));
        let recovered: Vec<i64> = values.iter().map(|v| v - 100).collect();
        assert_eq!(noise, recovered);
    }

    #[test]
    fn randomize_slice_is_deterministic() {
        let m = mech(1.0, 2.0);
        let mut a = vec![10i64; 64];
        let mut b = vec![10i64; 64];
        m.randomize_slice(&mut a, &mut StdRng::seed_from_u64(31));
        m.randomize_slice(&mut b, &mut StdRng::seed_from_u64(31));
        assert_eq!(a, b);
    }

    #[test]
    fn saturating_add_protects_extremes() {
        let m = mech(0.01, 100.0); // heavy noise
        let mut rng = StdRng::seed_from_u64(5);
        // Must not overflow/panic even at i64 extremes.
        for _ in 0..1000 {
            m.randomize_slice(&mut [i64::MAX - 1, i64::MIN + 1], &mut rng);
        }
    }
}
