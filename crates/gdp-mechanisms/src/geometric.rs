use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::budget::Epsilon;
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
/// let noisy = mech.randomize(100, &mut rng);
/// // Output is still an integer count.
/// let _: i64 = noisy;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeometricMechanism {
    epsilon: Epsilon,
    sensitivity: L1Sensitivity,
    alpha: f64,
}

impl GeometricMechanism {
    /// Creates a geometric mechanism calibrated to `(ε, Δ₁)`.
    ///
    /// # Errors
    ///
    /// Never fails for valid inputs; `Result` keeps constructor signatures
    /// uniform across mechanisms.
    pub fn new(epsilon: Epsilon, sensitivity: L1Sensitivity) -> Result<Self> {
        let alpha = (-epsilon.get() / sensitivity.get()).exp();
        Ok(Self {
            epsilon,
            sensitivity,
            alpha,
        })
    }

    /// The privacy parameter `ε`.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The sensitivity bound `Δ₁`.
    pub fn sensitivity(&self) -> L1Sensitivity {
        self.sensitivity
    }

    /// The geometric decay `α = exp(−ε/Δ₁)`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Noise variance `2α/(1−α)²`.
    pub fn variance(&self) -> f64 {
        2.0 * self.alpha / ((1.0 - self.alpha) * (1.0 - self.alpha))
    }

    /// Releases a noisy integer count (may be negative; clamp at the
    /// application layer only if the post-processing story allows it).
    pub fn randomize<R: Rng + ?Sized>(&self, true_value: i64, rng: &mut R) -> i64 {
        true_value.saturating_add(sampling::two_sided_geometric(rng, self.alpha))
    }

    /// Releases a noisy copy of a vector of integer counts. `Δ₁` must
    /// bound the whole-vector L1 change under one adjacency step.
    pub fn randomize_vec<R: Rng + ?Sized>(&self, values: &[i64], rng: &mut R) -> Vec<i64> {
        let mut out = values.to_vec();
        self.randomize_slice(&mut out, rng);
        out
    }

    /// Fills `noise` with independent two-sided geometric draws — one
    /// calibration, `N` draws, no per-cell dispatch.
    pub fn sample_into<R: Rng + ?Sized>(&self, noise: &mut [i64], rng: &mut R) {
        sampling::two_sided_geometric_into(rng, self.alpha, noise);
    }

    /// Adds calibrated noise to every element of `values` in place
    /// (saturating) — the batched hot path the disclosure pipeline uses.
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

    #[test]
    fn alpha_formula() {
        let m = mech(1.0, 1.0);
        assert!((m.alpha() - (-1.0f64).exp()).abs() < 1e-15);
        let m = mech(0.5, 2.0);
        assert!((m.alpha() - (-0.25f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn output_distribution_centered_on_input() {
        let m = mech(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let mean = (0..n).map(|_| m.randomize(1000, &mut rng)).sum::<i64>() as f64 / n as f64;
        assert!((mean - 1000.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn empirical_variance_matches_formula() {
        let m = mech(0.5, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200_000;
        let xs: Vec<i64> = (0..n).map(|_| m.randomize(0, &mut rng)).collect();
        let mean = xs.iter().sum::<i64>() as f64 / n as f64;
        let var = xs
            .iter()
            .map(|x| (*x as f64 - mean) * (*x as f64 - mean))
            .sum::<f64>()
            / n as f64;
        let rel = (var - m.variance()).abs() / m.variance();
        assert!(rel < 0.03, "variance {var} vs {}", m.variance());
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
        for _ in 0..n {
            *h0.entry(m.randomize(0, &mut rng)).or_insert(0usize) += 1;
            *h1.entry(m.randomize(1, &mut rng)).or_insert(0usize) += 1;
        }
        for k in -3..=4 {
            let p0 = *h0.get(&k).unwrap_or(&0) as f64 / n as f64;
            let p1 = *h1.get(&k).unwrap_or(&0) as f64 / n as f64;
            assert!(p0 <= e.exp() * p1 + 0.01, "k={k}: {p0} vs {p1}");
            assert!(p1 <= e.exp() * p0 + 0.01, "k={k} rev: {p1} vs {p0}");
        }
    }

    #[test]
    fn randomize_vec_length_preserved() {
        let m = mech(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(m.randomize_vec(&[1, 2, 3], &mut rng).len(), 3);
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
            (var - m.variance()).abs() / m.variance() < 0.03,
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
            let _ = m.randomize(i64::MAX - 1, &mut rng);
            let _ = m.randomize(i64::MIN + 1, &mut rng);
        }
    }
}
