use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::budget::{Delta, Epsilon};
use crate::error::MechanismError;
use crate::sampling;
use crate::sensitivity::L2Sensitivity;
use crate::special::normal_cdf;
use crate::Result;

/// The **Gaussian mechanism**: releases `q(D) + N(0, σ²)` with σ
/// calibrated so the release is `(ε, δ)`-differentially private for the
/// adjacency relation under which `Δ₂` was computed.
///
/// Two calibrations: [`Self::classic`], the bound
/// `σ = Δ₂·√(2 ln(1.25/δ))/ε` the paper cites (valid for `ε < 1`;
/// Dwork & Roth, Theorem A.1), and [`Self::analytic`], the exact
/// characterization of Balle & Wang (ICML 2018), valid for every
/// `ε > 0` and never noisier than the classic bound.
///
/// This is the paper's Phase-2 primitive: each hierarchy level's count
/// query is perturbed with Gaussian noise whose `Δ₂` is the *group-level*
/// sensitivity at that level, yielding `εg`-group-DP per Definition 4.
///
/// ```
/// use gdp_mechanisms::{Epsilon, Delta, L2Sensitivity, GaussianMechanism};
///
/// # fn main() -> Result<(), gdp_mechanisms::MechanismError> {
/// let classic = GaussianMechanism::classic(
///     Epsilon::new(0.5)?, Delta::new(1e-6)?, L2Sensitivity::new(10.0)?)?;
/// let analytic = GaussianMechanism::analytic(
///     Epsilon::new(0.5)?, Delta::new(1e-6)?, L2Sensitivity::new(10.0)?)?;
/// // The analytic calibration never needs more noise than the classic one.
/// assert!(analytic.sigma() <= classic.sigma());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaussianMechanism {
    sigma: f64,
}

impl GaussianMechanism {
    /// Creates a Gaussian mechanism with the classic calibration
    /// `σ = Δ₂·√(2 ln(1.25/δ))/ε`.
    ///
    /// # Errors
    ///
    /// * [`MechanismError::EpsilonTooLargeForClassicGaussian`] if `ε ≥ 1`
    ///   (the classic proof breaks there — use [`Self::analytic`]).
    /// * [`MechanismError::DeltaZeroForGaussian`] if `δ = 0`.
    pub fn classic(epsilon: Epsilon, delta: Delta, sensitivity: L2Sensitivity) -> Result<Self> {
        if epsilon.get() >= 1.0 {
            return Err(MechanismError::EpsilonTooLargeForClassicGaussian(
                epsilon.get(),
            ));
        }
        if delta.is_pure() {
            return Err(MechanismError::DeltaZeroForGaussian);
        }
        let sigma = sensitivity.get() * (2.0 * (1.25 / delta.get()).ln()).sqrt() / epsilon.get();
        Ok(Self { sigma })
    }

    /// Creates a Gaussian mechanism with the analytic (Balle–Wang)
    /// calibration: the minimal σ satisfying the exact `(ε, δ)`
    /// characterization, found by bisection on the monotone map
    /// `σ ↦ δ(σ)`.
    ///
    /// # Errors
    ///
    /// Returns [`MechanismError::DeltaZeroForGaussian`] if `δ = 0`.
    pub fn analytic(epsilon: Epsilon, delta: Delta, sensitivity: L2Sensitivity) -> Result<Self> {
        if delta.is_pure() {
            return Err(MechanismError::DeltaZeroForGaussian);
        }
        let sigma = calibrate_analytic(epsilon.get(), delta.get(), sensitivity.get());
        Ok(Self { sigma })
    }

    /// The noise standard deviation σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Releases a single noisy value.
    pub fn randomize<R: Rng + ?Sized>(&self, true_value: f64, rng: &mut R) -> f64 {
        true_value + sampling::gaussian(rng, self.sigma)
    }

    /// Releases a noisy copy of a vector answer; `Δ₂` must bound the
    /// whole-vector L2 change under one adjacency step.
    pub fn randomize_vec<R: Rng + ?Sized>(&self, values: &[f64], rng: &mut R) -> Vec<f64> {
        let mut out = values.to_vec();
        self.randomize_slice(&mut out, rng);
        out
    }

    /// Fills `noise` with independent `N(0, σ²)` draws — one
    /// calibration, `N` draws, both variates of every polar pair used.
    pub fn sample_into<R: Rng + ?Sized>(&self, noise: &mut [f64], rng: &mut R) {
        sampling::gaussian_into(rng, self.sigma, noise);
    }

    /// Adds calibrated noise to every element of `values` in place — the
    /// batched, allocation-free hot path the disclosure pipeline uses.
    /// Roughly halves the uniform draws of element-wise
    /// [`GaussianMechanism::randomize`] calls by consuming full polar
    /// pairs.
    pub fn randomize_slice<R: Rng + ?Sized>(&self, values: &mut [f64], rng: &mut R) {
        sampling::gaussian_add_into(rng, self.sigma, values);
    }
}

/// Exact `(ε, δ)` curve of the Gaussian mechanism (Balle & Wang 2018,
/// Theorem 8): for noise σ and sensitivity Δ,
/// `δ(σ) = Φ(Δ/(2σ) − εσ/Δ) − e^ε · Φ(−Δ/(2σ) − εσ/Δ)`.
///
/// The analytic calibration below inverts it.
fn gaussian_delta(epsilon: f64, sigma: f64, sensitivity: f64) -> f64 {
    let a = sensitivity / (2.0 * sigma) - epsilon * sigma / sensitivity;
    let b = -sensitivity / (2.0 * sigma) - epsilon * sigma / sensitivity;
    (normal_cdf(a) - epsilon.exp() * normal_cdf(b)).max(0.0)
}

/// Finds the minimal σ with `gaussian_delta(ε, σ, Δ) ≤ δ` by bisection.
fn calibrate_analytic(epsilon: f64, delta: f64, sensitivity: f64) -> f64 {
    // δ(σ) is strictly decreasing in σ. Bracket the root.
    let mut lo = 1e-10 * sensitivity;
    let mut hi = sensitivity; // grow until δ(hi) ≤ δ
    while gaussian_delta(epsilon, hi, sensitivity) > delta {
        hi *= 2.0;
        debug_assert!(hi.is_finite());
    }
    // lo may already satisfy the bound for huge δ; keep bisection valid.
    if gaussian_delta(epsilon, lo, sensitivity) <= delta {
        return lo;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if gaussian_delta(epsilon, mid, sensitivity) > delta {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo) / hi < 1e-14 {
            break;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }
    fn del(v: f64) -> Delta {
        Delta::new(v).unwrap()
    }
    fn sens(v: f64) -> L2Sensitivity {
        L2Sensitivity::new(v).unwrap()
    }

    #[test]
    fn classic_sigma_formula() {
        let m = GaussianMechanism::classic(eps(0.5), del(1e-6), sens(2.0)).unwrap();
        let want = 2.0 * (2.0f64 * (1.25e6f64).ln()).sqrt() / 0.5;
        assert!((m.sigma() - want).abs() < 1e-12);
    }

    #[test]
    fn classic_rejects_large_epsilon_and_zero_delta() {
        assert!(matches!(
            GaussianMechanism::classic(eps(1.0), del(1e-6), sens(1.0)),
            Err(MechanismError::EpsilonTooLargeForClassicGaussian(_))
        ));
        assert!(matches!(
            GaussianMechanism::classic(eps(0.5), Delta::ZERO, sens(1.0)),
            Err(MechanismError::DeltaZeroForGaussian)
        ));
    }

    #[test]
    fn analytic_accepts_large_epsilon() {
        let m = GaussianMechanism::analytic(eps(4.0), del(1e-6), sens(1.0)).unwrap();
        assert!(m.sigma() > 0.0 && m.sigma().is_finite());
    }

    #[test]
    fn analytic_sigma_satisfies_delta_curve_tightly() {
        for (e, d, s) in [(0.5, 1e-6, 1.0), (1.5, 1e-8, 10.0), (0.1, 1e-4, 3.0)] {
            let m = GaussianMechanism::analytic(eps(e), del(d), sens(s)).unwrap();
            let achieved = gaussian_delta(e, m.sigma(), s);
            assert!(achieved <= d * (1.0 + 1e-9), "δ(σ)={achieved} > {d}");
            // Slightly smaller σ must violate the bound (minimality).
            let violated = gaussian_delta(e, m.sigma() * 0.999, s);
            assert!(violated > d, "σ not minimal: δ(0.999σ)={violated} ≤ {d}");
        }
    }

    #[test]
    fn analytic_dominates_classic() {
        for e in [0.1, 0.3, 0.5, 0.9] {
            for d in [1e-8, 1e-6, 1e-4] {
                let c = GaussianMechanism::classic(eps(e), del(d), sens(1.0)).unwrap();
                let a = GaussianMechanism::analytic(eps(e), del(d), sens(1.0)).unwrap();
                assert!(
                    a.sigma() <= c.sigma(),
                    "analytic σ {} > classic σ {} at ε={e}, δ={d}",
                    a.sigma(),
                    c.sigma()
                );
            }
        }
    }

    #[test]
    fn sigma_scales_linearly_with_sensitivity() {
        let m1 = GaussianMechanism::classic(eps(0.5), del(1e-6), sens(1.0)).unwrap();
        let m9 = GaussianMechanism::classic(eps(0.5), del(1e-6), sens(9.0)).unwrap();
        assert!((m9.sigma() / m1.sigma() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn noise_variance_matches_sigma() {
        let m = GaussianMechanism::classic(eps(0.5), del(1e-6), sens(1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| m.randomize(0.0, &mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let want = m.sigma() * m.sigma();
        let rel = (var - want).abs() / want;
        assert!(rel < 0.02, "variance off by {rel}");
    }

    #[test]
    fn classic_calibration_also_satisfies_exact_curve() {
        // The classic bound is conservative, so the exact δ at its σ must
        // be below the target δ.
        let (e, d) = (0.5, 1e-6);
        let m = GaussianMechanism::classic(eps(e), del(d), sens(1.0)).unwrap();
        assert!(gaussian_delta(e, m.sigma(), 1.0) <= d);
    }

    #[test]
    fn sample_into_matches_sigma() {
        let m = GaussianMechanism::classic(eps(0.5), del(1e-6), sens(1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(50);
        let mut noise = vec![0.0; 100_000];
        m.sample_into(&mut noise, &mut rng);
        let mean = noise.iter().sum::<f64>() / noise.len() as f64;
        let var = noise.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / noise.len() as f64;
        let want = m.sigma() * m.sigma();
        let rel = (var - want).abs() / want;
        assert!(rel < 0.02, "batched variance off by {rel}");
    }

    #[test]
    fn randomize_slice_and_sample_into_share_one_stream() {
        let m = GaussianMechanism::classic(eps(0.5), del(1e-6), sens(1.0)).unwrap();
        let mut noise = vec![0.0; 65]; // odd length: exercises the tail pair
        m.sample_into(&mut noise, &mut StdRng::seed_from_u64(52));
        let mut values = vec![10.0; 65];
        m.randomize_slice(&mut values, &mut StdRng::seed_from_u64(52));
        for (n, v) in noise.iter().zip(&values) {
            assert_eq!(10.0 + n, *v);
        }
    }

    #[test]
    fn randomize_slice_is_deterministic_and_centered() {
        let m = GaussianMechanism::analytic(eps(1.0), del(1e-6), sens(2.0)).unwrap();
        let mut a = vec![50.0; 128];
        let mut b = vec![50.0; 128];
        m.randomize_slice(&mut a, &mut StdRng::seed_from_u64(51));
        m.randomize_slice(&mut b, &mut StdRng::seed_from_u64(51));
        assert_eq!(a, b);
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn gaussian_delta_monotone_decreasing_in_sigma() {
        let mut prev = f64::INFINITY;
        for i in 1..50 {
            let sigma = i as f64 * 0.25;
            let d = gaussian_delta(0.5, sigma, 1.0);
            assert!(d <= prev + 1e-15, "δ not decreasing at σ={sigma}");
            prev = d;
        }
    }

    #[test]
    fn empirical_epsilon_delta_bound_holds() {
        // Audit (ε, δ)-DP on adjacent answers 0 and Δ over bucket events.
        let (e, d) = (0.7, 1e-3);
        let m = GaussianMechanism::classic(eps(e), del(d), sens(1.0)).unwrap();
        let n = 300_000usize;
        let mut rng = StdRng::seed_from_u64(12);
        let a: Vec<f64> = (0..n).map(|_| m.randomize(0.0, &mut rng)).collect();
        let b: Vec<f64> = (0..n).map(|_| m.randomize(1.0, &mut rng)).collect();
        let lo = -30.0;
        let width = 2.0;
        let buckets = 30usize;
        let hist = |xs: &[f64]| {
            let mut h = vec![0f64; buckets];
            for &x in xs {
                let idx = ((x - lo) / width).floor();
                if idx >= 0.0 && (idx as usize) < buckets {
                    h[idx as usize] += 1.0;
                }
            }
            for c in &mut h {
                *c /= xs.len() as f64;
            }
            h
        };
        let ha = hist(&a);
        let hb = hist(&b);
        let slack = 0.01;
        for i in 0..buckets {
            assert!(ha[i] <= e.exp() * hb[i] + d + slack, "bucket {i}");
            assert!(hb[i] <= e.exp() * ha[i] + d + slack, "bucket {i} rev");
        }
    }
}
