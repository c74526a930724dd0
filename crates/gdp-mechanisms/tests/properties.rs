//! Property-based tests for the mechanism substrate.

use proptest::prelude::*;

use gdp_mechanisms::{
    Delta, Epsilon, ExponentialMechanism, GaussianMechanism, GeometricMechanism, L1Sensitivity,
    L2Sensitivity, LaplaceMechanism, MechanismError, PrivacyAccountant, PrivacyBudget,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn eps_strategy() -> impl Strategy<Value = f64> {
    0.01f64..10.0
}

fn delta_strategy() -> impl Strategy<Value = f64> {
    1e-9f64..1e-2
}

fn sens_strategy() -> impl Strategy<Value = f64> {
    0.1f64..1e6
}

proptest! {
    #[test]
    fn epsilon_accepts_exactly_finite_positive(v in proptest::num::f64::ANY) {
        let ok = v.is_finite() && v > 0.0;
        prop_assert_eq!(Epsilon::new(v).is_ok(), ok);
    }

    #[test]
    fn delta_accepts_exactly_unit_interval(v in proptest::num::f64::ANY) {
        let ok = v.is_finite() && (0.0..1.0).contains(&v);
        prop_assert_eq!(Delta::new(v).is_ok(), ok);
    }

    #[test]
    fn laplace_scale_formula_holds(e in eps_strategy(), s in sens_strategy()) {
        let mech = LaplaceMechanism::new(
            Epsilon::new(e).unwrap(),
            L1Sensitivity::new(s).unwrap(),
        ).unwrap();
        prop_assert!((mech.scale() - s / e).abs() <= 1e-12 * (s / e));
    }

    #[test]
    fn laplace_noise_is_finite(e in eps_strategy(), s in sens_strategy(), seed in 0u64..1000) {
        let mech = LaplaceMechanism::new(
            Epsilon::new(e).unwrap(),
            L1Sensitivity::new(s).unwrap(),
        ).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..16 {
            prop_assert!(mech.randomize(1.0, &mut rng).is_finite());
        }
    }

    #[test]
    fn gaussian_sigma_monotone_in_parameters(
        e in 0.05f64..0.9,
        d in delta_strategy(),
        s in sens_strategy(),
    ) {
        let base = GaussianMechanism::classic(
            Epsilon::new(e).unwrap(), Delta::new(d).unwrap(),
            L2Sensitivity::new(s).unwrap()).unwrap();
        // Larger ε ⇒ less noise.
        let easier = GaussianMechanism::classic(
            Epsilon::new(e * 1.1).unwrap(), Delta::new(d).unwrap(),
            L2Sensitivity::new(s).unwrap()).unwrap();
        prop_assert!(easier.sigma() < base.sigma());
        // Larger Δ ⇒ more noise.
        let harder = GaussianMechanism::classic(
            Epsilon::new(e).unwrap(), Delta::new(d).unwrap(),
            L2Sensitivity::new(s * 2.0).unwrap()).unwrap();
        prop_assert!(harder.sigma() > base.sigma());
    }

    #[test]
    fn analytic_never_noisier_than_classic(
        e in 0.05f64..0.99,
        d in delta_strategy(),
        s in sens_strategy(),
    ) {
        let eps = Epsilon::new(e).unwrap();
        let delta = Delta::new(d).unwrap();
        let sens = L2Sensitivity::new(s).unwrap();
        let classic = GaussianMechanism::classic(eps, delta, sens).unwrap();
        let analytic = GaussianMechanism::analytic(eps, delta, sens).unwrap();
        prop_assert!(analytic.sigma() <= classic.sigma() * (1.0 + 1e-9));
        prop_assert!(analytic.sigma() > 0.0);
    }

    #[test]
    fn exponential_probabilities_form_distribution(
        utilities in proptest::collection::vec(-1e3f64..1e3, 1..40),
        e in eps_strategy(),
    ) {
        let mech = ExponentialMechanism::new(
            Epsilon::new(e).unwrap(), L1Sensitivity::unit()).unwrap();
        let p = mech.selection_probabilities(&utilities).unwrap();
        prop_assert_eq!(p.len(), utilities.len());
        let total: f64 = p.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|x| (0.0..=1.0 + 1e-12).contains(x)));
        // Higher utility never gets lower probability.
        for i in 0..utilities.len() {
            for j in 0..utilities.len() {
                if utilities[i] > utilities[j] {
                    prop_assert!(p[i] >= p[j] - 1e-12);
                }
            }
        }
    }

    #[test]
    fn exponential_dp_ratio_under_unit_utility_shift(
        utilities in proptest::collection::vec(-50f64..50.0, 2..20),
        idx in 0usize..19,
        e in 0.1f64..3.0,
    ) {
        let idx = idx % utilities.len();
        let mech = ExponentialMechanism::new(
            Epsilon::new(e).unwrap(), L1Sensitivity::unit()).unwrap();
        let mut shifted = utilities.clone();
        shifted[idx] += 1.0; // one adjacency step at Δu = 1
        let p = mech.selection_probabilities(&utilities).unwrap();
        let q = mech.selection_probabilities(&shifted).unwrap();
        for i in 0..p.len() {
            prop_assert!(p[i] <= e.exp() * q[i] * (1.0 + 1e-9));
            prop_assert!(q[i] <= e.exp() * p[i] * (1.0 + 1e-9));
        }
    }

    #[test]
    fn geometric_alpha_in_unit_interval(e in eps_strategy(), s in sens_strategy()) {
        let mech = GeometricMechanism::new(
            Epsilon::new(e).unwrap(), L1Sensitivity::new(s).unwrap()).unwrap();
        prop_assert!(mech.alpha() > 0.0 && mech.alpha() < 1.0);
    }

    /// Over the whole positive f64 range, including both ends where
    /// exp(−ε/Δ₁) rounds to 1 or to 0: a mechanism is built exactly when
    /// its decay lies strictly inside (0, 1), and refused with a typed
    /// error otherwise.
    #[test]
    fn geometric_new_accepts_exactly_the_open_unit_decay(
        e in proptest::num::f64::ANY,
        s in proptest::num::f64::ANY,
    ) {
        if let (Ok(eps), Ok(sens)) = (Epsilon::new(e), L1Sensitivity::new(s)) {
            let alpha = (-e / s).exp();
            match GeometricMechanism::new(eps, sens) {
                Ok(mech) => {
                    prop_assert!(alpha > 0.0 && alpha < 1.0);
                    prop_assert_eq!(mech.alpha(), alpha);
                }
                Err(err) => {
                    prop_assert!(!(alpha > 0.0 && alpha < 1.0));
                    prop_assert_eq!(
                        err,
                        MechanismError::GeometricDecayOutOfRange { epsilon: e, sensitivity: s }
                    );
                }
            }
        }
    }

    #[test]
    fn accountant_never_exceeds_total(
        e in 0.5f64..5.0,
        charges in proptest::collection::vec(0.01f64..1.0, 1..30),
    ) {
        let total = PrivacyBudget::new(e, 0.0).unwrap();
        let mut acct = PrivacyAccountant::new(total);
        let mut admitted = 0.0;
        for c in &charges {
            if acct.charge(PrivacyBudget::new(*c, 0.0).unwrap()).is_ok() {
                admitted += c;
            }
            prop_assert!(acct.spent_epsilon() <= e * (1.0 + 1e-9));
        }
        // Only accepted charges are spent.
        prop_assert!((admitted - acct.spent_epsilon()).abs() < 1e-9);
    }

}

// ---------------------------------------------------------------------------
// Batch bit-identity: the mechanism's slice API must reproduce the
// per-element draw loop exactly — same RNG stream consumed, same bits
// out — at short, odd and long lengths. The sampler-level twins live
// in the crate's `sampling` unit tests.
// ---------------------------------------------------------------------------

/// Batch lengths: empty, single, odd, and past a few hundred elements.
fn batch_lengths() -> Vec<usize> {
    vec![0, 1, 3, 4, 5, 255, 256, 257, 600]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The mechanism-level slice APIs ride the same kernels: pinned
    /// against per-element mechanism calls.
    #[test]
    fn randomize_slice_is_bit_identical_to_randomize_loop(
        e in eps_strategy(),
        s in sens_strategy(),
        seed in 0u64..100_000,
    ) {
        let mech = LaplaceMechanism::new(
            Epsilon::new(e).unwrap(),
            L1Sensitivity::new(s).unwrap(),
        ).unwrap();
        for len in batch_lengths() {
            let base: Vec<f64> = (0..len).map(|i| i as f64).collect();
            let mut sliced = base.clone();
            mech.randomize_slice(&mut sliced, &mut StdRng::seed_from_u64(seed));
            let mut rng = StdRng::seed_from_u64(seed);
            let looped: Vec<f64> =
                base.iter().map(|&v| mech.randomize(v, &mut rng)).collect();
            let batch_bits: Vec<u64> = sliced.iter().map(|x| x.to_bits()).collect();
            let loop_bits: Vec<u64> = looped.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(batch_bits, loop_bits, "len {}", len);
        }
    }
}
