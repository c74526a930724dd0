//! Property-based tests for the mechanism substrate.

use proptest::prelude::*;

use gdp_mechanisms::{
    Delta, Epsilon, ExponentialMechanism, GaussianMechanism, GeometricMechanism, L1Sensitivity,
    L2Sensitivity, LaplaceMechanism, MechanismError, PrivacyAccountant, PrivacyBudget,
    BUDGET_RELATIVE_SLACK,
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
    /// exp(−ε/Δ₁) rounds to 1 or to 0: a mechanism is built exactly
    /// when some normal decay in the open unit interval realizes ε
    /// (see [`geometric_new_contract`]), and refused with a typed error
    /// otherwise.
    #[test]
    fn geometric_new_accepts_exactly_the_open_unit_decay(
        e in proptest::num::f64::ANY,
        s in proptest::num::f64::ANY,
    ) {
        if let (Ok(eps), Ok(sens)) = (Epsilon::new(e), L1Sensitivity::new(s)) {
            geometric_new_contract(eps, sens);
        }
    }

    /// The same contract where it bites: ε/Δ₁ drawn log-uniformly from
    /// the band in which rounding α can misstate ε (5.6e-17 to 5.6e-8)
    /// and from the band in which α is subnormal or 0 (708 to 745).
    #[test]
    fn geometric_new_contract_holds_near_both_edges(
        log_ratio in -16.26f64..-7.26,
        high_ratio in 708.0f64..745.0,
        s in sens_strategy(),
    ) {
        for ratio in [10f64.powf(log_ratio), high_ratio] {
            if let (Ok(eps), Ok(sens)) = (Epsilon::new(ratio * s), L1Sensitivity::new(s)) {
                geometric_new_contract(eps, sens);
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
/// `GeometricMechanism::new`'s contract, with the realized
/// `ε̂ = −ln(α)·Δ₁` and `cap = ε·(1 + BUDGET_RELATIVE_SLACK)`: a
/// mechanism is built exactly when `α̂ = exp(−ε/Δ₁)` is a normal double
/// below 1 and the largest double below 1 realizes at most `cap` (`ε̂`
/// falls as `α` rises, so then some `α ∈ [α̂, 1)` does). A built
/// mechanism's `α` is the smallest such double, and a refusal is the
/// typed error.
fn geometric_new_contract(eps: Epsilon, sens: L1Sensitivity) {
    let (e, s) = (eps.get(), sens.get());
    let rounded = (-e / s).exp();
    let cap = e * (1.0 + BUDGET_RELATIVE_SLACK);
    let realized = |alpha: f64| -alpha.ln() * s;
    let below_one = 1.0 - f64::EPSILON / 2.0;
    let realizable = rounded.is_normal() && rounded < 1.0 && realized(below_one) <= cap;
    match GeometricMechanism::new(eps, sens) {
        Ok(mech) => {
            let alpha = mech.alpha();
            assert!(realizable, "e={e} s={s} built with alpha={alpha}");
            assert!(rounded <= alpha && alpha < 1.0, "e={e} s={s}");
            assert!(realized(alpha) <= cap, "e={e} s={s}");
            assert!(
                alpha == rounded || realized(alpha.next_down()) > cap,
                "e={e} s={s}"
            );
        }
        Err(err) => {
            assert!(!realizable, "e={e} s={s} refused");
            assert_eq!(
                err,
                MechanismError::GeometricDecayOutOfRange {
                    epsilon: e,
                    sensitivity: s
                }
            );
        }
    }
}

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
