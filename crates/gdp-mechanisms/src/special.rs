//! Special functions needed for Gaussian-mechanism calibration.
//!
//! Everything here is implemented from scratch (no `libm`/`statrs`
//! dependency): the complementary error function `erfc` uses W. J.
//! Cody's rational Chebyshev approximations (SPECFUN `CALERF`, relative
//! error ≈ 1e-16 over the full range, including the far tail where the
//! analytic Gaussian calibration of Balle & Wang evaluates it), and the
//! standard normal CDF `Φ` is derived from it. `Φ` is the one function
//! the calibration calls.
//!
//! The published coefficient tables are reproduced verbatim, so the
//! excessive-precision lint is silenced for this module.
#![allow(clippy::excessive_precision)]

/// The complementary error function `erfc(x) = 1 − erf(x)`.
///
/// Keeps full *relative* accuracy in the right tail, which matters when
/// calibrating Gaussian noise against δ values as small as 1e-12.
pub(crate) fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let ax = x.abs();
    if ax < 0.46875 {
        1.0 - erf_small(x)
    } else if x > 0.0 {
        erfc_core(ax)
    } else {
        2.0 - erfc_core(ax)
    }
}

/// Cody's approximation for `erf` on `|x| < 0.46875`.
fn erf_small(x: f64) -> f64 {
    const A: [f64; 5] = [
        3.161_123_743_870_565_6e0,
        1.138_641_541_510_501_6e2,
        3.774_852_376_853_020_2e2,
        3.209_377_589_138_469_5e3,
        1.857_777_061_846_031_5e-1,
    ];
    const B: [f64; 4] = [
        2.360_129_095_234_412_1e1,
        2.440_246_379_344_441_7e2,
        1.282_616_526_077_372_3e3,
        2.844_236_833_439_170_6e3,
    ];
    let z = x * x;
    let mut num = A[4] * z;
    let mut den = z;
    for i in 0..3 {
        num = (num + A[i]) * z;
        den = (den + B[i]) * z;
    }
    x * (num + A[3]) / (den + B[3])
}

/// Cody's approximation for `erfc` on `x ≥ 0.46875` (positive argument).
fn erfc_core(x: f64) -> f64 {
    debug_assert!(x >= 0.46875);
    if x > 26.543 {
        // erfc underflows to zero in f64 well before this, but the
        // asymptotic series below would produce garbage — clamp.
        return 0.0;
    }
    let r = if x <= 4.0 {
        const C: [f64; 9] = [
            5.641_884_969_886_700_9e-1,
            8.883_149_794_388_375_9e0,
            6.611_919_063_714_163e1,
            2.986_351_381_974_001_3e2,
            8.819_522_212_417_691e2,
            1.712_047_612_634_070_6e3,
            2.051_078_377_826_071_5e3,
            1.230_339_354_797_997_2e3,
            2.153_115_354_744_038_5e-8,
        ];
        const D: [f64; 8] = [
            1.574_492_611_070_983_5e1,
            1.176_939_508_913_125e2,
            5.371_811_018_620_098_6e2,
            1.621_389_574_566_690_2e3,
            3.290_799_235_733_459_7e3,
            4.362_619_090_143_247e3,
            3.439_367_674_143_721_7e3,
            1.230_339_354_803_749_4e3,
        ];
        let mut num = C[8] * x;
        let mut den = x;
        for i in 0..7 {
            num = (num + C[i]) * x;
            den = (den + D[i]) * x;
        }
        (num + C[7]) / (den + D[7])
    } else {
        const P: [f64; 6] = [
            3.053_266_349_612_323_4e-1,
            3.603_448_999_498_044_4e-1,
            1.257_817_261_112_292_5e-1,
            1.608_378_514_874_227_7e-2,
            6.587_491_615_298_378e-4,
            1.631_538_713_730_209_8e-2,
        ];
        const Q: [f64; 5] = [
            2.568_520_192_289_822_4e0,
            1.872_952_849_923_460_4e0,
            5.279_051_029_514_284e-1,
            6.051_834_131_244_132e-2,
            2.335_204_976_268_691_8e-3,
        ];
        let z = 1.0 / (x * x);
        let mut num = P[5] * z;
        let mut den = z;
        for i in 0..4 {
            num = (num + P[i]) * z;
            den = (den + Q[i]) * z;
        }
        let poly = z * (num + P[4]) / (den + Q[4]);
        (1.0 / std::f64::consts::PI.sqrt() - poly) / x
    };
    // Scale by exp(-x²) computed accurately: split x² into a rounded part
    // and a remainder so exp() sees small arguments (Cody's trick).
    let xsq = (x * 16.0).trunc() / 16.0;
    let del = (x - xsq) * (x + xsq);
    (-xsq * xsq).exp() * (-del).exp() * r
}

/// The standard normal cumulative distribution function
/// `Φ(x) = P[N(0,1) ≤ x]`.
pub(crate) fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // Reference values computed with mpmath at 50 digits.
    const ERF_TABLE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.1124629160182849),
        (0.25, 0.2763263901682369),
        (0.46874, 0.49260441524411136),
        (0.46876, 0.4926225311068465),
        (0.5, 0.5204998778130465),
        (1.0, 0.8427007929497149),
        (1.5, 0.9661051464753107),
        (2.0, 0.9953222650189527),
        (3.0, 0.9999779095030014),
        (4.0, 0.9999999845827421),
    ];

    const ERFC_TABLE: &[(f64, f64)] = &[
        (0.5, 0.4795001221869535),
        (1.0, 0.15729920705028513),
        (2.0, 0.004677734981047265),
        (3.0, 2.2090496998585438e-5),
        (4.0, 1.541725790028002e-8),
        (5.0, 1.5374597944280347e-12),
        (6.0, 2.1519736712498913e-17),
        (8.0, 1.1224297172982928e-29),
        (10.0, 2.0884875837625448e-45),
    ];

    #[test]
    fn erf_matches_reference_values() {
        // `1 − erfc` is erf. Below 0.46875 erfc runs through Cody's
        // small-argument branch, which ERFC_TABLE (x ≥ 0.5) never reaches.
        for &(x, want) in ERF_TABLE {
            let got = 1.0 - erfc(x);
            assert!(
                (got - want).abs() <= 1e-11 * want.abs().max(1.0),
                "erf({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn erfc_matches_reference_values_with_relative_accuracy() {
        for &(x, want) in ERFC_TABLE {
            let got = erfc(x);
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-10, "erfc({x}) = {got}, want {want}, rel {rel}");
        }
    }

    #[test]
    fn erf_is_odd_and_erfc_complements() {
        // erf is odd exactly when erfc(−x) = 2 − erfc(x).
        for x in [0.01, 0.3, 0.7, 1.3, 2.9, 4.2] {
            assert!(
                (erfc(-x) - (2.0 - erfc(x))).abs() < 1e-14,
                "erfc reflection fails at {x}"
            );
        }
    }

    #[test]
    fn erf_handles_extremes() {
        assert_eq!(erfc(40.0), 0.0);
        assert_eq!(erfc(-40.0), 2.0);
        assert!(erfc(f64::NAN).is_nan());
    }

    #[test]
    fn normal_cdf_reference_values() {
        // (x, Φ(x)) reference pairs.
        let table = [
            (-3.0, 0.0013498980316300933),
            (-1.0, 0.15865525393145705),
            (0.0, 0.5),
            (1.0, 0.8413447460685429),
            (1.6448536269514722, 0.95),
            (1.959963984540054, 0.975),
            (2.3263478740408408, 0.99),
        ];
        for (x, want) in table {
            let got = normal_cdf(x);
            assert!((got - want).abs() < 1e-12, "Phi({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn normal_cdf_is_tail_accurate() {
        // Φ(−6) ≈ 9.865876450376946e-10 — must hold *relative* accuracy:
        // the analytic calibration scales Φ of a far-left argument by e^ε.
        let got = normal_cdf(-6.0);
        let want = 9.865876450376946e-10;
        assert!(((got - want) / want).abs() < 1e-10, "Phi(-6) = {got}");
    }

    #[test]
    fn pdf_integrates_to_cdf_derivative() {
        // Finite-difference check: (Φ(x+h) − Φ(x−h)) / 2h ≈ φ(x).
        let pdf = |x: f64| (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
        let h = 1e-6;
        for x in [-2.0, -0.5, 0.0, 0.7, 2.5] {
            let fd = (normal_cdf(x + h) - normal_cdf(x - h)) / (2.0 * h);
            assert!(
                (fd - pdf(x)).abs() < 1e-8,
                "pdf mismatch at {x}: fd={fd}, pdf={}",
                pdf(x)
            );
        }
    }

    proptest! {
        #[test]
        fn erf_bounded_and_odd(x in -6.0f64..6.0) {
            // erf = 1 − erfc lies in [−1, 1] and is odd: erfc lies in
            // [0, 2] and erfc(−x) + erfc(x) = 2.
            prop_assert!((0.0..=2.0).contains(&erfc(x)));
            prop_assert!((erfc(-x) + erfc(x) - 2.0).abs() < 1e-12);
        }

        #[test]
        fn normal_cdf_monotone(a in -8.0f64..8.0, b in -8.0f64..8.0) {
            if a < b {
                prop_assert!(normal_cdf(a) <= normal_cdf(b) + 1e-15);
            }
        }
    }
}
