//! Closed-form error predictions for the disclosure pipeline.
//!
//! For each mechanism the expected absolute noise — hence the expected
//! RER of a count release — has a closed form. The experiment harness
//! prints predicted-next-to-measured so a drifting implementation is
//! caught immediately, and tests assert the two agree.

use crate::disclosure::NoiseMechanism;
use crate::error::CoreError;
use crate::Result;

/// Expected absolute noise of one release at `noise_scale` under
/// `mechanism` (σ for Gaussian, b for Laplace, α for geometric).
///
/// * Gaussian: `E|N(0,σ²)| = σ·√(2/π)`
/// * Laplace: `E|Lap(b)| = b`
/// * Geometric (two-sided, decay α): `E|X| = 2α / (1 − α²)`
pub fn expected_absolute_noise(mechanism: NoiseMechanism, noise_scale: f64) -> f64 {
    match mechanism {
        NoiseMechanism::GaussianClassic | NoiseMechanism::GaussianAnalytic => {
            noise_scale * (2.0 / std::f64::consts::PI).sqrt()
        }
        NoiseMechanism::Laplace => noise_scale,
        NoiseMechanism::Geometric => 2.0 * noise_scale / (1.0 - noise_scale * noise_scale),
    }
}

/// Predicted RER of a count release: expected absolute noise divided by
/// the true count.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for a non-positive true count —
/// the RER metric itself is undefined there.
pub fn predicted_rer(mechanism: NoiseMechanism, noise_scale: f64, true_count: f64) -> Result<f64> {
    if !(true_count.is_finite() && true_count > 0.0) {
        return Err(CoreError::InvalidConfig(format!(
            "predicted RER needs a positive true count, got {true_count}"
        )));
    }
    Ok(expected_absolute_noise(mechanism, noise_scale) / true_count)
}

/// Predicted σ of the classic Gaussian calibration — the paper's
/// noise-scale formula, exposed so experiment tables can annotate their
/// rows without constructing a mechanism.
pub fn classic_gaussian_sigma(epsilon: f64, delta: f64, l2_sensitivity: f64) -> f64 {
    l2_sensitivity * (2.0 * (1.25 / delta).ln()).sqrt() / epsilon
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disclosure::{DisclosureConfig, MultiLevelDiscloser};
    use crate::metrics::relative_error;
    use crate::specialize::{SpecializationConfig, Specializer};
    use gdp_datagen::{DblpConfig, DblpGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_prediction_matches_closed_form() {
        let sigma = 10.0;
        let want = sigma * (2.0 / std::f64::consts::PI).sqrt();
        assert!(
            (expected_absolute_noise(NoiseMechanism::GaussianClassic, sigma) - want).abs() < 1e-12
        );
        assert_eq!(expected_absolute_noise(NoiseMechanism::Laplace, 7.0), 7.0);
    }

    #[test]
    fn geometric_expected_noise_formula() {
        // α = 0.5: E|X| = 2·0.5/(1−0.25) = 4/3.
        let got = expected_absolute_noise(NoiseMechanism::Geometric, 0.5);
        assert!((got - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn predicted_rer_rejects_bad_truth() {
        assert!(predicted_rer(NoiseMechanism::Laplace, 1.0, 0.0).is_err());
        assert!(predicted_rer(NoiseMechanism::Laplace, 1.0, -5.0).is_err());
        assert!(predicted_rer(NoiseMechanism::Laplace, 1.0, f64::NAN).is_err());
    }

    #[test]
    fn classic_sigma_matches_mechanism() {
        use gdp_mechanisms::{Delta, Epsilon, GaussianMechanism, L2Sensitivity};
        let mech = GaussianMechanism::classic(
            Epsilon::new(0.5).unwrap(),
            Delta::new(1e-6).unwrap(),
            L2Sensitivity::new(37.0).unwrap(),
        )
        .unwrap();
        let predicted = classic_gaussian_sigma(0.5, 1e-6, 37.0);
        assert!((mech.sigma() - predicted).abs() < 1e-9);
    }

    #[test]
    fn measured_rer_converges_to_prediction() {
        // End-to-end: mean measured RER over many trials must land within
        // a few percent of the closed-form prediction.
        let mut rng = StdRng::seed_from_u64(70);
        let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
        let hierarchy = Specializer::new(SpecializationConfig::median(2).unwrap())
            .specialize(&graph, &mut rng)
            .unwrap();
        let discloser = MultiLevelDiscloser::new(DisclosureConfig::count_only(0.5, 1e-6).unwrap());
        let truth = graph.edge_count() as f64;
        let level = 2usize;
        let trials = 600;
        let mut measured = 0.0;
        let mut scale = 0.0;
        for _ in 0..trials {
            let release = discloser.disclose(&graph, &hierarchy, &mut rng).unwrap();
            let q = &release.level(level).unwrap().queries[0];
            measured += relative_error(q.scalar().unwrap(), truth);
            scale = q.noise_scale;
        }
        measured /= trials as f64;
        let predicted = predicted_rer(NoiseMechanism::GaussianClassic, scale, truth).unwrap();
        let rel_gap = ((measured - predicted) / predicted).abs();
        assert!(
            rel_gap < 0.12,
            "measured {measured} vs predicted {predicted} (gap {rel_gap})"
        );
    }
}
