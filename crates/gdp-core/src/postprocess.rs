//! Post-processing of multi-level releases — utility improvements that
//! cost **zero** additional privacy budget (post-processing invariance of
//! DP).
//!
//! * [`fuse_total_estimates`] — every level releases a noisy copy of the
//!   *same* total association count with a known noise variance;
//!   inverse-variance weighting fuses the levels a reader may access
//!   into a single estimate strictly better than any one of them.
//! * [`clamp_non_negative`] — counts are non-negative, so clamping the
//!   noisy values at zero can only move them towards the truth.
//!
//! Both run over released values only — no access to the private
//! graph — so they can run on the *consumer* side.

use crate::error::CoreError;
use crate::queries::Query;
use crate::release::MultiLevelRelease;
use crate::Result;

/// Inverse-variance fusion of the noisy total counts of `levels`.
///
/// Returns `(estimate, variance)` of the fused estimator. Levels are
/// weighted by `1/σ²` using each release's recorded noise scale, which
/// is exact for Gaussian noise and a good approximation for Laplace
/// (variance `2b²`).
///
/// # Errors
///
/// * [`CoreError::LevelOutOfRange`] for an unknown level index.
/// * [`CoreError::InvalidConfig`] when `levels` is empty or a level did
///   not release the total-count query.
pub fn fuse_total_estimates(release: &MultiLevelRelease, levels: &[usize]) -> Result<(f64, f64)> {
    if levels.is_empty() {
        return Err(CoreError::InvalidConfig(
            "fusion needs at least one level".to_string(),
        ));
    }
    let mut weight_sum = 0.0;
    let mut weighted_value = 0.0;
    for &i in levels {
        let level = release.level(i)?;
        let q = level.query(Query::TotalAssociations).ok_or_else(|| {
            CoreError::InvalidConfig(format!("level {i} did not release the total count"))
        })?;
        let variance = variance_of(release, q.noise_scale);
        let w = 1.0 / variance;
        weight_sum += w;
        weighted_value += w * q.scalar().expect("total count is scalar");
    }
    Ok((weighted_value / weight_sum, 1.0 / weight_sum))
}

/// Noise variance implied by a release's scale under its mechanism.
fn variance_of(release: &MultiLevelRelease, scale: f64) -> f64 {
    use crate::disclosure::NoiseMechanism;
    match release.mechanism() {
        NoiseMechanism::GaussianClassic | NoiseMechanism::GaussianAnalytic => scale * scale,
        NoiseMechanism::Laplace => 2.0 * scale * scale,
        // Two-sided geometric with decay α: Var = 2α/(1−α)².
        NoiseMechanism::Geometric => 2.0 * scale / ((1.0 - scale) * (1.0 - scale)),
    }
}

/// Clamps noisy counts to be non-negative — valid post-processing that
/// strictly reduces error for count queries (the truth is non-negative).
pub fn clamp_non_negative(values: &mut [f64]) {
    for v in values {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disclosure::{DisclosureConfig, MultiLevelDiscloser};
    use crate::specialize::{SpecializationConfig, Specializer};
    use gdp_datagen::{DblpConfig, DblpGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (
        gdp_graph::BipartiteGraph,
        crate::GroupHierarchy,
        MultiLevelRelease,
    ) {
        let mut rng = StdRng::seed_from_u64(40);
        let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
        let hierarchy = Specializer::new(SpecializationConfig::median(3).unwrap())
            .specialize(&graph, &mut rng)
            .unwrap();
        let release = MultiLevelDiscloser::new(DisclosureConfig::count_only(0.5, 1e-6).unwrap())
            .disclose(&graph, &hierarchy, &mut rng)
            .unwrap();
        (graph, hierarchy, release)
    }

    #[test]
    fn fused_estimate_beats_every_single_level_in_variance() {
        let (_, h, release) = setup();
        let all: Vec<usize> = (0..h.level_count()).collect();
        let (_, fused_var) = fuse_total_estimates(&release, &all).unwrap();
        for i in &all {
            let q = release.level(*i).unwrap().queries[0].clone();
            let lvl_var = q.noise_scale * q.noise_scale;
            assert!(
                fused_var < lvl_var,
                "fused var {fused_var} not below level {i} var {lvl_var}"
            );
        }
    }

    #[test]
    fn fused_estimate_is_statistically_closer() {
        // Over repeated disclosures, the fused estimate's mean error must
        // be below the coarsest level's mean error.
        let mut rng = StdRng::seed_from_u64(41);
        let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
        let hierarchy = Specializer::new(SpecializationConfig::median(3).unwrap())
            .specialize(&graph, &mut rng)
            .unwrap();
        let discloser = MultiLevelDiscloser::new(DisclosureConfig::count_only(0.5, 1e-6).unwrap());
        let truth = graph.edge_count() as f64;
        let trials = 60;
        let mut err_fused = 0.0;
        let mut err_coarse = 0.0;
        let top = hierarchy.level_count() - 1;
        for _ in 0..trials {
            let release = discloser.disclose(&graph, &hierarchy, &mut rng).unwrap();
            let (fused, _) =
                fuse_total_estimates(&release, &(0..=top).collect::<Vec<_>>()).unwrap();
            err_fused += (fused - truth).abs();
            err_coarse += (release.level(top).unwrap().total_associations().unwrap() - truth).abs();
        }
        assert!(
            err_fused < err_coarse,
            "fusion did not help: {err_fused} vs {err_coarse}"
        );
    }

    #[test]
    fn fusion_input_validation() {
        let (_, _, release) = setup();
        assert!(fuse_total_estimates(&release, &[]).is_err());
        assert!(fuse_total_estimates(&release, &[99]).is_err());
    }

    #[test]
    fn clamp_only_touches_negatives() {
        let mut v = [-3.0, 0.0, 2.5, -0.1];
        clamp_non_negative(&mut v);
        assert_eq!(v, [0.0, 0.0, 2.5, 0.0]);
    }
}
