//! Baselines the paper's calibrated group-DP release is compared against.
//!
//! * The individual-DP release [`individual_edge_dp_count`] shows what
//!   classical DP publishes — accurate, but offering **no** group-level
//!   guarantee.
//! * [`naive_group_composition_count`] achieves group privacy through the
//!   textbook group-privacy property of individual DP (an `ε`-DP
//!   mechanism is `kε`-DP for groups of size `k`), i.e. by shrinking the
//!   per-step budget to `εg/k`. For `(ε, δ)` mechanisms this pays an
//!   extra `log k` factor over calibrating the noise to the group
//!   sensitivity directly — the gap `BENCH_paper.json`'s baselines
//!   record per level (`docs/paper.md`).

use rand::Rng;
use serde::{Deserialize, Serialize};

use gdp_graph::BipartiteGraph;
use gdp_mechanisms::{
    Delta, Epsilon, GaussianMechanism, L1Sensitivity, L2Sensitivity, LaplaceMechanism,
};

use crate::Result;

/// A single noisy count released by one of the baseline mechanisms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineRelease {
    /// Which baseline produced this.
    pub label: String,
    /// The noisy total association count.
    pub noisy_total: f64,
    /// The noise scale used (Laplace b or Gaussian σ).
    pub noise_scale: f64,
    /// The adjacency-level sensitivity the noise was calibrated to.
    pub sensitivity: f64,
}

/// `ε`-DP release of the association count under **edge-level**
/// adjacency (neighbouring datasets differ in one association):
/// Laplace with `Δ₁ = 1`.
///
/// # Errors
///
/// Propagates invalid `ε`.
pub fn individual_edge_dp_count<R: Rng + ?Sized>(
    graph: &BipartiteGraph,
    epsilon: Epsilon,
    rng: &mut R,
) -> Result<BaselineRelease> {
    let mech = LaplaceMechanism::new(epsilon, L1Sensitivity::unit())?;
    Ok(BaselineRelease {
        label: "individual-edge-dp".to_string(),
        noisy_total: mech.randomize(graph.edge_count() as f64, rng),
        noise_scale: mech.scale(),
        sensitivity: 1.0,
    })
}

/// Group-DP release of the association count obtained **without** the
/// paper's machinery: run an edge-level `(ε', δ')`-DP Gaussian and rely
/// on the group-privacy property of DP.
///
/// A group of the released level touches at most
/// `k = max_incident_edges` associations (the level's
/// [`crate::GroupLevel::max_incident_edges`], which the caller computes
/// once per level), and an `(ε', δ')`-DP mechanism is
/// `(kε', k·e^{(k−1)ε'}·δ')`-DP for changes of `k` records. Solving for
/// the per-step parameters that yield `(εg, δg)` at the group level
/// gives `ε' = εg/k` and `δ' = δg·e^{−(k−1)ε'}/k ≥ δg·e^{−εg}/k`; we use
/// the (slightly conservative) latter closed form.
///
/// The resulting σ carries a `√(ln(k·e^{εg}/δg))` factor where direct
/// group-sensitivity calibration (what [`crate::MultiLevelDiscloser`]
/// does) pays only `√(ln(1/δg))` — the naive route is strictly noisier,
/// increasingly so for coarse levels.
///
/// # Errors
///
/// Propagates invalid parameters (e.g. `εg/k` rounding to zero).
pub fn naive_group_composition_count<R: Rng + ?Sized>(
    graph: &BipartiteGraph,
    max_incident_edges: u64,
    epsilon_g: Epsilon,
    delta_g: Delta,
    rng: &mut R,
) -> Result<BaselineRelease> {
    let k = max_incident_edges.max(1) as f64;
    let mech = naive_step_mechanism(k, epsilon_g, delta_g)?;
    Ok(BaselineRelease {
        label: "naive-group-composition".to_string(),
        noisy_total: mech.randomize(graph.edge_count() as f64, rng),
        noise_scale: mech.sigma(),
        sensitivity: k,
    })
}

/// The edge-level Gaussian whose k-fold composition is
/// `(εg, δg)`-DP for groups touching `k` associations.
fn naive_step_mechanism(k: f64, epsilon_g: Epsilon, delta_g: Delta) -> Result<GaussianMechanism> {
    let eps_step = Epsilon::new(epsilon_g.get() / k)?;
    let delta_step = Delta::new(delta_g.get() * (-epsilon_g.get()).exp() / k)?;
    // Per-step mechanism protects one edge (Δ₂ = 1); the k-fold group
    // argument lifts it to the level's groups.
    Ok(GaussianMechanism::classic(
        eps_step,
        delta_step,
        L2Sensitivity::unit(),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::GroupLevel;
    use gdp_graph::{GraphBuilder, LeftId, RightId, Side, SidePartition};
    use gdp_mechanisms::GaussianMechanism;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph() -> BipartiteGraph {
        let mut b = GraphBuilder::new(16, 16);
        for l in 0..16u32 {
            for k in 0..2u32 {
                b.add_edge(LeftId::new(l), RightId::new((l + k * 3) % 16))
                    .unwrap();
            }
        }
        b.build()
    }

    fn whole_level(g: &BipartiteGraph) -> GroupLevel {
        GroupLevel::new(
            SidePartition::whole(Side::Left, g.left_count()).unwrap(),
            SidePartition::whole(Side::Right, g.right_count()).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn edge_dp_has_unit_scale_at_eps_one() {
        let g = graph();
        let r = individual_edge_dp_count(&g, Epsilon::new(1.0).unwrap(), &mut rng()).unwrap();
        assert_eq!(r.noise_scale, 1.0);
        assert_eq!(r.sensitivity, 1.0);
        assert!(r.noisy_total.is_finite());
    }

    #[test]
    fn naive_composition_noisier_than_direct_calibration() {
        let g = graph();
        let level = whole_level(&g);
        let eps = Epsilon::new(0.5).unwrap();
        let delta = Delta::new(1e-6).unwrap();
        let k = level.max_incident_edges(&g);
        let naive = naive_group_composition_count(&g, k, eps, delta, &mut rng()).unwrap();
        // Direct calibration: one Gaussian at group sensitivity k.
        let k = k as f64;
        let direct =
            GaussianMechanism::classic(eps, delta, L2Sensitivity::new(k).unwrap()).unwrap();
        assert!(
            naive.noise_scale > direct.sigma(),
            "naive σ {} should exceed direct σ {}",
            naive.noise_scale,
            direct.sigma()
        );
        // Across the parameter space, the naive σ exceeds the calibrated
        // σ by exactly √(ln(1.25·k·e^ε/δ) / ln(1.25/δ)).
        for k in [1.0, 2.0, 24.0, 1_000.0, 7_032.0, 1e6] {
            for eps in [1e-3, 0.1, 0.5, 0.9, 0.999] {
                for delta in [1e-12, 1e-9, 1e-6, 1e-3, 0.5] {
                    let (e, d) = (Epsilon::new(eps).unwrap(), Delta::new(delta).unwrap());
                    let naive = naive_step_mechanism(k, e, d).unwrap().sigma();
                    let calibrated =
                        GaussianMechanism::classic(e, d, L2Sensitivity::new(k).unwrap())
                            .unwrap()
                            .sigma();
                    let want = ((1.25 * k * eps.exp() / delta).ln() / (1.25 / delta).ln()).sqrt();
                    let at = format!("k {k}, ε {eps}, δ {delta}");
                    assert!(naive > calibrated, "{at}: naive σ {naive} ≤ {calibrated}");
                    let ratio = naive / calibrated;
                    assert!(
                        (ratio - want).abs() <= 1e-9 * want,
                        "{at}: {ratio} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_baselines_deterministic_under_seed() {
        let g = graph();
        let eps = Epsilon::new(0.8).unwrap();
        let a = individual_edge_dp_count(&g, eps, &mut StdRng::seed_from_u64(5)).unwrap();
        let b = individual_edge_dp_count(&g, eps, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(a, b);
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }
}
