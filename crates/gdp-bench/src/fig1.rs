//! The Figure-1 sweep: relative error rate of the noisy association
//! count per release level, swept over `εg`.
//!
//! The paper's setup: DBLP graph, 9 specialization rounds, releases
//! `I_{9,i}` for `i ∈ [0,7]`, classic Gaussian noise, RER = `|P − T| / T`.
//! Our reproduction keeps the same shape at configurable scale.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use gdp_core::{relative_error, DisclosureConfig, HierarchyStats, Query};
use gdp_core::{GroupHierarchy, MultiLevelDiscloser};
use gdp_graph::{BipartiteGraph, DegreeHistogram};

/// The Gaussian `δ` of every release. The paper does not state it; the
/// RER ladder only shifts by a `√ln(1/δ)` factor across δ ∈ [1e-8, 1e-4]
/// (`docs/paper.md`), so the figure's shape does not depend on it.
pub const DELTA: f64 = 1e-6;

/// The εg sweep used in Figure 1 (0.1 … 0.999; the paper's right edge is
/// labelled 1 but classic Gaussian needs ε < 1).
pub fn paper_epsilons() -> Vec<f64> {
    vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.999]
}

/// One εg row of Figure 1. Each vector holds one entry per released
/// level, finest first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig1Row {
    /// The group-privacy budget.
    pub epsilon_g: f64,
    /// The group sensitivity the count's noise is calibrated to.
    pub group_sensitivity: Vec<f64>,
    /// The Gaussian σ of the count.
    pub sigma: Vec<f64>,
    /// Mean RER of the noisy count over the trials.
    pub rer: Vec<f64>,
}

/// Configuration of a Figure-1 run.
#[derive(Debug, Clone)]
pub struct Fig1Config {
    /// The εg sweep.
    pub epsilons: Vec<f64>,
    /// Released levels, finest first (paper: `0..=7`).
    pub levels: Vec<usize>,
    /// Noise trials per (εg, level) cell.
    pub trials: usize,
    /// RNG seed for the noise phase.
    pub seed: u64,
}

impl Fig1Config {
    /// The paper's configuration over a hierarchy of `level_count`
    /// levels: sweep [`paper_epsilons`] and release every level except
    /// the two coarsest (the paper releases `I_{9,0}..I_{9,7}` of a
    /// 10-level hierarchy).
    pub fn paper(level_count: usize, trials: usize, seed: u64) -> Self {
        let released = level_count.saturating_sub(2).max(1);
        Self {
            epsilons: paper_epsilons(),
            levels: (0..released).collect(),
            trials,
            seed,
        }
    }
}

/// Runs the sweep: for every εg, disclose `trials` times and average the
/// per-level RER of the total association count.
///
/// Each trial is a `MultiLevelDiscloser::disclose_from_stats` release,
/// the path `disclose` and the publish pipeline take. `disclose` would
/// recompute the same statistics every trial; they consume no
/// randomness, so computing them once draws the identical noise.
///
/// # Panics
///
/// Panics on invalid configuration (the harness treats setup errors as
/// fatal).
pub fn run(
    graph: &BipartiteGraph,
    hierarchy: &GroupHierarchy,
    config: &Fig1Config,
) -> Vec<Fig1Row> {
    let true_total = graph.edge_count() as f64;
    let stats = HierarchyStats::compute(graph, hierarchy).expect("statistics compute");
    let left_degree_hist = DegreeHistogram::from_degrees(&graph.left_degrees());
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut rows = Vec::with_capacity(config.epsilons.len());
    for &eps in &config.epsilons {
        let discloser = MultiLevelDiscloser::new(
            DisclosureConfig::count_only(eps, DELTA).expect("valid epsilon/delta"),
        );
        let mut row = Fig1Row {
            epsilon_g: eps,
            group_sensitivity: Vec::new(),
            sigma: Vec::new(),
            rer: vec![0.0; config.levels.len()],
        };
        for trial in 0..config.trials {
            let release = discloser
                .disclose_from_stats(hierarchy, &stats, &left_degree_hist, &mut rng)
                .expect("disclosure succeeds");
            for (slot, &level) in config.levels.iter().enumerate() {
                let count = release
                    .level(level)
                    .expect("level released")
                    .query(Query::TotalAssociations)
                    .expect("count query configured");
                row.rer[slot] += relative_error(count.noisy_values[0], true_total);
                if trial == 0 {
                    row.group_sensitivity.push(count.sensitivity.l2);
                    row.sigma.push(count.noise_scale);
                }
            }
        }
        for r in &mut row.rer {
            *r /= config.trials as f64;
        }
        rows.push(row);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_context;
    use gdp_core::SplitStrategy;
    use gdp_datagen::DblpConfig;

    fn tiny_config(epsilons: Vec<f64>, levels: Vec<usize>, seed: u64) -> Fig1Config {
        Fig1Config {
            epsilons,
            levels,
            trials: 60,
            seed,
        }
    }

    #[test]
    fn fig1_runs_and_is_monotone_in_level() {
        let ctx = build_context(DblpConfig::tiny(), 3, SplitStrategy::Median, 1);
        let config = tiny_config(vec![0.5], vec![0, 1, 2, 3], 2);
        let rows = run(&ctx.graph, &ctx.hierarchy, &config);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.rer.len(), 4);
        assert_eq!(row.sigma.len(), 4);
        assert_eq!(row.group_sensitivity.len(), 4);
        // Averaged over 60 trials, coarser levels must carry clearly
        // larger error (σ grows by ~2× per level).
        assert!(row.rer[3] > row.rer[0], "coarse level not noisier: {row:?}");
        assert!(row.sigma.windows(2).all(|w| w[0] <= w[1]), "{row:?}");
    }

    #[test]
    fn fig1_rer_decreases_with_epsilon() {
        let ctx = build_context(DblpConfig::tiny(), 3, SplitStrategy::Median, 3);
        let config = tiny_config(vec![0.1, 0.999], vec![3], 4);
        let rows = run(&ctx.graph, &ctx.hierarchy, &config);
        assert!(
            rows[0].rer[0] > rows[1].rer[0],
            "RER should fall as εg rises: {rows:?}"
        );
    }

    #[test]
    fn fig1_matches_full_disclosures() {
        // The sweep's shortcut (statistics computed once) must draw the
        // same noise as one `disclose` per trial.
        let ctx = build_context(DblpConfig::tiny(), 3, SplitStrategy::Median, 5);
        let config = Fig1Config {
            trials: 3,
            ..tiny_config(vec![0.5], vec![0, 2], 6)
        };
        let rows = run(&ctx.graph, &ctx.hierarchy, &config);
        let discloser = MultiLevelDiscloser::new(DisclosureConfig::count_only(0.5, DELTA).unwrap());
        let mut rng = StdRng::seed_from_u64(6);
        let truth = ctx.graph.edge_count() as f64;
        let mut rer = [0.0; 2];
        for _ in 0..3 {
            let release = discloser
                .disclose(&ctx.graph, &ctx.hierarchy, &mut rng)
                .unwrap();
            for (slot, level) in [0, 2].into_iter().enumerate() {
                let noisy = release.level(level).unwrap().total_associations().unwrap();
                rer[slot] += relative_error(noisy, truth);
            }
        }
        assert_eq!(rows[0].rer, vec![rer[0] / 3.0, rer[1] / 3.0]);
    }

    #[test]
    fn paper_config_releases_all_but_two_coarsest() {
        let c = Fig1Config::paper(10, 5, 1);
        assert_eq!(c.levels, (0..8).collect::<Vec<_>>());
        assert_eq!(c.epsilons.len(), 10);
    }
}
