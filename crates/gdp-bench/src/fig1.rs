//! The Figure-1 experiment: relative error rate of the noisy
//! association count per release level, swept over `εg`.
//!
//! The paper's setup: DBLP graph, 9 specialization rounds, releases
//! `I_{9,i}` for `i ∈ [0,7]`, Gaussian noise, RER = `|P − T| / T`.
//! Our reproduction keeps the same shape at configurable scale.

use rand::rngs::StdRng;
use rand::SeedableRng;

use gdp_core::{relative_error, DisclosureConfig, NoiseMechanism, Query};
use gdp_core::{GroupHierarchy, MultiLevelDiscloser};
use gdp_graph::BipartiteGraph;

use crate::table::{fmt_f64, Table};

/// The εg sweep used in Figure 1 (0.1 … 0.999; the paper's right edge is
/// labelled 1 but classic Gaussian needs ε < 1).
pub fn paper_epsilons() -> Vec<f64> {
    vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.999]
}

/// One εg row of the Figure-1 table.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// The group-privacy budget.
    pub epsilon_g: f64,
    /// Mean RER per released level (index = hierarchy level).
    pub rer_by_level: Vec<f64>,
}

/// Configuration of a Figure-1 run.
#[derive(Debug, Clone)]
pub struct Fig1Config {
    /// The εg sweep.
    pub epsilons: Vec<f64>,
    /// Gaussian δ.
    pub delta: f64,
    /// Released levels, finest first (paper: `0..=7`).
    pub levels: Vec<usize>,
    /// Noise trials per (εg, level) cell.
    pub trials: usize,
    /// Noise mechanism.
    pub mechanism: NoiseMechanism,
    /// RNG seed for the noise phase.
    pub seed: u64,
}

impl Fig1Config {
    /// The paper's configuration over a hierarchy of `level_count`
    /// levels: sweep [`paper_epsilons`], δ = 1e-6, release every level
    /// except the two coarsest (the paper releases `I_{9,0}..I_{9,7}` of
    /// a 10-level hierarchy), classic Gaussian.
    pub fn paper(level_count: usize, trials: usize, seed: u64) -> Self {
        let released = level_count.saturating_sub(2).max(1);
        Self {
            epsilons: paper_epsilons(),
            delta: 1e-6,
            levels: (0..released).collect(),
            trials,
            mechanism: NoiseMechanism::GaussianClassic,
            seed,
        }
    }
}

/// Runs the sweep: for every εg, disclose `trials` times and average the
/// per-level RER of the total association count.
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
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut rows = Vec::with_capacity(config.epsilons.len());
    for &eps in &config.epsilons {
        let disclosure = DisclosureConfig::count_only(eps, config.delta)
            .expect("valid epsilon/delta")
            .with_mechanism(config.mechanism)
            .with_queries(vec![Query::TotalAssociations]);
        let discloser = MultiLevelDiscloser::new(disclosure);
        let mut sums = vec![0f64; config.levels.len()];
        for _ in 0..config.trials {
            let release = discloser
                .disclose(graph, hierarchy, &mut rng)
                .expect("disclosure succeeds");
            for (slot, &level) in config.levels.iter().enumerate() {
                let noisy = release
                    .level(level)
                    .expect("level released")
                    .total_associations()
                    .expect("count query configured");
                sums[slot] += relative_error(noisy, true_total);
            }
        }
        rows.push(Fig1Row {
            epsilon_g: eps,
            rer_by_level: sums.into_iter().map(|s| s / config.trials as f64).collect(),
        });
    }
    rows
}

/// Renders Figure 1 as a table: one row per εg, one column per release
/// level `I_{L,i}`.
pub fn to_table(rows: &[Fig1Row], levels: &[usize], hierarchy_top: usize) -> Table {
    let mut header = vec!["eps_g".to_string()];
    header.extend(levels.iter().map(|l| format!("I{hierarchy_top},{l}")));
    let mut table = Table::new(header);
    for row in rows {
        let mut cells = vec![fmt_f64(row.epsilon_g)];
        cells.extend(row.rer_by_level.iter().map(|r| fmt_f64(*r)));
        table.push_row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_context;
    use gdp_core::SplitStrategy;
    use gdp_datagen::DblpConfig;

    #[test]
    fn fig1_runs_and_is_monotone_in_level() {
        let ctx = build_context(DblpConfig::tiny(), 3, SplitStrategy::Median, 1);
        let config = Fig1Config {
            epsilons: vec![0.5],
            delta: 1e-6,
            levels: vec![0, 1, 2, 3],
            trials: 60,
            mechanism: NoiseMechanism::GaussianClassic,
            seed: 2,
        };
        let rows = run(&ctx.graph, &ctx.hierarchy, &config);
        assert_eq!(rows.len(), 1);
        let rer = &rows[0].rer_by_level;
        assert_eq!(rer.len(), 4);
        // Averaged over 60 trials, coarser levels must carry clearly
        // larger error (σ grows by ~2× per level).
        assert!(rer[3] > rer[0], "coarse level not noisier: {rer:?}");
    }

    #[test]
    fn fig1_rer_decreases_with_epsilon() {
        let ctx = build_context(DblpConfig::tiny(), 3, SplitStrategy::Median, 3);
        let config = Fig1Config {
            epsilons: vec![0.1, 0.999],
            delta: 1e-6,
            levels: vec![3],
            trials: 60,
            mechanism: NoiseMechanism::GaussianClassic,
            seed: 4,
        };
        let rows = run(&ctx.graph, &ctx.hierarchy, &config);
        assert!(
            rows[0].rer_by_level[0] > rows[1].rer_by_level[0],
            "RER should fall as εg rises: {:?}",
            rows
        );
    }

    #[test]
    fn table_shape_matches_paper_labels() {
        let rows = vec![Fig1Row {
            epsilon_g: 0.5,
            rer_by_level: vec![0.1, 0.2],
        }];
        let t = to_table(&rows, &[0, 1], 9);
        let rendered = t.render();
        assert!(rendered.contains("I9,0"));
        assert!(rendered.contains("I9,1"));
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn paper_config_releases_all_but_two_coarsest() {
        let c = Fig1Config::paper(10, 5, 1);
        assert_eq!(c.levels, (0..8).collect::<Vec<_>>());
        assert_eq!(c.epsilons.len(), 10);
    }
}
