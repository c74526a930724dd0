//! The committed reproduction of the paper's evaluation,
//! `BENCH_paper.json`: the dataset table, Figure 1, and the baselines
//! the calibrated release is judged against — plus the shapes of the
//! paper's claims that trial noise cannot flip, checked against the
//! committed file by this crate's tests.
//!
//! The file is a pure function of the code: trials and seed are the
//! constants below and are recorded in it; it carries no timestamp and
//! no host field. `docs/paper.md` explains each check.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use gdp_core::{
    individual_edge_dp_count, naive_group_composition_count, relative_error, SplitStrategy,
};
use gdp_datagen::DblpConfig;
use gdp_graph::GraphStats;
use gdp_mechanisms::{Delta, Epsilon};

use crate::fig1::{run, Fig1Config, Fig1Row, DELTA};
use crate::{build_context, thin_hierarchy, ExperimentContext};

/// Noise trials averaged per cell, chosen from the measured spread of
/// shape 2's tightest step (I9,2 → I9,3, sensitivity ratio 1.23): over
/// 30 noise seeds at laptop scale the averaged-RER ratio read 1.23 ± 0.15
/// at 25 trials (one seed inverted it) and 1.23 ± 0.047 at 200, five
/// standard deviations clear of 1 (`docs/paper.md`).
pub const TRIALS: usize = 200;
/// Master seed: datagen and specialization draw from it; the figure's
/// noise draws from `SEED ^ 0xF16` and the baselines' from `SEED ^ 0xB1`.
pub const SEED: u64 = 42;
/// The εg at which the baselines are compared.
pub const BASELINE_EPSILON: f64 = 0.5;

/// Binary specialization rounds; keeping every second level of the
/// result gives the paper's 10-level hierarchy with 4 subgroups per
/// group per level.
const ROUNDS: u32 = 16;
/// The paper's reported DBLP totals: authors, papers, associations.
const DBLP_REPORTED: (u64, u64, u64) = (1_295_100, 2_281_341, 6_384_117);

/// Everything `BENCH_paper.json` holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaperReport {
    /// `laptop` (the 1:100 preset) or `paper` (the full DBLP size).
    pub scale: String,
    /// [`SEED`] when the file was written.
    pub seed: u64,
    /// [`TRIALS`] when the file was written.
    pub trials: usize,
    /// The Gaussian δ of every release.
    pub delta: f64,
    /// Levels of the hierarchy; the release at level `i` is the paper's
    /// `I_{hierarchy_levels−1, i}`.
    pub hierarchy_levels: usize,
    /// The evaluation graph next to the paper's DBLP snapshot.
    pub dataset: Dataset,
    /// Figure 1: one row per εg of [`crate::fig1::paper_epsilons`], each
    /// with one entry per released level `I9,0 … I9,7`.
    pub figure1: Vec<Fig1Row>,
    /// The three routes to a count at [`BASELINE_EPSILON`], one row per
    /// released level.
    pub baselines: Vec<BaselineLevel>,
}

/// The dataset table (the paper's §III inline statistics).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Authors in the paper's DBLP snapshot.
    pub dblp_authors: u64,
    /// Papers in the paper's DBLP snapshot.
    pub dblp_papers: u64,
    /// Associations in the paper's DBLP snapshot.
    pub dblp_associations: u64,
    /// Authors (left nodes) of the generated graph.
    pub authors: u64,
    /// Papers (right nodes) of the generated graph.
    pub papers: u64,
    /// Associations (edges) of the generated graph.
    pub associations: u64,
    /// Largest author degree of the generated graph.
    pub max_author_degree: u64,
    /// Largest paper degree of the generated graph.
    pub max_paper_degree: u64,
}

/// One level of the baseline comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineLevel {
    /// The hierarchy level.
    pub level: usize,
    /// Edge-level DP (Laplace, Δ₁ = 1): accurate, but no group guarantee.
    pub edge_dp: Route,
    /// The paper's release, calibrated to the level's group sensitivity
    /// (Figure 1's own cell at [`BASELINE_EPSILON`]).
    pub calibrated: Route,
    /// Edge-level Gaussian lifted to the group by k-fold composition:
    /// the same guarantee as `calibrated`, with more noise.
    pub naive_composition: Route,
}

/// The noise and error of one route to the association count.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Route {
    /// Standard deviation of the noise (√2·b for Laplace).
    pub sigma: f64,
    /// Mean RER over the trials.
    pub rer: f64,
}

/// Builds the report: generates the DBLP-like graph, specializes it,
/// then runs Figure 1 and the baselines.
pub fn build(paper_scale: bool) -> PaperReport {
    let (scale, dblp) = if paper_scale {
        ("paper", DblpConfig::paper_scale())
    } else {
        ("laptop", DblpConfig::laptop_scale())
    };
    let ExperimentContext { graph, hierarchy } =
        build_context(dblp, ROUNDS, SplitStrategy::Exponential, SEED);
    let hierarchy = thin_hierarchy(&hierarchy, 2);
    let config = Fig1Config::paper(hierarchy.level_count(), TRIALS, SEED ^ 0xF16);
    let figure1 = run(&graph, &hierarchy, &config);

    let calibrated = figure1
        .iter()
        .find(|row| row.epsilon_g == BASELINE_EPSILON)
        .expect("the sweep includes the baseline εg");
    let eps = Epsilon::new(BASELINE_EPSILON).expect("valid epsilon");
    let delta = Delta::new(DELTA).expect("valid delta");
    let truth = graph.edge_count() as f64;
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xB1);
    let baselines = config
        .levels
        .iter()
        .enumerate()
        .map(|(slot, &level)| {
            let k = hierarchy
                .level(level)
                .expect("level exists")
                .max_incident_edges(&graph);
            let (mut edge_dp, mut naive) = (Route::default(), Route::default());
            for _ in 0..TRIALS {
                let e = individual_edge_dp_count(&graph, eps, &mut rng).expect("edge-DP runs");
                let n = naive_group_composition_count(&graph, k, eps, delta, &mut rng)
                    .expect("naive composition runs");
                edge_dp.rer += relative_error(e.noisy_total, truth) / TRIALS as f64;
                naive.rer += relative_error(n.noisy_total, truth) / TRIALS as f64;
                edge_dp.sigma = std::f64::consts::SQRT_2 * e.noise_scale;
                naive.sigma = n.noise_scale;
            }
            BaselineLevel {
                level,
                edge_dp,
                calibrated: Route {
                    sigma: calibrated.sigma[slot],
                    rer: calibrated.rer[slot],
                },
                naive_composition: naive,
            }
        })
        .collect();

    let stats = GraphStats::compute(&graph);
    let mut report = PaperReport {
        scale: scale.to_string(),
        seed: SEED,
        trials: TRIALS,
        delta: DELTA,
        hierarchy_levels: hierarchy.level_count(),
        dataset: Dataset {
            dblp_authors: DBLP_REPORTED.0,
            dblp_papers: DBLP_REPORTED.1,
            dblp_associations: DBLP_REPORTED.2,
            authors: stats.left_nodes.into(),
            papers: stats.right_nodes.into(),
            associations: stats.edges,
            max_author_degree: stats.max_left_degree.into(),
            max_paper_degree: stats.max_right_degree.into(),
        },
        figure1,
        baselines,
    };
    report.round_measurements();
    report
}

impl PaperReport {
    /// Rounds every σ and RER to six significant digits, so a last-bit
    /// difference in a platform's `ln` cannot change the file's bytes.
    fn round_measurements(&mut self) {
        let round = |v: &mut f64| *v = format!("{v:.5e}").parse().expect("a float renders");
        for row in &mut self.figure1 {
            row.sigma.iter_mut().chain(&mut row.rer).for_each(round);
        }
        for b in &mut self.baselines {
            for route in [&mut b.edge_dp, &mut b.calibrated, &mut b.naive_composition] {
                round(&mut route.sigma);
                round(&mut route.rer);
            }
        }
    }

    /// The paper's claims, as shapes that trial noise cannot flip; one
    /// message per violation, empty when every shape holds:
    ///
    /// 1. the I9,7 RER is above the I9,0 RER at every εg;
    /// 2. RER averaged over εg strictly increases with the level;
    /// 3. σ strictly increases with the level at every εg;
    /// 4. at every baseline level, calibrated σ is below naive σ, and
    ///    edge-DP σ is below calibrated σ.
    pub fn shape_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let levels = self.figure1.first().map_or(0, |row| row.rer.len());
        if levels < 2
            || self.baselines.is_empty()
            || self
                .figure1
                .iter()
                .any(|row| row.rer.len() != levels || row.sigma.len() != levels)
        {
            return vec!["figure 1 needs two or more levels in every row, and baselines".into()];
        }
        for row in &self.figure1 {
            let (first, last) = (row.rer[0], row.rer[levels - 1]);
            if last <= first {
                out.push(format!(
                    "shape 1: at εg {} the coarsest RER {last} is not above the finest {first}",
                    row.epsilon_g
                ));
            }
        }
        let mean_rer: Vec<f64> = (0..levels)
            .map(|l| self.figure1.iter().map(|row| row.rer[l]).sum::<f64>())
            .map(|sum| sum / self.figure1.len() as f64)
            .collect();
        if let Some(l) = (1..levels).find(|&l| mean_rer[l] <= mean_rer[l - 1]) {
            out.push(format!(
                "shape 2: RER averaged over εg does not increase from level {} to {l}: {mean_rer:?}",
                l - 1
            ));
        }
        for row in &self.figure1 {
            if let Some(l) = (1..levels).find(|&l| row.sigma[l] <= row.sigma[l - 1]) {
                out.push(format!(
                    "shape 3: at εg {} σ does not increase from level {} to {l}",
                    row.epsilon_g,
                    l - 1
                ));
            }
        }
        for b in &self.baselines {
            let (edge, cal, naive) = (
                b.edge_dp.sigma,
                b.calibrated.sigma,
                b.naive_composition.sigma,
            );
            if !(edge < cal && cal < naive) {
                out.push(format!(
                    "shape 4: at level {} σ is not ordered edge-DP {edge} < calibrated {cal} \
                     < naive {naive}",
                    b.level
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> PaperReport {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");
        let text = std::fs::read_to_string(path).expect("BENCH_paper.json is committed");
        serde_json::from_str(&text).expect("BENCH_paper.json parses")
    }

    fn shapes_violated(report: &PaperReport) -> Vec<char> {
        let mut shapes: Vec<char> = report
            .shape_violations()
            .iter()
            .map(|v| v.chars().nth("shape ".len()).unwrap())
            .collect();
        shapes.dedup();
        shapes
    }

    #[test]
    fn committed_file_has_the_paper_shapes() {
        let report = committed();
        assert_eq!(
            (report.scale.as_str(), report.seed, report.trials),
            ("laptop", SEED, TRIALS),
            "BENCH_paper.json is stale: regenerate it (docs/paper.md)"
        );
        assert_eq!(report.figure1.len(), crate::fig1::paper_epsilons().len());
        assert_eq!(report.figure1[0].rer.len(), 8);
        assert_eq!(report.baselines.len(), 8);
        assert_eq!(report.shape_violations(), Vec::<String>::new());
    }

    #[test]
    fn swapped_level_columns_break_shapes_one_to_three() {
        let mut ends = committed();
        let mut middle = committed();
        for row in &mut ends.figure1 {
            row.rer.swap(0, 7);
            row.sigma.swap(0, 7);
        }
        for row in &mut middle.figure1 {
            row.rer.swap(3, 4);
            row.sigma.swap(3, 4);
        }
        assert_eq!(shapes_violated(&ends), ['1', '2', '3']);
        assert_eq!(shapes_violated(&middle), ['2', '3']);
    }

    #[test]
    fn swapped_calibrated_and_naive_sigma_break_shape_four() {
        let mut report = committed();
        let b = &mut report.baselines[5];
        std::mem::swap(&mut b.calibrated.sigma, &mut b.naive_composition.sigma);
        assert_eq!(shapes_violated(&report), ['4']);
    }

    #[test]
    fn a_report_without_levels_is_refused() {
        let mut report = committed();
        report.baselines.clear();
        assert_eq!(report.shape_violations().len(), 1);
    }
}
