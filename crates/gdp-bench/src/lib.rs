//! The experiment harness behind the `gdp-bench` binaries:
//!
//! | binary | writes |
//! |---|---|
//! | `paper` | `BENCH_paper.json` — the dataset table, Figure 1 and the baselines ([`paper`]) |
//! | `bench_pipeline` | `BENCH_pipeline.json` — pipeline timing |
//! | `load_gen` | `BENCH_serving.json` — HTTP load against `gdp serve` |
//!
//! `paper` accepts `--paper-scale` (the full 6.4M-edge DBLP-like graph;
//! the default is the 1:100 laptop preset) and `--out FILE`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig1;
pub mod paper;

use rand::rngs::StdRng;
use rand::SeedableRng;

use gdp_core::{GroupHierarchy, SpecializationConfig, Specializer, SplitStrategy};
use gdp_datagen::{DblpConfig, DblpGenerator};
use gdp_graph::BipartiteGraph;

/// A generated dataset plus its specialization — the shared setup phase
/// of every experiment.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// The DBLP-like association graph.
    pub graph: BipartiteGraph,
    /// The hierarchy produced by Phase 1.
    pub hierarchy: GroupHierarchy,
}

/// Builds the standard experiment context: generate the DBLP-like graph
/// and run Phase-1 specialization.
///
/// # Panics
///
/// Panics on configuration errors — experiment setup failures should be
/// loud, not threaded through every binary.
pub fn build_context(
    dblp: DblpConfig,
    rounds: u32,
    strategy: SplitStrategy,
    seed: u64,
) -> ExperimentContext {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = DblpGenerator::new(dblp).generate(&mut rng);
    let mut config = SpecializationConfig::paper_default(rounds).expect("rounds > 0");
    config.strategy = strategy;
    let hierarchy = Specializer::new(config)
        .specialize(&graph, &mut rng)
        .expect("specialization of a generated graph succeeds");
    ExperimentContext { graph, hierarchy }
}

/// Thins a hierarchy by keeping every `stride`-th split level, emulating
/// larger fanouts (stride 2 over binary splits ⇒ 4 subgroups per side
/// per retained level). The finest (individual) and coarsest levels are
/// always kept.
///
/// # Panics
///
/// Panics if `stride == 0`.
pub fn thin_hierarchy(hierarchy: &GroupHierarchy, stride: usize) -> GroupHierarchy {
    assert!(stride > 0, "stride must be positive");
    let levels = hierarchy.levels();
    let n = levels.len();
    let mut picked = Vec::new();
    picked.push(levels[0].clone());
    let mut i = 1 + (n - 1 - 1) % stride; // align so the coarsest lands exactly
    while i < n {
        picked.push(levels[i].clone());
        i += stride;
    }
    if picked.len() < 2 {
        picked.push(levels[n - 1].clone());
    }
    GroupHierarchy::new(picked).expect("subsampled levels preserve refinement")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_at_tiny_scale() {
        let ctx = build_context(DblpConfig::tiny(), 3, SplitStrategy::Median, 7);
        assert_eq!(ctx.hierarchy.level_count(), 5);
        assert!(ctx.graph.edge_count() > 0);
    }

    #[test]
    fn thinning_preserves_endpoints_and_refinement() {
        let ctx = build_context(DblpConfig::tiny(), 4, SplitStrategy::Median, 7);
        let thin = thin_hierarchy(&ctx.hierarchy, 2);
        // Finest level kept.
        assert_eq!(
            thin.finest().group_count(),
            ctx.hierarchy.finest().group_count()
        );
        // Coarsest level kept.
        assert_eq!(
            thin.coarsest().group_count(),
            ctx.hierarchy.coarsest().group_count()
        );
        assert!(thin.level_count() < ctx.hierarchy.level_count());
    }

    #[test]
    fn thin_stride_one_is_identity() {
        let ctx = build_context(DblpConfig::tiny(), 3, SplitStrategy::Median, 9);
        let same = thin_hierarchy(&ctx.hierarchy, 1);
        assert_eq!(same.level_count(), ctx.hierarchy.level_count());
    }
}
