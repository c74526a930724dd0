//! Query workload generation for utility evaluation.
//!
//! The paper's evaluation uses the global association-count query; a real
//! deployment answers many *subset* count queries ("associations touching
//! this set of authors"). [`CountQueryWorkload`] generates random subset
//! queries with controlled selectivity so utility can be measured across
//! query sizes, and carries the true answers for error computation.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use gdp_graph::{BipartiteGraph, LeftId, Side};

use crate::engine::GraphModel;

/// Generates a scenario graph through the parallel streaming engine and
/// a matching left-side subset workload over it, from one master RNG —
/// the one-call entry point experiments use to evaluate a mechanism on
/// a named model.
///
/// ```
/// use gdp_datagen::engine::GraphModel;
/// use gdp_datagen::workload::generate_with_workload;
/// use rand::SeedableRng;
///
/// let model = GraphModel::ErdosRenyi { left: 200, right: 200, edges: 1_000 };
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let (graph, workload) = generate_with_workload(&model, &mut rng, 25, 8);
/// assert_eq!(workload.len(), 25);
/// assert!(workload.mean_true_answer() <= graph.edge_count() as f64);
/// ```
///
/// # Panics
///
/// Panics if the model parameters are degenerate or `subset_size` is
/// zero or exceeds the generated left side.
pub fn generate_with_workload<R: Rng + ?Sized>(
    model: &GraphModel,
    rng: &mut R,
    queries: usize,
    subset_size: u32,
) -> (BipartiteGraph, CountQueryWorkload) {
    let graph = model.generate(rng);
    let workload = CountQueryWorkload::random_left(rng, &graph, queries, subset_size);
    (graph, workload)
}

/// One subset-count query: the number of associations incident to a set
/// of nodes on one side.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CountQuery {
    /// Which side the subset lives on.
    pub side: Side,
    /// The node indices in the subset (sorted).
    pub nodes: Vec<u32>,
    /// The true answer on the generating graph.
    pub true_answer: u64,
}

/// A batch of subset-count queries with shared selectivity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CountQueryWorkload {
    queries: Vec<CountQuery>,
}

impl CountQueryWorkload {
    /// Generates `count` random left-side subset queries, each selecting
    /// a uniform random subset of `subset_size` left nodes.
    ///
    /// # Panics
    ///
    /// Panics if `subset_size` is zero or exceeds the left side.
    pub fn random_left<R: Rng + ?Sized>(
        rng: &mut R,
        graph: &BipartiteGraph,
        count: usize,
        subset_size: u32,
    ) -> Self {
        assert!(subset_size > 0, "subset size must be positive");
        assert!(subset_size <= graph.left_count(), "subset larger than side");
        let all: Vec<u32> = (0..graph.left_count()).collect();
        let mut queries = Vec::with_capacity(count);
        for _ in 0..count {
            let mut nodes: Vec<u32> = all
                .choose_multiple(rng, subset_size as usize)
                .copied()
                .collect();
            nodes.sort_unstable();
            let true_answer = nodes
                .iter()
                .map(|&l| graph.left_degree(LeftId::new(l)) as u64)
                .sum();
            queries.push(CountQuery {
                side: Side::Left,
                nodes,
                true_answer,
            });
        }
        Self { queries }
    }

    /// The generated queries.
    pub fn queries(&self) -> &[CountQuery] {
        &self.queries
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Mean true answer across the workload (0 for an empty workload).
    pub fn mean_true_answer(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries
            .iter()
            .map(|q| q.true_answer as f64)
            .sum::<f64>()
            / self.queries.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_graph::{GraphBuilder, RightId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph() -> BipartiteGraph {
        let mut b = GraphBuilder::new(10, 10);
        for l in 0..10u32 {
            for r in 0..=(l % 3) {
                b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn workload_has_requested_shape() {
        let g = graph();
        let w = CountQueryWorkload::random_left(&mut StdRng::seed_from_u64(1), &g, 20, 4);
        assert_eq!(w.len(), 20);
        assert!(!w.is_empty());
        for q in w.queries() {
            assert_eq!(q.nodes.len(), 4);
            assert_eq!(q.side, Side::Left);
            // Sorted, unique, in range.
            for pair in q.nodes.windows(2) {
                assert!(pair[0] < pair[1]);
            }
            assert!(q.nodes.iter().all(|&n| n < 10));
        }
    }

    #[test]
    fn true_answers_match_degree_sums() {
        let g = graph();
        let w = CountQueryWorkload::random_left(&mut StdRng::seed_from_u64(2), &g, 5, 3);
        for q in w.queries() {
            let want: u64 = q
                .nodes
                .iter()
                .map(|&l| g.left_degree(LeftId::new(l)) as u64)
                .sum();
            assert_eq!(q.true_answer, want);
        }
    }

    #[test]
    fn full_subset_answer_is_edge_count() {
        let g = graph();
        let w = CountQueryWorkload::random_left(&mut StdRng::seed_from_u64(3), &g, 1, 10);
        assert_eq!(w.queries()[0].true_answer, g.edge_count());
    }

    #[test]
    #[should_panic(expected = "subset larger than side")]
    fn oversized_subset_rejected() {
        let g = graph();
        CountQueryWorkload::random_left(&mut StdRng::seed_from_u64(4), &g, 1, 11);
    }

    #[test]
    fn model_workload_is_deterministic_and_well_formed() {
        let model = GraphModel::PlantedBlocks {
            left: 100,
            right: 100,
            blocks: 4,
            per_left: 5,
            intra_prob: 0.8,
        };
        let (ga, wa) = generate_with_workload(&model, &mut StdRng::seed_from_u64(7), 10, 6);
        let (gb, wb) = generate_with_workload(&model, &mut StdRng::seed_from_u64(7), 10, 6);
        assert_eq!(ga, gb);
        assert_eq!(wa, wb);
        for q in wa.queries() {
            let want: u64 = q
                .nodes
                .iter()
                .map(|&l| ga.left_degree(LeftId::new(l)) as u64)
                .sum();
            assert_eq!(q.true_answer, want);
        }
    }

    #[test]
    fn mean_true_answer() {
        let g = graph();
        let w = CountQueryWorkload::random_left(&mut StdRng::seed_from_u64(5), &g, 50, 5);
        let direct: f64 = w
            .queries()
            .iter()
            .map(|q| q.true_answer as f64)
            .sum::<f64>()
            / 50.0;
        assert!((w.mean_true_answer() - direct).abs() < 1e-12);
    }
}
