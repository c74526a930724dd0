//! Phase 1 of the paper's pipeline: **private specialization** of the
//! bipartite graph into a multi-level [`GroupHierarchy`].
//!
//! Starting from one all-encompassing group per side, each round splits
//! every block in two via the exponential mechanism (or the median /
//! random baselines of [`SplitStrategy`]), spending a per-round share
//! of the Phase-1 budget. Each block split draws from its own seeded
//! `StdRng` stream, seeded in block order from the master RNG (the
//! workspace determinism convention — see `docs/determinism.md`).
//!
//! Each side is ordered once, by (degree, id). A cut of an ordered
//! block leaves two ordered halves, so every block of every round is a
//! range of that one order, and a round only replaces each range by its
//! two halves. The hot path is cut-candidate scoring, isolated in
//! [`scoring`] with a naive reference implementation kept alongside the
//! production range scorer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use gdp_graph::{BipartiteGraph, Side, SidePartition};
use gdp_mechanisms::{Epsilon, ExponentialMechanism, L1Sensitivity, PrivacyBudget};

use crate::error::CoreError;
use crate::hierarchy::{GroupHierarchy, GroupLevel};
use crate::Result;

#[cfg(test)]
use scoring::cut_utilities_naive;
use scoring::{cut_utilities, prefix_masses};

/// Cut-candidate scoring for one block split — the Phase-1 inner loop.
///
/// The utility of cutting an ordered block at position `c` is
/// `u(c) = −|mass(block[..c]) − mass(block[c..])|` where mass is the
/// incident-association count — balanced cuts score highest. These
/// utilities feed the exponential mechanism, so they must be computed
/// for *every* candidate of *every* split of *every* round.
///
/// A side's cumulative mass over its (degree, id) order
/// ([`prefix_masses`]) is built once per specialization; a block is a
/// range `[s, e)` of that order, and [`cut_utilities`] scores it from
/// the slice `prefix[s..=e]` in `O(candidates)`. The naive
/// per-candidate rescan ([`cut_utilities_naive`]) survives as the
/// bit-exact equivalence baseline (the same two-path convention as
/// [`gdp_graph::PairCounts::compute`] / `compute_naive`).
///
/// ```
/// use gdp_core::scoring::{cut_utilities, cut_utilities_naive, prefix_masses};
///
/// let order = [0u32, 1, 2, 3, 4];    // node ids in (degree, id) order
/// let degrees = [1u32, 2, 3, 6, 9];  // per-node incident associations
/// let prefix = prefix_masses(&order, &degrees);
/// // The block holding order[0..4], scored at cuts 1, 2 and 3.
/// let candidates = [1usize, 2, 3];
/// let fast = cut_utilities(&prefix[0..=4], &candidates);
/// assert_eq!(fast, cut_utilities_naive(&order[0..4], &degrees, &candidates));
/// // Cutting at 3 balances mass 6 | 6 — the best (highest) utility.
/// assert_eq!(fast[2], 0.0);
/// ```
pub mod scoring {
    /// The cumulative mass of `order`: entry `i` is the summed degree of
    /// `order[..i]`, so the result has `order.len() + 1` entries.
    ///
    /// Every partial sum is an integer at most the side's edge count,
    /// far below 2⁵³, so each entry — and each difference of two
    /// entries — is exact in f64.
    pub fn prefix_masses(order: &[u32], degrees: &[u32]) -> Vec<f64> {
        let mut prefix = Vec::with_capacity(order.len() + 1);
        let mut acc = 0.0f64;
        prefix.push(acc);
        for &n in order {
            acc += degrees[n as usize] as f64;
            prefix.push(acc);
        }
        prefix
    }

    /// Scores every candidate cut of one block from its slice
    /// `prefix[s..=e]` of the side's cumulative mass: `O(candidates)`
    /// per split instead of the naive `O(candidates × members)`
    /// rescan. This is the production scorer.
    ///
    /// The masses `x = prefix[s + c] − prefix[s]` and
    /// `T = prefix[e] − prefix[s]` are the exact integers a left-to-right
    /// sum over the block's members gives, so the scores agree
    /// bit-for-bit with [`cut_utilities_naive`] — a property the
    /// `gdp-core` property suite pins down.
    pub fn cut_utilities(prefix: &[f64], candidates: &[usize]) -> Vec<f64> {
        let base = prefix[0];
        let total = prefix[prefix.len() - 1] - base;
        candidates
            .iter()
            .map(|&c| {
                let x = prefix[c] - base;
                -(x - (total - x)).abs()
            })
            .collect()
    }

    /// Reference scorer that recomputes each candidate's prefix mass
    /// from scratch over the block's members: `O(candidates ×
    /// members)`. Kept for equivalence checks (unit, property and
    /// reference-specializer tests) and as the baseline `bench_pipeline`'s
    /// `scorer_100k` entry measures the range scorer against. Not used
    /// on the production path.
    pub fn cut_utilities_naive(block: &[u32], degrees: &[u32], candidates: &[usize]) -> Vec<f64> {
        candidates
            .iter()
            .map(|&c| {
                let mut prefix = 0.0f64;
                for &n in &block[..c] {
                    prefix += degrees[n as usize] as f64;
                }
                let mut total = 0.0f64;
                for &n in block {
                    total += degrees[n as usize] as f64;
                }
                -(prefix - (total - prefix)).abs()
            })
            .collect()
    }
}

/// How a group is cut in two during specialization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SplitStrategy {
    /// The paper's choice: pick the cut position through the
    /// **exponential mechanism**, scoring each candidate by how evenly it
    /// balances the two halves' association mass. Consumes privacy
    /// budget (`SpecializationConfig::epsilon`).
    Exponential,
    /// Non-private baseline: always the most mass-balanced cut.
    Median,
    /// Non-private baseline: a uniformly random cut.
    Random,
}

/// Configuration of Phase 1 (hierarchy specialization).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpecializationConfig {
    /// Number of binary-split rounds. The resulting hierarchy has
    /// `rounds + 2` levels: the coarsest whole-dataset level, one level
    /// per round, and the individual (singleton) level 0 — matching the
    /// paper's `L = rounds + 1`-style numbering where each group splits
    /// into 4 subgroups (2 left + 2 right) per round.
    pub rounds: u32,
    /// The split strategy.
    pub strategy: SplitStrategy,
    /// Total Phase-1 privacy budget (pure `ε`; the exponential mechanism
    /// consumes no `δ`). Each round spends `ε / rounds`; within a round
    /// the blocks are disjoint, so by **parallel composition** the round
    /// costs one split's budget regardless of how many blocks split.
    ///
    /// Ignored by the non-private strategies.
    pub epsilon: Epsilon,
    /// Maximum number of candidate cut positions evaluated per split
    /// (evenly spaced). Bounds the exponential mechanism's candidate set
    /// on huge groups.
    pub max_candidates: usize,
}

impl SpecializationConfig {
    /// The paper's configuration shape: exponential-mechanism splits, a
    /// unit Phase-1 budget, and 64 candidate cuts.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `rounds == 0`.
    pub fn paper_default(rounds: u32) -> Result<Self> {
        if rounds == 0 {
            return Err(CoreError::InvalidConfig(
                "specialization needs at least one round".to_string(),
            ));
        }
        Ok(Self {
            rounds,
            strategy: SplitStrategy::Exponential,
            epsilon: Epsilon::new(1.0).expect("1.0 is valid"),
            max_candidates: 64,
        })
    }

    /// A non-private median-split configuration (a baseline for the
    /// private split).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `rounds == 0`.
    pub fn median(rounds: u32) -> Result<Self> {
        Ok(Self {
            strategy: SplitStrategy::Median,
            ..Self::paper_default(rounds)?
        })
    }

    /// A random-split configuration (a baseline for the private split).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `rounds == 0`.
    pub fn random(rounds: u32) -> Result<Self> {
        Ok(Self {
            strategy: SplitStrategy::Random,
            ..Self::paper_default(rounds)?
        })
    }

    /// Replaces the Phase-1 budget.
    pub fn with_epsilon(mut self, epsilon: Epsilon) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// The privacy budget Phase 1 will consume under this configuration
    /// (`(ε, 0)` for [`SplitStrategy::Exponential`], `None` for the
    /// non-private baselines).
    pub fn phase1_budget(&self) -> Option<PrivacyBudget> {
        match self.strategy {
            SplitStrategy::Exponential => Some(PrivacyBudget {
                epsilon: self.epsilon,
                delta: gdp_mechanisms::Delta::ZERO,
            }),
            _ => None,
        }
    }
}

/// Phase 1 of the paper's pipeline: recursive, privacy-aware
/// specialization of the node set into a [`GroupHierarchy`].
///
/// Every round, each group of ≥ 2 nodes on each side is cut in two. Nodes
/// within a group are ordered by (degree, id); candidate cut positions
/// are scored by `u(c) = −|mass(prefix) − mass(suffix)|` where mass is
/// the incident-association count, and a cut is selected per
/// [`SplitStrategy`]. Balanced-mass cuts drive the level sensitivities
/// down roughly geometrically — the engine behind Figure 1's level
/// ordering.
///
/// ```
/// use gdp_core::{SpecializationConfig, Specializer};
/// use gdp_datagen::{DblpConfig, DblpGenerator};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), gdp_core::CoreError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
/// let hierarchy = Specializer::new(SpecializationConfig::paper_default(3)?)
///     .specialize(&graph, &mut rng)?;
/// // 3 rounds → 5 levels: singletons, 3 split levels, whole.
/// assert_eq!(hierarchy.level_count(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Specializer {
    config: SpecializationConfig,
}

impl Specializer {
    /// Creates a specializer with the given configuration.
    pub fn new(config: SpecializationConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SpecializationConfig {
        &self.config
    }

    /// Runs specialization, producing a hierarchy of
    /// `config.rounds + 2` levels (finest first).
    ///
    /// # Errors
    ///
    /// * [`CoreError::GraphTooSmall`] if either side is empty.
    /// * Propagates mechanism errors from the exponential mechanism.
    pub fn specialize<R: Rng + ?Sized>(
        &self,
        graph: &BipartiteGraph,
        rng: &mut R,
    ) -> Result<GroupHierarchy> {
        let nl = graph.left_count();
        let nr = graph.right_count();
        if nl == 0 || nr == 0 {
            return Err(CoreError::GraphTooSmall(
                "both sides must be non-empty to specialize".to_string(),
            ));
        }
        // Conservative utility sensitivity: one adjacency step moves at
        // most one node's whole mass across the cut.
        let delta_u = graph.max_degree().max(1) as f64;
        let per_round_eps = Epsilon::new(self.config.epsilon.get() / self.config.rounds as f64)?;

        let mut sides = [
            OrderedSide::new(&graph.left_degrees()),
            OrderedSide::new(&graph.right_degrees()),
        ];
        // `parents[round]` maps each side's blocks after the round to
        // the blocks before it, with their count.
        let mut parents = Vec::with_capacity(self.config.rounds as usize);
        for _ in 0..self.config.rounds {
            let [left, right] = &mut sides;
            parents.push([
                self.split_side(left, delta_u, per_round_eps, rng)?,
                self.split_side(right, delta_u, per_round_eps, rng)?,
            ]);
        }

        // Finest first: the singletons, the node → last-round block
        // map, then each round's parent map, last round first.
        let finest = GroupLevel::new(
            SidePartition::singletons(Side::Left, nl),
            SidePartition::singletons(Side::Right, nr),
        )?;
        let mut coarser = Vec::with_capacity(parents.len() + 1);
        coarser.push(sides.each_ref().map(OrderedSide::node_map));
        coarser.extend(parents.into_iter().rev());
        GroupHierarchy::from_block_maps(finest, coarser)
    }

    /// Splits every block of one side (blocks of < 2 nodes pass
    /// through) and returns the map from the new blocks to the old,
    /// with the old block count.
    ///
    /// Blocks within a round are **disjoint**, so by the paper's
    /// parallel-composition argument their splits are independent.
    /// Each splittable block gets its own seeded [`StdRng`] stream,
    /// seeded from the master generator *in block order*, so a block's
    /// draws never depend on how many draws another block's split took
    /// (see `docs/determinism.md`).
    fn split_side<R: Rng + ?Sized>(
        &self,
        side: &mut OrderedSide,
        delta_u: f64,
        per_round_eps: Epsilon,
        rng: &mut R,
    ) -> Result<(Vec<u32>, u32)> {
        let blocks = side.bounds.len() - 1;
        let mut bounds = Vec::with_capacity(2 * blocks + 1);
        let mut parent = Vec::with_capacity(2 * blocks);
        bounds.push(0);
        for (b, range) in side.bounds.windows(2).enumerate() {
            let (s, e) = (range[0], range[1]);
            if e - s >= 2 {
                let mut block_rng = StdRng::seed_from_u64(rng.gen::<u64>());
                let prefix = &side.prefix[s..=e];
                let cut = self.choose_cut(prefix, delta_u, per_round_eps, &mut block_rng)?;
                bounds.push(s + cut);
                parent.push(b as u32);
            }
            bounds.push(e);
            parent.push(b as u32);
        }
        side.bounds = bounds;
        Ok((parent, blocks as u32))
    }

    /// Chooses the cut position in `1..len` of a block of `len` nodes,
    /// given its slice `prefix` (`len + 1` entries) of the side's
    /// cumulative mass, per the strategy.
    fn choose_cut<R: Rng + ?Sized>(
        &self,
        prefix: &[f64],
        delta_u: f64,
        per_round_eps: Epsilon,
        rng: &mut R,
    ) -> Result<usize> {
        let candidates = candidate_positions(prefix.len() - 1, self.config.max_candidates);
        match self.config.strategy {
            SplitStrategy::Random => {
                let idx = rng.gen_range(0..candidates.len());
                Ok(candidates[idx])
            }
            SplitStrategy::Median | SplitStrategy::Exponential => {
                let utilities = cut_utilities(prefix, &candidates);
                match self.config.strategy {
                    SplitStrategy::Median => {
                        let best = utilities
                            .iter()
                            .enumerate()
                            .max_by(|a, b| a.1.partial_cmp(b.1).expect("utilities are finite"))
                            .map(|(i, _)| i)
                            .expect("candidates non-empty");
                        Ok(candidates[best])
                    }
                    SplitStrategy::Exponential => {
                        let mech =
                            ExponentialMechanism::new(per_round_eps, L1Sensitivity::new(delta_u)?)?;
                        let idx = mech.select(&utilities, rng)?;
                        Ok(candidates[idx])
                    }
                    SplitStrategy::Random => unreachable!("handled above"),
                }
            }
        }
    }
}

/// One side's nodes in (degree, id) order, its cumulative mass over
/// that order, and the current blocks as ranges of it.
struct OrderedSide {
    order: Vec<u32>,
    /// `prefix[i]` is the summed degree of `order[..i]`.
    prefix: Vec<f64>,
    /// Block `b` is `order[bounds[b]..bounds[b + 1]]`; starts as one
    /// block holding the whole side.
    bounds: Vec<usize>,
}

impl OrderedSide {
    fn new(degrees: &[u32]) -> Self {
        let order = degree_order(degrees);
        let prefix = prefix_masses(&order, degrees);
        let bounds = vec![0, order.len()];
        Self {
            order,
            prefix,
            bounds,
        }
    }

    /// The map from each node to its current block, with the block
    /// count.
    fn node_map(&self) -> (Vec<u32>, u32) {
        let mut map = vec![0u32; self.order.len()];
        for (b, range) in self.bounds.windows(2).enumerate() {
            for &node in &self.order[range[0]..range[1]] {
                map[node as usize] = b as u32;
            }
        }
        (map, self.bounds.len() as u32 - 1)
    }
}

/// Node ids ordered by (degree, id), by one counting sort on degree:
/// ids are placed in ascending order, so within a degree they stay
/// ascending. The count array has max-degree + 2 entries, at most the
/// edge count + 2.
fn degree_order(degrees: &[u32]) -> Vec<u32> {
    let max = degrees.iter().copied().max().unwrap_or(0) as usize;
    let mut next = vec![0usize; max + 2];
    for &d in degrees {
        next[d as usize + 1] += 1;
    }
    for d in 1..next.len() {
        next[d] += next[d - 1];
    }
    let mut order = vec![0u32; degrees.len()];
    for (node, &d) in degrees.iter().enumerate() {
        order[next[d as usize]] = node as u32;
        next[d as usize] += 1;
    }
    order
}

/// Evenly spaced candidate cut positions in `1..len`, at most `max`.
/// With `available ≥ take`, consecutive positions differ by at least
/// one, so the list is strictly increasing.
fn candidate_positions(len: usize, max: usize) -> Vec<usize> {
    debug_assert!(len >= 2);
    let available = len - 1; // cuts at 1..=len-1
    let take = available.min(max.max(1));
    (1..=take).map(|i| 1 + (i - 1) * available / take).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_graph::{GraphBuilder, LeftId, RightId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid_graph(nl: u32, nr: u32, per_left: u32) -> BipartiteGraph {
        let mut b = GraphBuilder::new(nl, nr);
        for l in 0..nl {
            for k in 0..per_left {
                let r = (l * 7 + k * 13) % nr;
                b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn produces_expected_level_shape() {
        let g = grid_graph(32, 32, 3);
        let h = Specializer::new(SpecializationConfig::paper_default(3).unwrap())
            .specialize(&g, &mut StdRng::seed_from_u64(1))
            .unwrap();
        assert_eq!(h.level_count(), 5);
        // Coarsest: 1 block per side → 2 groups.
        assert_eq!(h.coarsest().group_count(), 2);
        // One round: 2 blocks per side → 4 groups ("split into 4").
        assert_eq!(h.level(3).unwrap().group_count(), 4);
        assert_eq!(h.level(2).unwrap().group_count(), 8);
        // Finest: singletons.
        assert_eq!(h.finest().group_count(), 64);
    }

    #[test]
    fn all_strategies_produce_valid_hierarchies() {
        let g = grid_graph(40, 24, 2);
        for config in [
            SpecializationConfig::paper_default(4).unwrap(),
            SpecializationConfig::median(4).unwrap(),
            SpecializationConfig::random(4).unwrap(),
        ] {
            let h = Specializer::new(config)
                .specialize(&g, &mut StdRng::seed_from_u64(2))
                .unwrap();
            assert_eq!(h.level_count(), 6, "strategy {:?}", config.strategy);
            // Every level was composed through `coarsen`, so it refines.
            let sens = h.sensitivities(&g);
            for w in sens.windows(2) {
                assert!(w[0] <= w[1], "sensitivity not monotone: {sens:?}");
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g = grid_graph(30, 30, 2);
        let config = SpecializationConfig::paper_default(3).unwrap();
        let a = Specializer::new(config)
            .specialize(&g, &mut StdRng::seed_from_u64(3))
            .unwrap();
        let b = Specializer::new(config)
            .specialize(&g, &mut StdRng::seed_from_u64(3))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn median_splits_balance_mass() {
        let g = grid_graph(64, 64, 4);
        let h = Specializer::new(SpecializationConfig::median(1).unwrap())
            .specialize(&g, &mut StdRng::seed_from_u64(4))
            .unwrap();
        // After one median round, each side's two blocks should hold
        // roughly half the edge mass each.
        let level = h.level(1).unwrap();
        let inc = level.left().incident_edge_counts(&g);
        let total: u64 = inc.iter().sum();
        let frac = inc[0] as f64 / total as f64;
        assert!(
            (0.4..=0.6).contains(&frac),
            "unbalanced median split: {inc:?}"
        );
    }

    #[test]
    fn empty_side_rejected() {
        let g = BipartiteGraph::empty(0, 5);
        let err = Specializer::new(SpecializationConfig::paper_default(2).unwrap())
            .specialize(&g, &mut StdRng::seed_from_u64(5))
            .unwrap_err();
        assert!(matches!(err, CoreError::GraphTooSmall(_)));
    }

    #[test]
    fn zero_rounds_rejected_at_config() {
        assert!(matches!(
            SpecializationConfig::paper_default(0),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn tiny_sides_saturate_gracefully() {
        // 2 left, 2 right nodes but 4 rounds: blocks hit singletons and
        // pass through unchanged.
        let mut b = GraphBuilder::new(2, 2);
        b.add_edge(LeftId::new(0), RightId::new(0)).unwrap();
        b.add_edge(LeftId::new(1), RightId::new(1)).unwrap();
        let g = b.build();
        let h = Specializer::new(SpecializationConfig::median(4).unwrap())
            .specialize(&g, &mut StdRng::seed_from_u64(6))
            .unwrap();
        assert_eq!(h.level_count(), 6);
        // Everything below the first split is singletons already.
        assert_eq!(h.level(1).unwrap().group_count(), 4);
        assert_eq!(h.finest().group_count(), 4);
    }

    #[test]
    fn candidate_positions_respect_cap_and_bounds() {
        let c = candidate_positions(100, 8);
        assert!(c.len() <= 8);
        assert!(c.iter().all(|&p| (1..100).contains(&p)));
        let c = candidate_positions(2, 64);
        assert_eq!(c, vec![1]);
        let c = candidate_positions(5, 64);
        assert_eq!(c, vec![1, 2, 3, 4]);
    }

    #[test]
    fn candidate_positions_strictly_increase_without_dedup() {
        for len in 2..200 {
            for max in [0, 1, 2, 3, 7, 63, 64, 65, 70, 199, 500] {
                let c = candidate_positions(len, max);
                assert_eq!(c.len(), (len - 1).min(max.max(1)), "len {len} max {max}");
                assert!(
                    c.windows(2).all(|w| w[0] < w[1]),
                    "len {len} max {max}: {c:?}"
                );
                assert!(
                    c.iter().all(|p| (1..len).contains(p)),
                    "len {len} max {max}"
                );
            }
        }
    }

    #[test]
    fn degree_order_is_the_degree_id_sort() {
        let mut rng = StdRng::seed_from_u64(8);
        for n in [0usize, 1, 2, 3, 17, 300] {
            let degrees: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..6)).collect();
            let mut sorted: Vec<u32> = (0..n as u32).collect();
            sorted.sort_unstable_by_key(|&i| (degrees[i as usize], i));
            assert_eq!(degree_order(&degrees), sorted, "n={n}");
        }
    }

    #[test]
    fn prefix_scorer_matches_naive_bitwise() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let n = rng.gen_range(2usize..300);
            let degrees: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..40)).collect();
            let order = degree_order(&degrees);
            let prefix = prefix_masses(&order, &degrees);
            // The whole side and a random sub-range of at least 2 nodes.
            let s = rng.gen_range(0..n - 1);
            let e = rng.gen_range(s + 2..=n);
            for (s, e) in [(0, n), (s, e)] {
                let candidates = candidate_positions(e - s, 64);
                let fast = cut_utilities(&prefix[s..=e], &candidates);
                let naive = cut_utilities_naive(&order[s..e], &degrees, &candidates);
                assert_eq!(fast, naive, "scorers diverged at n={n}, [{s}, {e})");
            }
        }
    }

    #[test]
    fn prefix_scorer_prefers_balanced_cut() {
        // Uniform degrees: the midpoint cut is optimal.
        let degrees = vec![2u32; 10];
        let order: Vec<u32> = (0..10).collect();
        let prefix = prefix_masses(&order, &degrees);
        let candidates: Vec<usize> = (1..10).collect();
        let utilities = cut_utilities(&prefix, &candidates);
        let best = utilities
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| candidates[i])
            .unwrap();
        assert_eq!(best, 5);
        assert_eq!(utilities[4], 0.0);
    }

    // The fixed-seed bytes of a full specialization are pinned by the
    // integration suite (`tests/determinism.rs`).

    #[test]
    fn phase1_budget_reporting() {
        let c = SpecializationConfig::paper_default(4).unwrap();
        let b = c.phase1_budget().unwrap();
        assert_eq!(b.epsilon.get(), 1.0);
        assert!(b.delta.is_pure());
        assert!(SpecializationConfig::median(4)
            .unwrap()
            .phase1_budget()
            .is_none());
    }

    #[test]
    fn with_epsilon_overrides_budget() {
        let c = SpecializationConfig::paper_default(2)
            .unwrap()
            .with_epsilon(Epsilon::new(0.25).unwrap());
        assert_eq!(c.epsilon.get(), 0.25);
    }
}
