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
//! The hot path is cut-candidate scoring, isolated in [`scoring`] with
//! a naive reference implementation kept alongside the production
//! prefix-sum scorer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use gdp_graph::{BipartiteGraph, Side, SidePartition};
use gdp_mechanisms::{Epsilon, ExponentialMechanism, L1Sensitivity, PrivacyBudget};

use crate::error::CoreError;
use crate::hierarchy::{GroupHierarchy, GroupLevel};
use crate::Result;

use scoring::cut_utilities;
#[cfg(any(test, debug_assertions))]
use scoring::cut_utilities_naive;

/// Cut-candidate scoring for one block split — the Phase-1 inner loop.
///
/// The utility of cutting an ordered block at position `c` is
/// `u(c) = −|mass(block[..c]) − mass(block[c..])|` where mass is the
/// incident-association count — balanced cuts score highest. These
/// utilities feed the exponential mechanism, so they must be computed
/// for *every* candidate of *every* split of *every* round: at 100k
/// edges / 64 candidates the prefix-sum scorer ([`cut_utilities`]) runs
/// ~22× faster than the naive per-candidate rescan
/// ([`cut_utilities_naive`]), which survives as the bit-exact
/// equivalence baseline (the same two-path convention as
/// [`gdp_graph::PairCounts::compute`] / `compute_naive`).
///
/// ```
/// use gdp_core::scoring::{cut_utilities, cut_utilities_naive};
///
/// let block = [0u32, 1, 2, 3];       // member node ids, mass-ordered
/// let degrees = [1u32, 2, 3, 6];     // per-node incident associations
/// let candidates = [1usize, 2, 3];   // cut positions to score
/// let fast = cut_utilities(&block, &degrees, &candidates);
/// assert_eq!(fast, cut_utilities_naive(&block, &degrees, &candidates));
/// // Cutting at 3 balances mass 6 | 6 — the best (highest) utility.
/// assert_eq!(fast[2], 0.0);
/// ```
pub mod scoring {
    /// Scores every candidate cut with a **one-pass prefix sum** of
    /// per-member association mass: `O(members + candidates)` per split
    /// instead of the naive `O(candidates × members)` rescan. This is
    /// the production scorer.
    ///
    /// Accumulation order matches [`cut_utilities_naive`] exactly
    /// (left-to-right over members), so the two scorers agree
    /// bit-for-bit — a property the `gdp-core` property suite pins down.
    pub fn cut_utilities(block: &[u32], degrees: &[u32], candidates: &[usize]) -> Vec<f64> {
        let mut prefix = Vec::with_capacity(block.len() + 1);
        let mut acc = 0.0f64;
        prefix.push(0.0);
        for &n in block {
            acc += degrees[n as usize] as f64;
            prefix.push(acc);
        }
        let total = acc;
        candidates
            .iter()
            .map(|&c| -(prefix[c] - (total - prefix[c])).abs())
            .collect()
    }

    /// Reference scorer that recomputes each candidate's prefix mass
    /// from scratch: `O(candidates × members)`. Kept for equivalence
    /// checks (debug assertions and property tests) and as the baseline
    /// `bench_pipeline`'s `scorer_100k` entry measures the prefix-sum
    /// scorer against. Not used on the production path.
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
        let left_degrees: Vec<u32> = graph.left_degrees();
        let right_degrees: Vec<u32> = graph.right_degrees();
        // Conservative utility sensitivity: one adjacency step moves at
        // most one node's whole mass across the cut.
        let delta_u = graph.max_degree().max(1) as f64;
        let per_round_eps = Epsilon::new(self.config.epsilon.get() / self.config.rounds as f64)?;

        let mut left_blocks: Vec<Vec<u32>> = vec![(0..nl).collect()];
        let mut right_blocks: Vec<Vec<u32>> = vec![(0..nr).collect()];

        // Coarsest level first; we reverse at the end.
        let mut levels_coarse_first: Vec<GroupLevel> =
            vec![level_from_blocks(&left_blocks, nl, &right_blocks, nr)?];

        for _ in 0..self.config.rounds {
            left_blocks =
                self.split_side(left_blocks, &left_degrees, delta_u, per_round_eps, rng)?;
            right_blocks =
                self.split_side(right_blocks, &right_degrees, delta_u, per_round_eps, rng)?;
            levels_coarse_first.push(level_from_blocks(&left_blocks, nl, &right_blocks, nr)?);
        }

        // Individual level 0: every node its own group.
        levels_coarse_first.push(GroupLevel::new(
            SidePartition::singletons(Side::Left, nl),
            SidePartition::singletons(Side::Right, nr),
        )?);

        levels_coarse_first.reverse();
        GroupHierarchy::new(levels_coarse_first)
    }

    /// Splits every block of one side (blocks of < 2 nodes pass through).
    ///
    /// Blocks within a round are **disjoint**, so by the paper's
    /// parallel-composition argument their splits are independent.
    /// Each splittable block gets its own seeded [`StdRng`] stream,
    /// seeded from the master generator *in block order*, so a block's
    /// draws never depend on how many draws another block's split took
    /// (see `docs/determinism.md`).
    fn split_side<R: Rng + ?Sized>(
        &self,
        blocks: Vec<Vec<u32>>,
        degrees: &[u32],
        delta_u: f64,
        per_round_eps: Epsilon,
        rng: &mut R,
    ) -> Result<Vec<Vec<u32>>> {
        let mut split = Vec::with_capacity(blocks.len() * 2);
        for mut block in blocks {
            if block.len() < 2 {
                split.push(block);
                continue;
            }
            let mut block_rng = StdRng::seed_from_u64(rng.gen::<u64>());
            // Order by (degree, id) so prefix cuts trade off mass
            // smoothly.
            block.sort_unstable_by_key(|&n| (degrees[n as usize], n));
            let cut = self.choose_cut(&block, degrees, delta_u, per_round_eps, &mut block_rng)?;
            let tail = block.split_off(cut);
            split.push(block);
            split.push(tail);
        }
        Ok(split)
    }

    /// Chooses the cut position in `1..block.len()` per the strategy.
    fn choose_cut<R: Rng + ?Sized>(
        &self,
        block: &[u32],
        degrees: &[u32],
        delta_u: f64,
        per_round_eps: Epsilon,
        rng: &mut R,
    ) -> Result<usize> {
        let candidates = candidate_positions(block.len(), self.config.max_candidates);
        match self.config.strategy {
            SplitStrategy::Random => {
                let idx = rng.gen_range(0..candidates.len());
                Ok(candidates[idx])
            }
            SplitStrategy::Median | SplitStrategy::Exponential => {
                let utilities = cut_utilities(block, degrees, &candidates);
                // Debug path: the prefix-sum scorer must agree with the
                // naive rescan exactly (bounded so debug builds stay
                // usable on large graphs).
                #[cfg(debug_assertions)]
                if block.len() <= 4096 {
                    debug_assert_eq!(
                        utilities,
                        cut_utilities_naive(block, degrees, &candidates),
                        "prefix-sum scorer diverged from naive scorer"
                    );
                }
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

/// Evenly spaced candidate cut positions in `1..len`, at most `max`.
fn candidate_positions(len: usize, max: usize) -> Vec<usize> {
    debug_assert!(len >= 2);
    let available = len - 1; // cuts at 1..=len-1
    let take = available.min(max.max(1));
    (1..=take)
        .map(|i| 1 + (i - 1) * available / take)
        .collect::<Vec<_>>()
        .into_iter()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect()
}

/// Builds a [`GroupLevel`] from explicit block membership lists.
fn level_from_blocks(
    left_blocks: &[Vec<u32>],
    nl: u32,
    right_blocks: &[Vec<u32>],
    nr: u32,
) -> Result<GroupLevel> {
    GroupLevel::new(
        partition_from_blocks(Side::Left, left_blocks, nl)?,
        partition_from_blocks(Side::Right, right_blocks, nr)?,
    )
}

fn partition_from_blocks(side: Side, blocks: &[Vec<u32>], n: u32) -> Result<SidePartition> {
    let mut assignment = vec![0u32; n as usize];
    for (b, members) in blocks.iter().enumerate() {
        for &m in members {
            assignment[m as usize] = b as u32;
        }
    }
    Ok(SidePartition::new(side, assignment, blocks.len() as u32)?)
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
            // GroupHierarchy::new validated refinement internally.
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
    fn prefix_scorer_matches_naive_bitwise() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let n = rng.gen_range(2usize..300);
            let degrees: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..40)).collect();
            let mut block: Vec<u32> = (0..n as u32).collect();
            block.sort_unstable_by_key(|&i| (degrees[i as usize], i));
            let candidates = candidate_positions(n, 64);
            let fast = cut_utilities(&block, &degrees, &candidates);
            let naive = cut_utilities_naive(&block, &degrees, &candidates);
            assert_eq!(fast, naive, "scorers diverged at n={n}");
        }
    }

    #[test]
    fn prefix_scorer_prefers_balanced_cut() {
        // Uniform degrees: the midpoint cut is optimal.
        let degrees = vec![2u32; 10];
        let block: Vec<u32> = (0..10).collect();
        let candidates: Vec<usize> = (1..10).collect();
        let utilities = cut_utilities(&block, &degrees, &candidates);
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
