//! The specializer against its reference: the per-block sort and
//! `split_off` algorithm that `Specializer` replaced with ranges of one
//! (degree, id) order per side, kept here as the equivalence oracle.

use proptest::prelude::*;

use gdp_core::scoring::cut_utilities_naive;
use gdp_core::{
    CoreError, GroupHierarchy, GroupLevel, SpecializationConfig, Specializer, SplitStrategy,
};
use gdp_graph::{BipartiteGraph, GraphBuilder, LeftId, RightId, Side, SidePartition};
use gdp_mechanisms::{Epsilon, ExponentialMechanism, L1Sensitivity};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Phase 1 as blocks of node ids: every round sorts each block of ≥ 2
/// nodes by (degree, id), scores its cuts by rescanning its members,
/// and moves the tail out with `split_off`. The hierarchy is built from
/// per-level assignments through `GroupHierarchy::new`, which checks
/// the refinement chain. Same RNG convention as `Specializer`: one
/// `StdRng` per splittable block, seeded from `rng` in block order,
/// left side then right side, every round.
fn specialize_reference<R: Rng + ?Sized>(
    config: &SpecializationConfig,
    graph: &BipartiteGraph,
    rng: &mut R,
) -> Result<GroupHierarchy, CoreError> {
    let (nl, nr) = (graph.left_count(), graph.right_count());
    if nl == 0 || nr == 0 {
        return Err(CoreError::GraphTooSmall("empty side".to_string()));
    }
    let degrees = [graph.left_degrees(), graph.right_degrees()];
    let delta_u = graph.max_degree().max(1) as f64;
    let per_round_eps = Epsilon::new(config.epsilon.get() / config.rounds as f64)?;
    let mut blocks: [Vec<Vec<u32>>; 2] = [vec![(0..nl).collect()], vec![(0..nr).collect()]];
    let mut levels = vec![level_from_blocks(&blocks, nl, nr)?];
    for _ in 0..config.rounds {
        for (side, degrees) in blocks.iter_mut().zip(&degrees) {
            let mut split = Vec::with_capacity(side.len() * 2);
            for mut block in std::mem::take(side) {
                if block.len() < 2 {
                    split.push(block);
                    continue;
                }
                let mut block_rng = StdRng::seed_from_u64(rng.gen::<u64>());
                block.sort_unstable_by_key(|&n| (degrees[n as usize], n));
                let cut = choose_cut(
                    config,
                    &block,
                    degrees,
                    delta_u,
                    per_round_eps,
                    &mut block_rng,
                )?;
                let tail = block.split_off(cut);
                split.push(block);
                split.push(tail);
            }
            *side = split;
        }
        levels.push(level_from_blocks(&blocks, nl, nr)?);
    }
    levels.push(GroupLevel::new(
        SidePartition::singletons(Side::Left, nl),
        SidePartition::singletons(Side::Right, nr),
    )?);
    levels.reverse();
    GroupHierarchy::new(levels)
}

fn choose_cut<R: Rng + ?Sized>(
    config: &SpecializationConfig,
    block: &[u32],
    degrees: &[u32],
    delta_u: f64,
    per_round_eps: Epsilon,
    rng: &mut R,
) -> Result<usize, CoreError> {
    let candidates = candidate_positions(block.len(), config.max_candidates);
    let utilities = match config.strategy {
        SplitStrategy::Random => return Ok(candidates[rng.gen_range(0..candidates.len())]),
        SplitStrategy::Median | SplitStrategy::Exponential => {
            cut_utilities_naive(block, degrees, &candidates)
        }
    };
    let idx = match config.strategy {
        SplitStrategy::Median => utilities
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("candidates non-empty"),
        _ => ExponentialMechanism::new(per_round_eps, L1Sensitivity::new(delta_u)?)?
            .select(&utilities, rng)?,
    };
    Ok(candidates[idx])
}

/// Evenly spaced cuts in `1..len`, at most `max`, deduplicated through
/// a set as the specializer once did.
fn candidate_positions(len: usize, max: usize) -> Vec<usize> {
    let available = len - 1;
    let take = available.min(max.max(1));
    (1..=take)
        .map(|i| 1 + (i - 1) * available / take)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect()
}

fn level_from_blocks(
    blocks: &[Vec<Vec<u32>>; 2],
    nl: u32,
    nr: u32,
) -> Result<GroupLevel, CoreError> {
    let partition = |side, blocks: &[Vec<u32>], n: u32| {
        let mut assignment = vec![0u32; n as usize];
        for (b, members) in blocks.iter().enumerate() {
            for &m in members {
                assignment[m as usize] = b as u32;
            }
        }
        SidePartition::new(side, assignment, blocks.len() as u32)
    };
    GroupLevel::new(
        partition(Side::Left, &blocks[0], nl)?,
        partition(Side::Right, &blocks[1], nr)?,
    )
}

/// Random graphs with tied degrees and isolated nodes (few edges over
/// many nodes), and often a side of only 1–3 nodes.
fn graph_strategy() -> impl Strategy<Value = BipartiteGraph> {
    (0u8..3, 1u32..40, 0u8..3, 1u32..40)
        .prop_map(|(small_l, nl, small_r, nr)| {
            let side = |small: u8, n: u32| if small == 0 { 1 + n % 3 } else { n };
            (side(small_l, nl), side(small_r, nr))
        })
        .prop_flat_map(|(nl, nr)| {
            let edges = proptest::collection::vec((0..nl, 0..nr), 0..120);
            (Just(nl), Just(nr), edges)
        })
        .prop_map(|(nl, nr, edges)| {
            let mut b = GraphBuilder::new(nl, nr);
            for (l, r) in edges {
                b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn specializer_matches_the_reference(
        graph in graph_strategy(),
        rounds in 1u32..9,
        max_candidates in 1usize..71,
        strategy_pick in 0u8..3,
        eps in 0.05f64..4.0,
        seed in 0u64..10_000,
    ) {
        let strategy = [SplitStrategy::Exponential, SplitStrategy::Median, SplitStrategy::Random]
            [strategy_pick as usize];
        let config = SpecializationConfig {
            rounds,
            strategy,
            epsilon: Epsilon::new(eps).unwrap(),
            max_candidates,
        };
        let mut fast_rng = StdRng::seed_from_u64(seed);
        let mut reference_rng = StdRng::seed_from_u64(seed);
        let fast = Specializer::new(config).specialize(&graph, &mut fast_rng).unwrap();
        let reference = specialize_reference(&config, &graph, &mut reference_rng).unwrap();
        prop_assert_eq!(fast.levels(), reference.levels());
        prop_assert_eq!(fast.block_maps(), reference.block_maps());
        // The same number of draws was taken from the master generator.
        prop_assert_eq!(fast_rng, reference_rng);
    }
}

#[test]
fn reference_agrees_on_a_skewed_graph_deeper_than_its_sides() {
    // 12 rounds over 300 + 40 nodes: the left side saturates at
    // singletons, and hub degrees tie across many nodes.
    let mut b = GraphBuilder::new(300, 40);
    for l in 0..300u32 {
        for k in 0..(1 + l % 5) {
            b.add_edge(LeftId::new(l), RightId::new((l * 3 + k * 7) % 40))
                .unwrap();
        }
    }
    let graph = b.build();
    for strategy in [
        SplitStrategy::Exponential,
        SplitStrategy::Median,
        SplitStrategy::Random,
    ] {
        let config = SpecializationConfig {
            strategy,
            ..SpecializationConfig::paper_default(12).unwrap()
        };
        let mut fast_rng = StdRng::seed_from_u64(301);
        let mut reference_rng = StdRng::seed_from_u64(301);
        let fast = Specializer::new(config)
            .specialize(&graph, &mut fast_rng)
            .unwrap();
        let reference = specialize_reference(&config, &graph, &mut reference_rng).unwrap();
        assert_eq!(fast, reference, "{strategy:?}");
        assert_eq!(fast.block_maps(), reference.block_maps(), "{strategy:?}");
        assert_eq!(fast_rng, reference_rng, "{strategy:?}");
    }
}
