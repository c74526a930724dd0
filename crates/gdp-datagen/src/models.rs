//! Random bipartite graph models for tests and baselines.
//!
//! Serial, single-threaded reference generators:
//!
//! * [`erdos_renyi`] — `m` uniform random associations; the "no
//!   structure" null model,
//! * [`preferential_attachment`] — papers attach to authors with
//!   probability proportional to current degree, producing power-law
//!   degrees by a different mechanism than the Zipf generator,
//! * [`zipf_attachment`] — every paper draws a fixed number of authors
//!   by Zipf rank; the serial reference for the streaming
//!   [`crate::engine::ZipfAttachmentStream`],
//! * [`planted_blocks`] — a block model with dense intra-block and sparse
//!   cross-block associations, used to test that specialization recovers
//!   meaningful groups when the data genuinely has them.
//!
//! At experiment scale, prefer the **streaming engine**: the
//! [`GraphModel`] scenario enum (re-exported here from
//! [`crate::engine`]) generates through sharded edge sources and the
//! direct-to-CSR builder — same scenarios at roughly 3× less wall time
//! for the build-bound models at 1M edges (model by model in
//! `BENCH_pipeline.json`'s `datagen_1m` entries). The
//! functions below stay as small, obviously-correct baselines for
//! property tests.

use rand::seq::SliceRandom;
use rand::Rng;

use gdp_graph::{BipartiteGraph, GraphBuilder, LeftId, RightId};

pub use crate::engine::{
    ErdosRenyiStream, GraphModel, PlantedBipartiteStream, ZipfAttachmentStream,
};
use crate::zipf::{spread_rank, ZipfSampler};

/// Generates a uniform random bipartite graph with (up to) `edges`
/// distinct associations over `left × right` nodes.
///
/// Duplicate draws are merged, so the realized edge count can be slightly
/// below `edges` for dense regimes.
///
/// # Panics
///
/// Panics if either side is zero.
pub fn erdos_renyi<R: Rng + ?Sized>(
    rng: &mut R,
    left: u32,
    right: u32,
    edges: usize,
) -> BipartiteGraph {
    assert!(left > 0 && right > 0, "sides must be non-empty");
    let mut builder = GraphBuilder::with_capacity(left, right, edges);
    for _ in 0..edges {
        let l = rng.gen_range(0..left);
        let r = rng.gen_range(0..right);
        builder
            .add_edge(LeftId::new(l), RightId::new(r))
            .expect("sampled in range");
    }
    builder.build()
}

/// Generates a bipartite preferential-attachment graph: papers (right
/// nodes) arrive one at a time and draw `per_right` authors, each chosen
/// with probability proportional to `degree + 1` (the +1 smoothing lets
/// zero-degree authors be discovered).
///
/// # Panics
///
/// Panics if either side is zero or `per_right` is zero.
pub fn preferential_attachment<R: Rng + ?Sized>(
    rng: &mut R,
    left: u32,
    right: u32,
    per_right: u32,
) -> BipartiteGraph {
    assert!(left > 0 && right > 0, "sides must be non-empty");
    assert!(per_right > 0, "per_right must be positive");
    let mut builder =
        GraphBuilder::with_capacity(left, right, (right as usize) * per_right as usize);
    // The repeated-endpoints urn: each edge pushes its left endpoint once;
    // sampling from the urn (plus uniform smoothing) is degree-proportional.
    let mut urn: Vec<u32> = Vec::with_capacity((right as usize) * per_right as usize);
    for r in 0..right {
        for _ in 0..per_right {
            // Smoothing: with probability 1/(1+|urn|/left) pick uniformly.
            let uniform_weight = left as f64;
            let total = uniform_weight + urn.len() as f64;
            let l = if rng.gen::<f64>() * total < uniform_weight || urn.is_empty() {
                rng.gen_range(0..left)
            } else {
                *urn.choose(rng).expect("urn non-empty")
            };
            builder
                .add_edge(LeftId::new(l), RightId::new(r))
                .expect("sampled in range");
            urn.push(l);
        }
    }
    builder.build()
}

/// Generates a bipartite Zipf-attachment graph serially: each right
/// node (paper) draws `per_right` left partners (authors) by Zipf rank
/// over the left side, spread across ids with [`spread_rank`].
///
/// The distributional sibling of the streaming
/// [`crate::engine::ZipfAttachmentStream`] — same per-edge law, one
/// thread, incremental builder; kept as the reference for statistical
/// tests.
///
/// # Panics
///
/// Panics if either side or `per_right` is zero, or `exponent` is not
/// finite and positive.
pub fn zipf_attachment<R: Rng + ?Sized>(
    rng: &mut R,
    left: u32,
    right: u32,
    per_right: u32,
    exponent: f64,
) -> BipartiteGraph {
    assert!(left > 0 && right > 0, "sides must be non-empty");
    assert!(per_right > 0, "per_right must be positive");
    let sampler =
        ZipfSampler::new(left as u64, exponent).expect("exponent must be finite and positive");
    let mut builder = GraphBuilder::with_capacity(left, right, right as usize * per_right as usize);
    for r in 0..right {
        for _ in 0..per_right {
            let rank = sampler.sample(rng);
            let l = spread_rank(rank - 1, left as u64) as u32;
            builder
                .add_edge(LeftId::new(l), RightId::new(r))
                .expect("sampled in range");
        }
    }
    builder.build()
}

/// Generates a planted block model: `blocks` equal-sized groups on each
/// side; each left node draws `per_left` associations, each landing
/// inside its own block's right-side partner with probability
/// `intra_prob` and uniformly elsewhere otherwise.
///
/// # Panics
///
/// Panics if any parameter is zero, `blocks` exceeds either side, or
/// `intra_prob` is outside `[0, 1]`.
pub fn planted_blocks<R: Rng + ?Sized>(
    rng: &mut R,
    left: u32,
    right: u32,
    blocks: u32,
    per_left: u32,
    intra_prob: f64,
) -> BipartiteGraph {
    assert!(left > 0 && right > 0 && blocks > 0 && per_left > 0);
    assert!(blocks <= left && blocks <= right, "more blocks than nodes");
    assert!((0.0..=1.0).contains(&intra_prob));
    let mut builder = GraphBuilder::with_capacity(left, right, (left * per_left) as usize);
    for l in 0..left {
        let block = l % blocks;
        for _ in 0..per_left {
            let r = if rng.gen::<f64>() < intra_prob {
                // A uniformly random right node of the same block.
                let per_block = right / blocks + u32::from(block < right % blocks);
                let offset = rng.gen_range(0..per_block);
                block + offset * blocks
            } else {
                rng.gen_range(0..right)
            };
            builder
                .add_edge(LeftId::new(l), RightId::new(r.min(right - 1)))
                .expect("sampled in range");
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_graph::{GraphStats, Side, SidePartition};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn erdos_renyi_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = erdos_renyi(&mut rng, 100, 200, 1_000);
        assert_eq!(g.left_count(), 100);
        assert_eq!(g.right_count(), 200);
        // Collisions merge; realized count near but ≤ requested.
        assert!(g.edge_count() <= 1_000);
        assert!(g.edge_count() > 900);
    }

    #[test]
    fn erdos_renyi_is_unstructured() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = erdos_renyi(&mut rng, 500, 500, 5_000);
        let stats = GraphStats::compute(&g);
        // Uniform model: max degree stays within a small factor of mean.
        assert!(
            (stats.max_left_degree as f64) < 6.0 * stats.mean_left_degree,
            "max {} mean {}",
            stats.max_left_degree,
            stats.mean_left_degree
        );
    }

    #[test]
    fn preferential_attachment_is_skewed() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = preferential_attachment(&mut rng, 2_000, 10_000, 3);
        let stats = GraphStats::compute(&g);
        assert!(
            stats.max_left_degree as f64 > 8.0 * stats.mean_left_degree,
            "expected skew: max {} mean {}",
            stats.max_left_degree,
            stats.mean_left_degree
        );
    }

    #[test]
    fn planted_blocks_have_intra_block_mass() {
        let mut rng = StdRng::seed_from_u64(4);
        let blocks = 4u32;
        let g = planted_blocks(&mut rng, 400, 400, blocks, 5, 0.9);
        // Group nodes by planted block and verify intra-block dominance.
        let assign_left: Vec<u32> = (0..400).map(|l| l % blocks).collect();
        let assign_right: Vec<u32> = (0..400).map(|r| r % blocks).collect();
        let pl = SidePartition::new(Side::Left, assign_left, blocks).unwrap();
        let pr = SidePartition::new(Side::Right, assign_right, blocks).unwrap();
        let pc = gdp_graph::PairCounts::compute(&g, &pl, &pr);
        let mut intra = 0u64;
        for b in 0..blocks {
            intra += pc.get(b, b);
        }
        let frac = intra as f64 / pc.total() as f64;
        assert!(frac > 0.8, "intra fraction {frac}");
    }

    #[test]
    fn zipf_attachment_serial_is_skewed_and_bounded() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = zipf_attachment(&mut rng, 1_000, 5_000, 3, 1.1);
        assert_eq!(g.right_count(), 5_000);
        let stats = GraphStats::compute(&g);
        assert!(stats.max_right_degree <= 3);
        assert!(
            stats.max_left_degree as f64 > 8.0 * stats.mean_left_degree,
            "max {} mean {}",
            stats.max_left_degree,
            stats.mean_left_degree
        );
    }

    #[test]
    fn models_are_deterministic_per_seed() {
        let a = erdos_renyi(&mut StdRng::seed_from_u64(7), 50, 50, 200);
        let b = erdos_renyi(&mut StdRng::seed_from_u64(7), 50, 50, 200);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "sides must be non-empty")]
    fn zero_side_rejected() {
        erdos_renyi(&mut StdRng::seed_from_u64(0), 0, 10, 5);
    }
}
