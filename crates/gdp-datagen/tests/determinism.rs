//! Fixed-seed bytes of the streaming datagen engine.
//!
//! Every streaming model draws per-shard `StdRng` streams whose seeds
//! come in shard order from the master generator, with a shard count
//! that is a function of the workload alone — so a fixed seed fixes the
//! graph. This file pins each model's bytes, and checks that the
//! streaming path equals replaying the same shards through the
//! incremental builder.
//!
//! The digests were recorded when the shards and the transpose scatter
//! still fanned out over a thread pool, at one and at two threads, and
//! the two agreed. The thread-count test names are kept from then.

use gdp_datagen::engine::{self, GraphModel, PlantedBipartiteStream};
use gdp_graph::io::{write_edge_list, xxh64};
use gdp_graph::{BipartiteGraph, RightId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Scenario models sized so that every engine branch is exercised:
/// row-oriented left and right shards and multi-shard generation.
fn models() -> Vec<GraphModel> {
    vec![
        GraphModel::ErdosRenyi {
            left: 3_000,
            right: 3_000,
            edges: 120_000,
        },
        GraphModel::ZipfAttachment {
            left: 1_500,
            right: 20_000,
            per_right: 3,
            exponent: 1.15,
        },
        GraphModel::PlantedBlocks {
            left: 2_000,
            right: 2_000,
            blocks: 16,
            per_left: 25,
            intra_prob: 0.85,
        },
    ]
}

/// XXH64 over a graph's edge-list text followed by every right node's
/// sorted left neighbours (u32 little-endian), so both CSR sides — the
/// transpose scatter's output included — are pinned.
fn graph_digest(g: &BipartiteGraph) -> u64 {
    let mut bytes = Vec::new();
    write_edge_list(g, &mut bytes).expect("in-memory write");
    for r in 0..g.right_count() {
        for l in g.neighbors_of_right(RightId::new(r)) {
            bytes.extend_from_slice(&l.index().to_le_bytes());
        }
    }
    xxh64(&bytes)
}

/// `(edge count, graph_digest)` of each of [`models`] at seed 99.
const PINNED_GRAPHS: [(u64, u64); 3] = [
    (119_242, 0x15bf_8194_6e45_727f),
    (56_754, 0x9bda_e28a_7fb8_880a),
    (46_621, 0x8b0c_c3ca_2562_4e7f),
];

#[test]
fn fixed_seed_models_are_bit_identical_across_thread_counts() {
    for (model, pinned) in models().into_iter().zip(PINNED_GRAPHS) {
        let g = model.generate(&mut StdRng::seed_from_u64(99));
        assert_eq!(
            (g.edge_count(), graph_digest(&g)),
            pinned,
            "{} bytes moved",
            model.name()
        );
    }
}

#[test]
fn streaming_builder_equals_incremental_builder_at_any_thread_count() {
    for model in models() {
        let incremental = model.generate_incremental(&mut StdRng::seed_from_u64(41));
        let streamed = model.generate(&mut StdRng::seed_from_u64(41));
        assert_eq!(
            streamed,
            incremental,
            "{} streaming path diverged from the incremental builder",
            model.name()
        );
    }
}

#[test]
fn planted_ground_truth_survives_the_parallel_path() {
    // The planted partition's intra-block mass is a pure function of
    // the fixed-seed graph.
    let source = PlantedBipartiteStream::new(600, 600, 6, 10, 0.9);
    let (pl, pr) = source.ground_truth_partitions();
    let g = engine::generate(&source, &mut StdRng::seed_from_u64(3));
    let pc = gdp_graph::PairCounts::compute(&g, &pl, &pr);
    let intra: u64 = (0..6).map(|b| pc.get(b, b)).sum();
    assert_eq!((intra, pc.total()), (5_300, 5_790));
    let frac = intra as f64 / pc.total() as f64;
    assert!(frac > 0.8, "intra fraction {frac}");
}
