//! Thread-count invariance of the parallel streaming datagen engine.
//!
//! Every streaming model draws per-shard `StdRng` streams whose seeds
//! come sequentially from the master generator, with a shard count that
//! is a function of the workload alone — so a fixed-seed graph must be
//! **bit-identical** under `RAYON_NUM_THREADS=1`, a multi-thread pool,
//! and the default pool, and identical to replaying the same shards
//! through the incremental builder. This file pins all of that; the
//! same env-var + mutex pattern as the workspace-level
//! `tests/determinism.rs` (the in-tree rayon stand-in re-reads
//! `RAYON_NUM_THREADS` on every parallel call, making the thread count
//! flippable mid-process).

use std::sync::Mutex;

use gdp_datagen::engine::{self, GraphModel, PlantedBipartiteStream};
use rand::rngs::StdRng;
use rand::SeedableRng;

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_thread_count<R>(threads: &str, f: impl FnOnce() -> R) -> R {
    let prior = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let out = f();
    match prior {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    out
}

/// Scenario models sized so that every engine branch is exercised:
/// row-oriented left and right shards, multi-shard fan-out, and (via
/// the first model's >65k deduped edges) the banded parallel transpose
/// scatter inside `gdp_graph::assemble_left_rows` — the one assembly
/// branch whose task layout depends on the thread count.
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

#[test]
fn fixed_seed_models_are_bit_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    for model in models() {
        let single = with_thread_count("1", || model.generate(&mut StdRng::seed_from_u64(99)));
        let multi = with_thread_count("8", || model.generate(&mut StdRng::seed_from_u64(99)));
        let default_pool = model.generate(&mut StdRng::seed_from_u64(99));
        assert_eq!(
            single,
            multi,
            "{} differed between 1 and 8 threads",
            model.name()
        );
        assert_eq!(
            single,
            default_pool,
            "{} differed between 1 thread and the default pool",
            model.name()
        );
    }
}

#[test]
fn streaming_builder_equals_incremental_builder_at_any_thread_count() {
    let _guard = ENV_LOCK.lock().unwrap();
    for model in models() {
        let incremental = model.generate_incremental(&mut StdRng::seed_from_u64(41));
        for threads in ["1", "5"] {
            let streamed =
                with_thread_count(threads, || model.generate(&mut StdRng::seed_from_u64(41)));
            assert_eq!(
                streamed,
                incremental,
                "{} streaming path diverged from the incremental builder at {threads} threads",
                model.name()
            );
        }
    }
}

#[test]
fn planted_ground_truth_survives_the_parallel_path() {
    let _guard = ENV_LOCK.lock().unwrap();
    // The planted partition's intra-block mass must not depend on the
    // thread count either — it is a pure function of the (deterministic)
    // graph.
    let source = PlantedBipartiteStream::new(600, 600, 6, 10, 0.9);
    let (pl, pr) = source.ground_truth_partitions();
    let fracs: Vec<f64> = ["1", "7"]
        .iter()
        .map(|threads| {
            with_thread_count(threads, || {
                let g = engine::generate(&source, &mut StdRng::seed_from_u64(3));
                let pc = gdp_graph::PairCounts::compute(&g, &pl, &pr);
                let intra: u64 = (0..6).map(|b| pc.get(b, b)).sum();
                intra as f64 / pc.total() as f64
            })
        })
        .collect();
    assert_eq!(fracs[0], fracs[1]);
    assert!(fracs[0] > 0.8, "intra fraction {}", fracs[0]);
}
