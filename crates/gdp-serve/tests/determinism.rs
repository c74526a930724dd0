//! Determinism of the batched answering path.
//!
//! Serving is RNG-free pure post-processing, so this is the degenerate
//! case of the `docs/determinism.md` convention: there are no per-task
//! seeds to discipline. A batch is a sequential loop in input order, so
//! its answers are a pure function of the fixed-seed release: their
//! bytes are pinned below, and must not depend on concurrent readers
//! and writers of the same store. Memoization must not break this
//! either: a cache-warm service returns the same bits as a cold one.
//!
//! The batch digests were recorded when the release pipeline still ran
//! on a thread pool, at one and at two threads, and the two agreed. The
//! thread-count test names are kept from then.

use gdp_core::{
    DisclosureConfig, MultiLevelDiscloser, Privilege, Query, ReleaseArtifact, SpecializationConfig,
    Specializer,
};
use gdp_graph::io::xxh64;
use gdp_graph::Side;
use gdp_serve::{
    AnswerService, IndexedRelease, Query as Query2, ReleaseStore, SubsetQuery, TypedAnswer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn service() -> AnswerService {
    let mut rng = StdRng::seed_from_u64(77);
    let graph = gdp_datagen::engine::GraphModel::ErdosRenyi {
        left: 500,
        right: 500,
        edges: 4_000,
    }
    .generate(&mut rng);
    let hierarchy = Specializer::new(SpecializationConfig::paper_default(5).unwrap())
        .specialize(&graph, &mut rng)
        .unwrap();
    let release = MultiLevelDiscloser::new(
        DisclosureConfig::count_only(0.7, 1e-6)
            .unwrap()
            .with_queries(vec![
                Query::PerGroupCounts,
                Query::LeftDegreeHistogram { max_degree: 24 },
            ]),
    )
    .disclose(&graph, &hierarchy, &mut rng)
    .unwrap();
    let artifact = ReleaseArtifact::seal("det", 1, hierarchy, release).unwrap();
    let store = ReleaseStore::new();
    store
        .insert(IndexedRelease::new(artifact).unwrap())
        .unwrap();
    AnswerService::new(store)
}

/// A sealed artifact for concurrency tests that need fresh epochs.
fn sealed(epoch: u64, seed: u64) -> ReleaseArtifact {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = gdp_datagen::engine::GraphModel::ErdosRenyi {
        left: 120,
        right: 120,
        edges: 600,
    }
    .generate(&mut rng);
    let hierarchy = Specializer::new(SpecializationConfig::paper_default(3).unwrap())
        .specialize(&graph, &mut rng)
        .unwrap();
    let release = MultiLevelDiscloser::new(
        DisclosureConfig::count_only(0.7, 1e-6)
            .unwrap()
            .with_queries(vec![Query::PerGroupCounts]),
    )
    .disclose(&graph, &hierarchy, &mut rng)
    .unwrap();
    ReleaseArtifact::seal("det", epoch, hierarchy, release).unwrap()
}

fn workload(n_left: u32) -> Vec<Query2> {
    let mut rng = StdRng::seed_from_u64(78);
    (0..200)
        .map(|_| {
            let mut nodes = Vec::with_capacity(16);
            while nodes.len() < 16 {
                let node = rng.gen_range(0..n_left);
                if !nodes.contains(&node) {
                    nodes.push(node);
                }
            }
            Query2::SubsetCount(SubsetQuery {
                side: Side::Left,
                nodes,
            })
        })
        .collect()
}

/// A mixed typed workload cycling through every `Query` variant.
fn typed_workload(n_left: u32) -> Vec<Query2> {
    workload(n_left)
        .into_iter()
        .enumerate()
        .map(|(i, subset)| match i % 4 {
            0 => subset,
            1 => Query2::GroupMass {
                side: Side::Left,
                group: (i % 3) as u32,
            },
            2 => Query2::DegreeHistogram { side: Side::Left },
            _ => Query2::SideTotal { side: Side::Right },
        })
        .collect()
}

/// XXH64 over every answer's f64 bits (little-endian), scalars and
/// histogram bins in answer order.
fn answers_digest(answers: &[TypedAnswer]) -> u64 {
    let mut bytes = Vec::new();
    for answer in answers {
        match answer {
            TypedAnswer::Scalar(v) => bytes.extend_from_slice(&v.to_bits().to_le_bytes()),
            TypedAnswer::Histogram(bins) => {
                for v in bins.iter() {
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
        }
    }
    xxh64(&bytes)
}

#[test]
fn batch_answers_bit_identical_across_thread_counts() {
    let answers = service()
        .answer_typed_batch("det", 1, Privilege::new(1), 1, &workload(500))
        .unwrap();
    assert_eq!(answers.len(), 200);
    assert_eq!(answers_digest(&answers), 0x5f44_62b1_e39f_127f);
}

#[test]
fn typed_batch_answers_bit_identical_across_thread_counts() {
    let answers = service()
        .answer_typed_batch("det", 1, Privilege::new(1), 1, &typed_workload(500))
        .unwrap();
    assert_eq!(answers.len(), 200);
    assert_eq!(answers_digest(&answers), 0x4569_20f9_6bd9_71f0);
}

#[test]
fn sharded_store_serves_under_concurrent_get_and_insert() {
    // Scoped readers hammer epoch 1 through the service while writers
    // register epochs 2..6 into the *same* store mid-flight, under its
    // one registry lock.
    // Readers must never see torn state: every answer of the fixed
    // workload is bit-identical to the single-threaded answer, and
    // after the join every inserted epoch is present and answerable.
    let service = service();
    let queries = workload(500);
    let expected = service
        .answer_typed_batch("det", 1, Privilege::new(1), 1, &queries)
        .unwrap();
    let writer_epochs: Vec<u64> = (2..6).collect();
    std::thread::scope(|scope| {
        for reader in 0..4 {
            let (service, queries, expected) = (&service, &queries, &expected);
            scope.spawn(move || {
                for round in 0..5 {
                    let got = service
                        .answer_typed_batch("det", 1, Privilege::new(1), 1, queries)
                        .unwrap();
                    for (x, y) in expected.iter().zip(&got) {
                        assert_eq!(
                            x.scalar().unwrap().to_bits(),
                            y.scalar().unwrap().to_bits(),
                            "reader {reader} round {round} drifted"
                        );
                    }
                }
            });
        }
        for &epoch in &writer_epochs {
            let service = &service;
            scope.spawn(move || {
                service
                    .store()
                    .insert(IndexedRelease::new(sealed(epoch, epoch)).unwrap())
                    .unwrap();
                // A duplicate insert from the same thread is refused
                // without disturbing anything.
                assert!(service
                    .store()
                    .insert(IndexedRelease::new(sealed(epoch, epoch)).unwrap())
                    .is_err());
            });
        }
    });
    assert_eq!(service.store().epochs("det"), vec![1, 2, 3, 4, 5]);
    assert_eq!(service.store().latest("det").unwrap().artifact().epoch(), 5);
    for epoch in writer_epochs {
        let q = Query2::SubsetCount(SubsetQuery {
            side: Side::Left,
            nodes: vec![0, 1, 2],
        });
        assert!(service
            .answer_typed("det", epoch, Privilege::full(), 1, &q)
            .is_ok());
    }
}

#[test]
fn warm_cache_answers_equal_cold_answers() {
    let queries = workload(500);
    let service = service();
    let cold = service
        .answer_typed_batch("det", 1, Privilege::full(), 2, &queries)
        .unwrap();
    let warm = service
        .answer_typed_batch("det", 1, Privilege::full(), 2, &queries)
        .unwrap();
    for (x, y) in cold.iter().zip(&warm) {
        assert_eq!(x.scalar().unwrap().to_bits(), y.scalar().unwrap().to_bits());
    }
    let stats = service.cache_stats();
    assert!(stats.hits >= queries.len() as u64, "stats {stats:?}");
}
