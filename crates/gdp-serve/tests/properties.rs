//! Property tests for the serving seam — the ISSUE-4 acceptance pins:
//!
//! 1. [`IndexedRelease`] estimates are **bit-identical** to the scan
//!    path [`SubsetCountEstimator`], success and error cases alike.
//! 2. Artifact save → load → answer is lossless (loaded artifacts are
//!    equal and answer identically).
//! 3. [`AnswerService`] refuses every level finer than the caller's
//!    [`Privilege`], for all privilege/level combinations.

use proptest::prelude::*;

use gdp_core::answering::SubsetCountEstimator;
use gdp_core::{
    CoreError, DisclosureConfig, GroupHierarchy, MultiLevelDiscloser, MultiLevelRelease, Privilege,
    Query, ReleaseArtifact, SpecializationConfig, Specializer,
};
use gdp_graph::{BipartiteGraph, GraphBuilder, LeftId, RightId, Side};
use gdp_serve::{
    AnswerService, IndexedRelease, Query as ServeQuery, ReleaseStore, ServeError, SubsetQuery,
    TypedAnswer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn graph_strategy() -> impl Strategy<Value = BipartiteGraph> {
    (3u32..30, 3u32..30)
        .prop_flat_map(|(nl, nr)| {
            let edges = proptest::collection::vec((0..nl, 0..nr), 1..160);
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

fn published(
    graph: &BipartiteGraph,
    rounds: u32,
    seed: u64,
) -> (GroupHierarchy, MultiLevelRelease) {
    let hierarchy = Specializer::new(SpecializationConfig::median(rounds).unwrap())
        .specialize(graph, &mut StdRng::seed_from_u64(seed))
        .unwrap();
    let release = MultiLevelDiscloser::new(
        DisclosureConfig::count_only(0.8, 1e-6)
            .unwrap()
            .with_queries(vec![Query::TotalAssociations, Query::PerGroupCounts]),
    )
    .disclose(graph, &hierarchy, &mut StdRng::seed_from_u64(seed ^ 0xABCD))
    .unwrap();
    (hierarchy, release)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn indexed_gather_is_bit_identical_to_scan_estimator(
        graph in graph_strategy(),
        rounds in 1u32..4,
        seed in 0u64..50,
        subsets in proptest::collection::vec(
            (proptest::bool::ANY, proptest::collection::vec(0u64..1 << 32, 1..24)),
            1..12,
        ),
    ) {
        let (hierarchy, release) = published(&graph, rounds, seed);
        let artifact =
            ReleaseArtifact::seal("prop", 1, hierarchy.clone(), release.clone()).unwrap();
        let indexed = IndexedRelease::new(artifact).unwrap();
        for level in 0..hierarchy.level_count() {
            let scan = SubsetCountEstimator::new(
                release.level(level).unwrap(),
                hierarchy.level(level).unwrap(),
            )
            .unwrap();
            for (right, raw) in &subsets {
                let side = if *right { Side::Right } else { Side::Left };
                let n = if *right { graph.right_count() } else { graph.left_count() };
                // Map raw draws into a range that includes both valid
                // and slightly out-of-range nodes, and keeps repeats.
                let nodes: Vec<u32> =
                    raw.iter().map(|&v| (v % (n as u64 + 3)) as u32).collect();
                let a = scan.estimate(side, &nodes);
                let query = ServeQuery::SubsetCount(SubsetQuery { side, nodes: nodes.clone() });
                let b = indexed.answer(level, &query).map(|a| a.scalar().unwrap());
                match (a, b) {
                    (Ok(x), Ok(y)) => prop_assert_eq!(
                        x.to_bits(), y.to_bits(),
                        "level {} {} {:?}: {} vs {}", level, side, nodes, x, y
                    ),
                    (
                        Err(CoreError::SubsetNodeOutOfRange { node: na, .. }),
                        Err(ServeError::Core(CoreError::SubsetNodeOutOfRange { node: nb, .. })),
                    ) => prop_assert_eq!(na, nb),
                    (
                        Err(CoreError::DuplicateSubsetNode { node: na, .. }),
                        Err(ServeError::Core(CoreError::DuplicateSubsetNode { node: nb, .. })),
                    ) => prop_assert_eq!(na, nb),
                    (a, b) => prop_assert!(
                        false,
                        "paths disagree on {:?}: scan {:?} vs indexed {:?}", nodes, a, b
                    ),
                }
            }
        }
    }

    #[test]
    fn artifact_round_trip_is_lossless_and_answers_identically(
        graph in graph_strategy(),
        rounds in 1u32..4,
        seed in 0u64..50,
        epoch in 0u64..1000,
    ) {
        let (hierarchy, release) = published(&graph, rounds, seed);
        let artifact = ReleaseArtifact::seal("prop", epoch, hierarchy, release).unwrap();
        let mut buf = Vec::new();
        artifact.write_binary(&mut buf).unwrap();
        let loaded = ReleaseArtifact::read_binary(buf.as_slice()).unwrap();
        prop_assert_eq!(&artifact, &loaded);

        // Equal artifacts must answer identically through the service.
        let queries: Vec<ServeQuery> = (0..6u32)
            .map(|k| ServeQuery::SubsetCount(SubsetQuery {
                side: Side::Left,
                nodes: (0..=k.min(graph.left_count() - 1)).collect(),
            }))
            .collect();
        let serve = |a: ReleaseArtifact| -> Vec<TypedAnswer> {
            let store = ReleaseStore::new();
            store.insert(IndexedRelease::new(a).unwrap()).unwrap();
            let service = AnswerService::new(store);
            let level = artifact.level_count() - 1;
            service
                .answer_typed_batch("prop", epoch, Privilege::full(), level, &queries)
                .unwrap()
        };
        let from_original = serve(artifact.clone());
        let from_loaded = serve(loaded);
        for (x, y) in from_original.iter().zip(&from_loaded) {
            prop_assert_eq!(x.scalar().unwrap().to_bits(), y.scalar().unwrap().to_bits());
        }
    }

    #[test]
    fn service_refuses_levels_finer_than_privilege(
        graph in graph_strategy(),
        rounds in 1u32..4,
        seed in 0u64..50,
    ) {
        let (hierarchy, release) = published(&graph, rounds, seed);
        let levels = hierarchy.level_count();
        let artifact = ReleaseArtifact::seal("prop", 1, hierarchy, release).unwrap();
        let store = ReleaseStore::new();
        store.insert(IndexedRelease::new(artifact).unwrap()).unwrap();
        let service = AnswerService::new(store);
        let query = ServeQuery::SubsetCount(SubsetQuery { side: Side::Left, nodes: vec![0, 1] });
        for finest in 0..levels + 2 {
            let privilege = Privilege::new(finest);
            for level in 0..levels {
                let got = service.answer_typed("prop", 1, privilege, level, &query);
                if level < finest {
                    prop_assert!(
                        matches!(
                            got,
                            Err(ServeError::Core(CoreError::AccessDenied { .. }))
                        ),
                        "privilege {} was served level {}", finest, level
                    );
                } else {
                    prop_assert!(got.is_ok(), "privilege {} refused level {}", finest, level);
                }
            }
        }
    }
}
