//! Binary==JSON conformance suite — the ISSUE-8 acceptance pins.
//!
//! A release published as a `.gda` binary container must be
//! **indistinguishable** from its JSON twin to every consumer: equal
//! manifests (same content digest), equal artifacts,
//! and — the part operators actually depend on — bit-identical answers
//! for every [`Query`] variant at every level, including typed-error
//! precedence on out-of-range levels, nodes and groups.
//!
//! The second half is the corruption-fuzz pin: no truncation and no
//! single-bit flip of a real artifact container may ever panic or
//! produce a silently-wrong answer — every such file yields a typed
//! error (and quarantine, covered in `binary_lifecycle.rs`).

use proptest::prelude::*;

use gdp_core::{
    CoreError, DisclosureConfig, MultiLevelDiscloser, Query as CoreQuery, ReleaseArtifact,
    SpecializationConfig, Specializer,
};
use gdp_graph::{BipartiteGraph, GraphBuilder, GraphError, LeftId, RightId, Side};
use gdp_serve::{IndexedRelease, Query, ServeError, SubsetQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Answers normalized for bitwise comparison: floats by bit pattern,
/// errors by class and first-offender payload — the same alphabet the
/// serving conformance suite (`conformance.rs`) pins against the core
/// rescan baselines.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Scalar(u64),
    Histogram(Vec<u64>),
    LevelOutOfRange(usize),
    NotIndexed,
    NotReleased,
    NodeOutOfRange(u32),
    DuplicateNode(u32),
    GroupOutOfRange(u32),
    Unexpected(String),
}

fn outcome(indexed: &IndexedRelease, level: usize, query: &Query) -> Outcome {
    match indexed.answer(level, query) {
        Ok(answer) => match answer.histogram() {
            Some(bins) => Outcome::Histogram(bins.iter().map(|v| v.to_bits()).collect()),
            None => Outcome::Scalar(answer.scalar().unwrap().to_bits()),
        },
        Err(ServeError::LevelNotIndexed { .. }) => Outcome::NotIndexed,
        Err(ServeError::StatisticNotReleased { .. }) => Outcome::NotReleased,
        Err(ServeError::Core(CoreError::LevelOutOfRange { level, .. })) => {
            Outcome::LevelOutOfRange(level)
        }
        Err(ServeError::Core(CoreError::SubsetNodeOutOfRange { node, .. })) => {
            Outcome::NodeOutOfRange(node)
        }
        Err(ServeError::Core(CoreError::DuplicateSubsetNode { node, .. })) => {
            Outcome::DuplicateNode(node)
        }
        Err(ServeError::Core(CoreError::GroupOutOfRange { group, .. })) => {
            Outcome::GroupOutOfRange(group)
        }
        Err(other) => Outcome::Unexpected(format!("{other:?}")),
    }
}

fn graph_strategy() -> impl Strategy<Value = BipartiteGraph> {
    (3u32..24, 3u32..24)
        .prop_flat_map(|(nl, nr)| {
            let edges = proptest::collection::vec((0..nl, 0..nr), 1..120);
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

/// A random sealed artifact: hierarchy depth, query set (per-group and
/// histogram releases independently present) and noise all vary.
fn sealed(
    graph: &BipartiteGraph,
    rounds: u32,
    seed: u64,
    epoch: u64,
    with_per_group: bool,
    with_histogram: bool,
) -> ReleaseArtifact {
    let hierarchy = Specializer::new(SpecializationConfig::median(rounds).unwrap())
        .specialize(graph, &mut StdRng::seed_from_u64(seed))
        .unwrap();
    let mut queries = vec![CoreQuery::TotalAssociations, CoreQuery::GroupSizeCounts];
    if with_per_group {
        queries.push(CoreQuery::PerGroupCounts);
    }
    if with_histogram {
        queries.push(CoreQuery::LeftDegreeHistogram { max_degree: 10 });
    }
    let release = MultiLevelDiscloser::new(
        DisclosureConfig::count_only(0.8, 1e-6)
            .unwrap()
            .with_queries(queries),
    )
    .disclose(graph, &hierarchy, &mut StdRng::seed_from_u64(seed ^ 0xF00D))
    .unwrap();
    ReleaseArtifact::seal("conf", epoch, hierarchy, release).unwrap()
}

/// Every serving query variant, biased to straddle valid ranges so the
/// error-precedence paths (out-of-range node, duplicate node,
/// out-of-range group) are exercised alongside the happy ones.
fn probes(graph: &BipartiteGraph) -> Vec<Query> {
    let nl = graph.left_count();
    let mut out = vec![
        Query::SubsetCount(SubsetQuery {
            side: Side::Left,
            nodes: (0..nl.min(5)).collect(),
        }),
        Query::SubsetCount(SubsetQuery {
            side: Side::Right,
            nodes: vec![],
        }),
        // Out-of-range node, and a duplicate — error payloads must
        // survive the format change bit-for-bit too.
        Query::SubsetCount(SubsetQuery {
            side: Side::Left,
            nodes: vec![nl + 7],
        }),
        Query::SubsetCount(SubsetQuery {
            side: Side::Left,
            nodes: vec![0, 0],
        }),
        Query::GroupMass {
            side: Side::Left,
            group: 0,
        },
        Query::GroupMass {
            side: Side::Right,
            group: u32::MAX,
        },
        Query::DegreeHistogram { side: Side::Left },
        Query::DegreeHistogram { side: Side::Right },
        Query::SideTotal { side: Side::Left },
        Query::SideTotal { side: Side::Right },
    ];
    out.push(Query::SubsetCount(SubsetQuery {
        side: Side::Right,
        nodes: vec![graph.right_count(), 0],
    }));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// THE binary==JSON pin: a random sealed artifact saved in both
    /// formats loads to equal artifacts with bit-identical manifests
    /// (content digest included), and every query variant answers
    /// bit-identically at every level — one past the hierarchy
    /// included, so `LevelOutOfRange` precedence agrees too.
    #[test]
    fn binary_and_json_twins_answer_bit_identically(
        graph in graph_strategy(),
        rounds in 1u32..4,
        seed in 0u64..60,
        epoch in 0u64..1000,
        with_per_group in proptest::bool::ANY,
        with_histogram in proptest::bool::ANY,
    ) {
        let artifact = sealed(&graph, rounds, seed, epoch, with_per_group, with_histogram);

        let mut json = Vec::new();
        artifact.write_json(&mut json).unwrap();
        let mut binary = Vec::new();
        artifact.write_binary(&mut binary).unwrap();

        let from_json = ReleaseArtifact::read_json(json.as_slice()).unwrap();
        let from_binary = ReleaseArtifact::read_binary(binary.as_slice()).unwrap();

        // Equal artifacts, bit-identical manifests: the binary twin
        // carries the same content digest verbatim.
        prop_assert_eq!(&from_json, &from_binary);
        prop_assert_eq!(from_json.manifest(), from_binary.manifest());
        prop_assert_eq!(
            from_binary.manifest().content_digest,
            artifact.manifest().content_digest
        );

        let levels = artifact.level_count();
        let json_indexed = IndexedRelease::new(from_json).unwrap();
        let binary_indexed = IndexedRelease::new(from_binary).unwrap();
        for level in 0..levels + 1 {
            for query in probes(&graph) {
                let j = outcome(&json_indexed, level, &query);
                let b = outcome(&binary_indexed, level, &query);
                prop_assert!(
                    !matches!(j, Outcome::Unexpected(_)),
                    "JSON path produced an unexpected error for {:?}: {:?}", query, j
                );
                prop_assert_eq!(
                    &j, &b,
                    "level {} {:?}: json {:?} vs binary {:?}", level, &query, &j, &b
                );
            }
        }
    }

    /// Corruption fuzz on random artifacts: every prefix truncation of
    /// the container is a typed `GraphError::Binary` — never a panic,
    /// never a silently-shorter artifact.
    #[test]
    fn truncating_a_random_binary_artifact_anywhere_is_typed(
        graph in graph_strategy(),
        seed in 0u64..60,
        cut_fraction in 0.0f64..1.0,
    ) {
        let artifact = sealed(&graph, 1, seed, 1, true, false);
        let mut bytes = Vec::new();
        artifact.write_binary(&mut bytes).unwrap();
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        let err = ReleaseArtifact::read_binary(&bytes[..cut.min(bytes.len() - 1)])
            .expect_err("a truncated container must never load");
        prop_assert!(
            matches!(err, CoreError::Graph(GraphError::Binary { .. })),
            "cut {}: unexpected error class: {}", cut, err
        );
    }

    /// Corruption fuzz, bit-flip edition: any single flipped bit —
    /// header, section table, or payload — fails the container digest
    /// with a typed error. (The exhaustive every-byte×every-bit sweep
    /// runs in `gdp-core`'s codec tests; this re-checks the property
    /// end-to-end on randomly shaped artifacts.)
    #[test]
    fn flipping_any_bit_of_a_random_binary_artifact_is_typed(
        graph in graph_strategy(),
        seed in 0u64..60,
        position in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let artifact = sealed(&graph, 1, seed, 1, true, false);
        let mut bytes = Vec::new();
        artifact.write_binary(&mut bytes).unwrap();
        let byte = ((bytes.len() as f64) * position) as usize % bytes.len();
        bytes[byte] ^= 1 << bit;
        let err = ReleaseArtifact::read_binary(bytes.as_slice())
            .expect_err("a bit-flipped container must never load");
        prop_assert!(
            matches!(err, CoreError::Graph(GraphError::Binary { .. })),
            "byte {} bit {}: unexpected error class: {}", byte, bit, err
        );
    }
}

/// A `.gda` → `.json` re-encode preserves the manifest chain: the
/// content digest written at sealing time survives both directions, so
/// converted artifacts keep verifying.
#[test]
fn binary_json_reencode_preserves_the_digest_chain() {
    let mut b = GraphBuilder::new(8, 8);
    for i in 0..8 {
        b.add_edge(LeftId::new(i), RightId::new(i)).unwrap();
        b.add_edge(LeftId::new(i), RightId::new((i + 1) % 8))
            .unwrap();
    }
    let graph = b.build();
    let artifact = sealed(&graph, 2, 99, 5, true, true);
    let digest = artifact.manifest().content_digest;
    assert_eq!(
        digest,
        gdp_core::artifact::content_digest(artifact.hierarchy(), artifact.release())
    );

    let mut binary = Vec::new();
    artifact.write_binary(&mut binary).unwrap();
    let decoded = ReleaseArtifact::read_binary(binary.as_slice()).unwrap();
    let mut json = Vec::new();
    decoded.write_json(&mut json).unwrap();
    let reloaded = ReleaseArtifact::read_json(json.as_slice()).unwrap();
    assert_eq!(reloaded.manifest().content_digest, digest);
    let mut binary_again = Vec::new();
    reloaded.write_binary(&mut binary_again).unwrap();
    assert_eq!(binary, binary_again, "binary encoding is deterministic");
    assert_eq!(reloaded, artifact);
}
