//! Serving conformance suite — the ISSUE-5 acceptance pins.
//!
//! For **every** [`Query`] variant, the indexed answering path must be
//! bit-identical to its core rescan baseline — values *and* typed-error
//! precedence — on arbitrary graphs, hierarchies, release shapes
//! (per-group counts and degree histograms independently present or
//! absent) and queries (valid, out-of-range, duplicated, wrong-side).
//! And a sealed artifact must answer identically after a `.gda`
//! save → load round trip, variant by variant.
//!
//! Baselines, all in `gdp_core::answering`:
//!
//! | variant           | baseline                                  |
//! |-------------------|-------------------------------------------|
//! | `SubsetCount`     | `SubsetCountEstimator::estimate`          |
//! | `GroupMass`       | `scan_group_mass`                         |
//! | `DegreeHistogram` | `scan_degree_histogram`                   |
//! | `SideTotal`       | `scan_side_total`                         |

use proptest::prelude::*;

use gdp_core::answering::{
    scan_degree_histogram, scan_group_mass, scan_side_total, SubsetCountEstimator,
};
use gdp_core::{
    CoreError, DisclosureConfig, GroupHierarchy, MultiLevelDiscloser, MultiLevelRelease,
    Query as CoreQuery, ReleaseArtifact, SpecializationConfig, Specializer,
};
use gdp_graph::{BipartiteGraph, GraphBuilder, LeftId, RightId, Side};
use gdp_serve::{IndexedRelease, Query, ServeError, SubsetQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Both answering paths' results, normalized for comparison: floats by
/// bit pattern, errors by class and payload. The mapping between
/// [`CoreError`] classes and [`ServeError`] classes is the conformance
/// contract itself (e.g. the core scan reports a missing per-group
/// release as `InvalidConfig` where the serving layer types it
/// `LevelNotIndexed`).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Scalar(u64),
    Histogram(Vec<u64>),
    LevelOutOfRange(usize),
    /// Missing per-group release (subset, mass and total queries).
    NotIndexed,
    /// Missing (or right-side) histogram release.
    NotReleased,
    NodeOutOfRange(u32),
    DuplicateNode(u32),
    GroupOutOfRange(u32),
    Unexpected(String),
}

fn core_outcome(query: &Query, result: Result<Outcome, CoreError>) -> Outcome {
    match result {
        Ok(outcome) => outcome,
        Err(CoreError::LevelOutOfRange { level, .. }) => Outcome::LevelOutOfRange(level),
        Err(CoreError::SubsetNodeOutOfRange { node, .. }) => Outcome::NodeOutOfRange(node),
        Err(CoreError::DuplicateSubsetNode { node, .. }) => Outcome::DuplicateNode(node),
        Err(CoreError::GroupOutOfRange { group, .. }) => Outcome::GroupOutOfRange(group),
        Err(CoreError::InvalidConfig(_)) => match query {
            Query::DegreeHistogram { .. } => Outcome::NotReleased,
            _ => Outcome::NotIndexed,
        },
        Err(other) => Outcome::Unexpected(format!("{other:?}")),
    }
}

/// The core-path rescan: resolve the level out of the raw release, then
/// apply the variant's baseline.
fn baseline(
    hierarchy: &GroupHierarchy,
    release: &MultiLevelRelease,
    level: usize,
    query: &Query,
) -> Outcome {
    let resolved = release.level(level).and_then(|rel| {
        let lvl = hierarchy.level(level)?;
        match query {
            Query::SubsetCount(q) => SubsetCountEstimator::new(rel, lvl)?
                .estimate(q.side, &q.nodes)
                .map(|v| Outcome::Scalar(v.to_bits())),
            Query::GroupMass { side, group } => {
                scan_group_mass(rel, lvl, *side, *group).map(|v| Outcome::Scalar(v.to_bits()))
            }
            Query::DegreeHistogram { side } => scan_degree_histogram(rel, *side)
                .map(|bins| Outcome::Histogram(bins.iter().map(|v| v.to_bits()).collect())),
            Query::SideTotal { side } => {
                scan_side_total(rel, lvl, *side).map(|v| Outcome::Scalar(v.to_bits()))
            }
        }
    });
    core_outcome(query, resolved)
}

/// The indexed path, normalized through the same outcome alphabet.
fn indexed_outcome(indexed: &IndexedRelease, level: usize, query: &Query) -> Outcome {
    match indexed.answer(level, query) {
        Ok(answer) => match answer.histogram() {
            Some(bins) => Outcome::Histogram(bins.iter().map(|v| v.to_bits()).collect()),
            None => Outcome::Scalar(answer.scalar().unwrap().to_bits()),
        },
        Err(ServeError::LevelNotIndexed { .. }) => Outcome::NotIndexed,
        Err(ServeError::StatisticNotReleased { .. }) => Outcome::NotReleased,
        Err(ServeError::Core(e)) => core_outcome(query, Err(e)),
        Err(other) => Outcome::Unexpected(format!("{other:?}")),
    }
}

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

/// A random release shape: per-group counts and the degree histogram
/// are independently present, so the suite exercises the not-indexed /
/// not-released error paths as often as the happy ones.
fn published(
    graph: &BipartiteGraph,
    rounds: u32,
    seed: u64,
    with_per_group: bool,
    with_histogram: bool,
) -> (GroupHierarchy, MultiLevelRelease) {
    let hierarchy = Specializer::new(SpecializationConfig::median(rounds).unwrap())
        .specialize(graph, &mut StdRng::seed_from_u64(seed))
        .unwrap();
    let mut queries = vec![CoreQuery::TotalAssociations];
    if with_per_group {
        queries.push(CoreQuery::PerGroupCounts);
    }
    if with_histogram {
        queries.push(CoreQuery::LeftDegreeHistogram { max_degree: 12 });
    }
    let release = MultiLevelDiscloser::new(
        DisclosureConfig::count_only(0.8, 1e-6)
            .unwrap()
            .with_queries(queries),
    )
    .disclose(graph, &hierarchy, &mut StdRng::seed_from_u64(seed ^ 0xABCD))
    .unwrap();
    (hierarchy, release)
}

/// Raw query material mapped into a [`Query`], biased to straddle the
/// valid ranges (nodes/groups run a little past the side sizes, levels
/// a little past the hierarchy).
fn materialize(
    variant: u8,
    right: bool,
    raw_nodes: &[u64],
    raw_group: u64,
    graph: &BipartiteGraph,
) -> Query {
    let side = if right { Side::Right } else { Side::Left };
    let n = if right {
        graph.right_count()
    } else {
        graph.left_count()
    };
    match variant % 4 {
        0 => Query::SubsetCount(SubsetQuery {
            side,
            nodes: raw_nodes
                .iter()
                .map(|&v| (v % (n as u64 + 3)) as u32)
                .collect(),
        }),
        1 => Query::GroupMass {
            side,
            // Group counts shrink toward coarse levels, so modding by
            // the node count + slack covers both valid and invalid ids.
            group: (raw_group % (n as u64 + 3)) as u32,
        },
        2 => Query::DegreeHistogram { side },
        _ => Query::SideTotal { side },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// THE conformance pin: for every variant, on every input — levels
    /// beyond the hierarchy included — the indexed path and the core
    /// rescan agree bitwise on values and on the error class + payload
    /// (first-offender precedence carried in the payload).
    #[test]
    fn every_variant_matches_its_rescan_baseline(
        graph in graph_strategy(),
        rounds in 1u32..4,
        seed in 0u64..50,
        with_per_group in proptest::bool::ANY,
        with_histogram in proptest::bool::ANY,
        queries in proptest::collection::vec(
            (0u8..4, proptest::bool::ANY,
             proptest::collection::vec(0u64..1 << 32, 0..24), 0u64..1 << 32),
            1..12,
        ),
    ) {
        let (hierarchy, release) =
            published(&graph, rounds, seed, with_per_group, with_histogram);
        let artifact =
            ReleaseArtifact::seal("conf", 1, hierarchy.clone(), release.clone()).unwrap();
        let indexed = IndexedRelease::new(artifact).unwrap();
        // Probe one level past the hierarchy too: LevelOutOfRange must
        // agree between the paths.
        for level in 0..hierarchy.level_count() + 1 {
            for (variant, right, raw_nodes, raw_group) in &queries {
                let query = materialize(*variant, *right, raw_nodes, *raw_group, &graph);
                let want = baseline(&hierarchy, &release, level, &query);
                let got = indexed_outcome(&indexed, level, &query);
                prop_assert!(
                    !matches!(want, Outcome::Unexpected(_)),
                    "baseline produced an unexpected error for {query:?}: {want:?}"
                );
                prop_assert_eq!(
                    &want, &got,
                    "level {} {:?}: baseline {:?} vs indexed {:?}",
                    level, query, &want, &got
                );
            }
        }
    }

    /// Save → load → answer round trip, per variant: the loaded
    /// artifact is equal and every variant answers bit-identically from
    /// its re-built index.
    #[test]
    fn artifact_round_trip_answers_identically_per_variant(
        graph in graph_strategy(),
        rounds in 1u32..4,
        seed in 0u64..50,
        epoch in 0u64..1000,
        with_histogram in proptest::bool::ANY,
    ) {
        let (hierarchy, release) = published(&graph, rounds, seed, true, with_histogram);
        let artifact =
            ReleaseArtifact::seal("conf", epoch, hierarchy.clone(), release).unwrap();
        let mut buf = Vec::new();
        artifact.write_binary(&mut buf).unwrap();
        let loaded = ReleaseArtifact::read_binary(buf.as_slice()).unwrap();
        prop_assert_eq!(&artifact, &loaded);

        let from_original = IndexedRelease::new(artifact).unwrap();
        let from_loaded = IndexedRelease::new(loaded).unwrap();
        let variants = [
            Query::SubsetCount(SubsetQuery {
                side: Side::Left,
                nodes: (0..graph.left_count().min(6)).collect(),
            }),
            Query::SubsetCount(SubsetQuery { side: Side::Right, nodes: vec![] }),
            Query::GroupMass { side: Side::Left, group: 0 },
            Query::GroupMass { side: Side::Right, group: 0 },
            Query::DegreeHistogram { side: Side::Left },
            Query::SideTotal { side: Side::Left },
            Query::SideTotal { side: Side::Right },
        ];
        for level in 0..hierarchy.level_count() {
            for query in &variants {
                prop_assert_eq!(
                    indexed_outcome(&from_original, level, query),
                    indexed_outcome(&from_loaded, level, query),
                    "level {} {:?} answers drifted across the round trip",
                    level, query
                );
            }
        }
    }
}
