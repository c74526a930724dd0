//! `.gda` conformance on randomly shaped artifacts.
//!
//! The corruption-fuzz pin: no truncation and no single-bit flip of a
//! real artifact container may ever panic or produce a silently-wrong
//! answer — every such file yields a typed error (and quarantine,
//! covered in `binary_lifecycle.rs`). And the export round trip: the
//! JSON export of a loaded `.gda` reads back, through the validating
//! oracle, to an equal artifact with an identical manifest.

use proptest::prelude::*;

use gdp_core::{
    CoreError, DisclosureConfig, MultiLevelDiscloser, Query as CoreQuery, ReleaseArtifact,
    SpecializationConfig, Specializer,
};
use gdp_graph::{BipartiteGraph, GraphBuilder, GraphError, LeftId, RightId};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

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

/// The export round trip: `.gda` → JSON export → the validating oracle
/// ([`ReleaseArtifact::read_json`], which re-derives the content
/// digest) gives back an equal artifact and an identical manifest, so
/// the export carries the digest chain sealing wrote.
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
    gdp_graph::io::write_json(&decoded, &mut json).unwrap();
    let reloaded = ReleaseArtifact::read_json(json.as_slice()).unwrap();
    assert_eq!(reloaded.manifest(), decoded.manifest());
    assert_eq!(reloaded.manifest().content_digest, digest);
    let mut binary_again = Vec::new();
    reloaded.write_binary(&mut binary_again).unwrap();
    assert_eq!(binary, binary_again, "binary encoding is deterministic");
    assert_eq!(reloaded, artifact);
}
