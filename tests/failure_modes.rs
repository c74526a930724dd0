//! Failure-injection integration tests: every user-visible error path
//! across the workspace must be reachable, typed, and must leave no
//! partial state behind.

use group_dp::core::{
    AccessControlled, CoreError, DisclosureConfig, DisclosureSession, GroupHierarchy, GroupLevel,
    MultiLevelDiscloser, Privilege, SpecializationConfig, Specializer,
};
use group_dp::datagen::{DblpConfig, DblpGenerator};
use group_dp::graph::{io as graph_io, BipartiteGraph, GraphError, Side, SidePartition};
use group_dp::mechanisms::{MechanismError, PrivacyBudget};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_graph() -> BipartiteGraph {
    DblpGenerator::new(DblpConfig::tiny()).generate(&mut StdRng::seed_from_u64(80))
}

#[test]
fn specialization_rejects_degenerate_graphs() {
    let spec = Specializer::new(SpecializationConfig::median(2).unwrap());
    for (l, r) in [(0u32, 5u32), (5, 0), (0, 0)] {
        let err = spec
            .specialize(&BipartiteGraph::empty(l, r), &mut StdRng::seed_from_u64(0))
            .unwrap_err();
        assert!(matches!(err, CoreError::GraphTooSmall(_)), "({l},{r})");
    }
}

#[test]
fn invalid_privacy_parameters_surface_as_typed_errors() {
    // ε = 0 rejected at config construction.
    assert!(matches!(
        DisclosureConfig::count_only(0.0, 1e-6),
        Err(CoreError::Mechanism(MechanismError::InvalidEpsilon(_)))
    ));
    // δ = 1 rejected.
    assert!(matches!(
        DisclosureConfig::count_only(0.5, 1.0),
        Err(CoreError::Mechanism(MechanismError::InvalidDelta(_)))
    ));
    // Classic Gaussian at ε ≥ 1 rejected at disclosure time.
    let graph = tiny_graph();
    let hierarchy = Specializer::new(SpecializationConfig::median(2).unwrap())
        .specialize(&graph, &mut StdRng::seed_from_u64(1))
        .unwrap();
    let err = MultiLevelDiscloser::new(DisclosureConfig::count_only(2.0, 1e-6).unwrap())
        .disclose(&graph, &hierarchy, &mut StdRng::seed_from_u64(2))
        .unwrap_err();
    assert!(matches!(
        err,
        CoreError::Mechanism(MechanismError::EpsilonTooLargeForClassicGaussian(_))
    ));
}

#[test]
fn session_refuses_overdraft_and_stays_consistent() {
    let graph = tiny_graph();
    let hierarchy = Specializer::new(SpecializationConfig::median(2).unwrap())
        .specialize(&graph, &mut StdRng::seed_from_u64(3))
        .unwrap();
    let mut session =
        DisclosureSession::new(graph, hierarchy, PrivacyBudget::new(0.5, 1e-5).unwrap());
    let config = DisclosureConfig::count_only(0.4, 1e-6).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    session.disclose(&config, &mut rng).unwrap();
    // The second disclosure would spend 0.8 > 0.5: refused, and the
    // ledger still shows exactly one successful release.
    assert!(session.disclose(&config, &mut rng).is_err());
    assert_eq!(session.releases_made(), 1);
    assert!((session.accountant().spent_epsilon() - 0.4).abs() < 1e-12);
}

#[test]
fn hierarchy_construction_rejects_broken_chains() {
    // Levels over different node sets.
    let a = GroupLevel::new(
        SidePartition::whole(Side::Left, 3).unwrap(),
        SidePartition::whole(Side::Right, 3).unwrap(),
    )
    .unwrap();
    let b = GroupLevel::new(
        SidePartition::whole(Side::Left, 4).unwrap(),
        SidePartition::whole(Side::Right, 3).unwrap(),
    )
    .unwrap();
    assert!(matches!(
        GroupHierarchy::new(vec![a.clone(), b]),
        Err(CoreError::InvalidHierarchy(_))
    ));
    // Coarse-to-fine ordering (refinement inverted) is rejected.
    let fine = GroupLevel::new(
        SidePartition::singletons(Side::Left, 3),
        SidePartition::singletons(Side::Right, 3),
    )
    .unwrap();
    assert!(GroupHierarchy::new(vec![a, fine]).is_err());
}

#[test]
fn access_denial_is_precise() {
    let graph = tiny_graph();
    let hierarchy = Specializer::new(SpecializationConfig::median(3).unwrap())
        .specialize(&graph, &mut StdRng::seed_from_u64(5))
        .unwrap();
    let release = MultiLevelDiscloser::new(DisclosureConfig::count_only(0.5, 1e-6).unwrap())
        .disclose(&graph, &hierarchy, &mut StdRng::seed_from_u64(6))
        .unwrap();
    let gated = AccessControlled::new(release).unwrap();
    match gated.level(Privilege::new(3), 1).unwrap_err() {
        CoreError::AccessDenied {
            privilege,
            requested_level,
            finest_allowed,
        } => {
            assert_eq!(privilege, 3);
            assert_eq!(requested_level, 1);
            assert_eq!(finest_allowed, 3);
        }
        other => panic!("wrong error: {other}"),
    }
    // Unknown level is a different error.
    assert!(matches!(
        gated.level(Privilege::full(), 99).unwrap_err(),
        CoreError::LevelOutOfRange { level: 99, .. }
    ));
}

#[test]
fn graph_io_failures_carry_line_numbers() {
    let malformed = "3 2 1\n0 0\nbad line here\n";
    match graph_io::read_edge_list(malformed.as_bytes()).unwrap_err() {
        GraphError::Parse { line, .. } => assert_eq!(line, 3),
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn error_chains_preserve_sources() {
    use std::error::Error;
    let err = CoreError::Mechanism(MechanismError::InvalidEpsilon(-1.0));
    assert!(err.source().is_some());
    let err = CoreError::Graph(GraphError::LeftNodeOutOfRange {
        index: 9,
        left_count: 3,
    });
    assert!(err.source().is_some());
    // Display messages are lowercase per API guidelines, no trailing '.'.
    let msg = err.to_string();
    assert!(!msg.ends_with('.'));
}

/// `ReleaseStore::open_dir` error paths: every way a scanned artifact
/// directory can be bad is a typed `ServeError` naming the defect —
/// a corrupt file, a foreign schema version, a duplicate
/// `(dataset, epoch)`, an empty directory — and a failed scan leaves
/// no half-built store behind (the constructor returns `Err`, not a
/// store missing entries).
#[test]
fn release_store_directory_scan_failures_are_typed() {
    use group_dp::core::{
        DisclosureConfig as DC, MultiLevelDiscloser as MLD, Query, ReleaseArtifact,
    };
    use group_dp::serve::{ReleaseStore, ServeError};

    let dir = std::env::temp_dir().join(format!("gdp-open-dir-{}", std::process::id()));
    let fresh = |name: &str| {
        let sub = dir.join(name);
        std::fs::create_dir_all(&sub).unwrap();
        sub
    };
    let artifact = |dataset: &str, epoch: u64| -> ReleaseArtifact {
        let graph = tiny_graph();
        let hierarchy = Specializer::new(SpecializationConfig::median(2).unwrap())
            .specialize(&graph, &mut StdRng::seed_from_u64(7))
            .unwrap();
        let release = MLD::new(
            DC::count_only(0.5, 1e-6)
                .unwrap()
                .with_queries(vec![Query::PerGroupCounts]),
        )
        .disclose(&graph, &hierarchy, &mut StdRng::seed_from_u64(8))
        .unwrap();
        ReleaseArtifact::seal(dataset, epoch, hierarchy, release).unwrap()
    };
    let write = |sub: &std::path::Path, name: &str, artifact: &ReleaseArtifact| {
        artifact.save_atomic(sub.join(name)).unwrap();
    };

    // Empty directory: a wrong path should not masquerade as an empty
    // store.
    let sub = fresh("empty");
    assert!(matches!(
        ReleaseStore::open_dir(&sub).unwrap_err(),
        ServeError::EmptyDirectory { .. }
    ));
    // Non-artifact files alone do not make the directory non-empty,
    // and neither does a JSON export.
    std::fs::write(sub.join("notes.txt"), "hello").unwrap();
    let mut export = Vec::new();
    graph_io::write_json(&artifact("dblp", 1), &mut export).unwrap();
    std::fs::write(sub.join("dblp-e1.json"), export).unwrap();
    assert!(matches!(
        ReleaseStore::open_dir(&sub).unwrap_err(),
        ServeError::EmptyDirectory { .. }
    ));

    // A corrupt container: typed as a graph-layer binary-format error.
    let sub = fresh("corrupt");
    write(&sub, "good.gda", &artifact("dblp", 1));
    std::fs::write(sub.join("bad.gda"), "{ this is not a container").unwrap();
    assert!(matches!(
        ReleaseStore::open_dir(&sub).unwrap_err(),
        ServeError::Core(CoreError::Graph(GraphError::Binary { .. }))
    ));

    // Foreign schema version: the decoder refuses it naming both
    // versions, before it interprets another manifest byte. The
    // version is the manifest section's first field, and the container
    // digest is recomputed over the edit (XXH64 is a checksum, not a
    // MAC), so only the version check stands in the way.
    let sub = fresh("schema");
    let mut bytes = group_dp::core::codec::encode(&artifact("dblp", 1)).unwrap();
    let manifest_at = {
        let sections = group_dp::graph::binfmt::read_container(&bytes).unwrap();
        let (_, manifest) = sections
            .into_iter()
            .find(|&(tag, _)| tag == group_dp::core::codec::SECTION_MANIFEST)
            .unwrap();
        manifest.as_ptr() as usize - bytes.as_ptr() as usize
    };
    bytes[manifest_at..manifest_at + 4].copy_from_slice(&99u32.to_le_bytes());
    let digest = graph_io::xxh64(&[&bytes[..16], &bytes[24..]].concat());
    bytes[16..24].copy_from_slice(&digest.to_le_bytes());
    std::fs::write(sub.join("future.gda"), bytes).unwrap();
    match ReleaseStore::open_dir(&sub).unwrap_err() {
        ServeError::Core(CoreError::Artifact(message)) => {
            let supported = group_dp::core::ARTIFACT_SCHEMA_VERSION;
            assert!(message.contains("schema version 99"), "{message}");
            assert!(
                message.contains(&format!("reads version {supported}")),
                "{message}"
            );
        }
        other => panic!("wrong error: {other}"),
    }

    // Duplicate (dataset, epoch) across two files: refused by variant.
    let sub = fresh("duplicate");
    write(&sub, "a.gda", &artifact("dblp", 3));
    write(&sub, "b.gda", &artifact("dblp", 3));
    assert!(matches!(
        ReleaseStore::open_dir(&sub).unwrap_err(),
        ServeError::DuplicateRelease { epoch: 3, .. }
    ));

    // Control: the same artifacts under distinct keys scan fine.
    let sub = fresh("ok");
    write(&sub, "a.gda", &artifact("dblp", 3));
    write(&sub, "b.gda", &artifact("dblp", 4));
    let store = ReleaseStore::open_dir(&sub).unwrap();
    assert_eq!(store.epochs("dblp"), vec![3, 4]);

    std::fs::remove_dir_all(&dir).ok();
}

/// Damaged artifact files on disk — truncations, zero-byte stubs,
/// permission failures — surface as typed scan errors, and a directory
/// mutated *after* the scan cannot corrupt a store that already
/// loaded and indexed its artifacts in memory.
#[test]
fn release_store_survives_damaged_and_mutating_directories() {
    use group_dp::core::{
        DisclosureConfig as DC, MultiLevelDiscloser as MLD, Query, ReleaseArtifact,
    };
    use group_dp::serve::{Query as ServeQuery, ReleaseStore, ServeError};

    let dir = std::env::temp_dir().join(format!("gdp-damaged-dir-{}", std::process::id()));
    let fresh = |name: &str| {
        let sub = dir.join(name);
        std::fs::create_dir_all(&sub).unwrap();
        sub
    };
    let artifact = |dataset: &str, epoch: u64| -> ReleaseArtifact {
        let graph = tiny_graph();
        let hierarchy = Specializer::new(SpecializationConfig::median(2).unwrap())
            .specialize(&graph, &mut StdRng::seed_from_u64(7))
            .unwrap();
        let release = MLD::new(
            DC::count_only(0.5, 1e-6)
                .unwrap()
                .with_queries(vec![Query::PerGroupCounts]),
        )
        .disclose(&graph, &hierarchy, &mut StdRng::seed_from_u64(8))
        .unwrap();
        ReleaseArtifact::seal(dataset, epoch, hierarchy, release).unwrap()
    };
    let rendered = |dataset: &str, epoch: u64| -> Vec<u8> {
        group_dp::core::codec::encode(&artifact(dataset, epoch)).unwrap()
    };

    // A torn write: a valid container truncated mid-payload is a typed
    // binary-format error, never a partially-loaded release.
    let sub = fresh("truncated");
    let good = rendered("dblp", 1);
    std::fs::write(sub.join("torn.gda"), &good[..good.len() / 2]).unwrap();
    assert!(matches!(
        ReleaseStore::open_dir(&sub).unwrap_err(),
        ServeError::Core(CoreError::Graph(GraphError::Binary { .. }))
    ));

    // A zero-byte file (e.g. a crashed publisher that opened but never
    // wrote): same typed refusal.
    let sub = fresh("zero-byte");
    std::fs::write(sub.join("empty.gda"), b"").unwrap();
    assert!(matches!(
        ReleaseStore::open_dir(&sub).unwrap_err(),
        ServeError::Core(CoreError::Graph(GraphError::Binary { .. }))
    ));

    // An unreadable entry is an I/O error naming the failure, not a
    // panic. Permission bits do not bind the superuser, so only assert
    // when the OS actually refuses the read.
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        let sub = fresh("unreadable");
        std::fs::write(sub.join("locked.gda"), &good).unwrap();
        std::fs::set_permissions(
            sub.join("locked.gda"),
            std::fs::Permissions::from_mode(0o000),
        )
        .unwrap();
        if std::fs::read(sub.join("locked.gda")).is_err() {
            assert!(matches!(
                ReleaseStore::open_dir(&sub).unwrap_err(),
                ServeError::Core(CoreError::Graph(GraphError::Io(_)))
            ));
        }
        std::fs::set_permissions(
            sub.join("locked.gda"),
            std::fs::Permissions::from_mode(0o644),
        )
        .unwrap();
    }

    // The scan parses and indexes every artifact. Deleting (or
    // corrupting) the files between the scan and the first lookup must
    // not matter: the store answers from memory, not the directory.
    let sub = fresh("mutated");
    std::fs::write(sub.join("a.gda"), rendered("dblp", 3)).unwrap();
    std::fs::write(sub.join("b.gda"), rendered("dblp", 4)).unwrap();
    let store = ReleaseStore::open_dir(&sub).unwrap();
    std::fs::write(sub.join("a.gda"), "{ vandalized").unwrap();
    std::fs::remove_file(sub.join("b.gda")).unwrap();
    for epoch in [3, 4] {
        let indexed = store.get("dblp", epoch).unwrap();
        let answer = indexed
            .answer(
                0,
                &ServeQuery::SideTotal {
                    side: group_dp::graph::Side::Left,
                },
            )
            .unwrap();
        assert!(answer.scalar().is_some(), "epoch {epoch} lost its payload");
    }

    std::fs::remove_dir_all(&dir).ok();
}
