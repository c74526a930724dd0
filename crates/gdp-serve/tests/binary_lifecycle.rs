//! Durable-store lifecycle on the `.gda` container bytes themselves:
//! torn-write quarantine at every probe cut, digest-caught bit rot,
//! hot-reload, retention GC, and the duplicate rule — the same
//! `(dataset, epoch)` under two file names is a typed duplicate naming
//! both files, never last-scan-wins.

use std::fs;
use std::path::{Path, PathBuf};

use gdp_core::{
    CoreError, DisclosureConfig, MultiLevelDiscloser, Query, ReleaseArtifact, SpecializationConfig,
    Specializer,
};
use gdp_graph::{GraphBuilder, GraphError, LeftId, RightId};
use gdp_serve::lifecycle::QUARANTINE_DIR;
use gdp_serve::{FileOutcome, ReleaseStore, RetentionPolicy, ServeError};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deliberately tiny sealed artifact (a few KB encoded) so the
/// every-byte corruption sweeps stay fast.
fn artifact(dataset: &str, epoch: u64, seed: u64) -> ReleaseArtifact {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(6, 6);
    for (l, r) in [
        (0, 0),
        (1, 1),
        (2, 2),
        (3, 3),
        (4, 4),
        (5, 5),
        (0, 1),
        (2, 3),
    ] {
        b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
    }
    let graph = b.build();
    let hierarchy = Specializer::new(SpecializationConfig::median(1).unwrap())
        .specialize(&graph, &mut rng)
        .unwrap();
    let release = MultiLevelDiscloser::new(
        DisclosureConfig::count_only(0.5, 1e-6)
            .unwrap()
            .with_queries(vec![Query::PerGroupCounts, Query::TotalAssociations]),
    )
    .disclose(&graph, &hierarchy, &mut rng)
    .unwrap();
    ReleaseArtifact::seal(dataset, epoch, hierarchy, release).unwrap()
}

fn encoded(a: &ReleaseArtifact) -> Vec<u8> {
    let mut buf = Vec::new();
    a.write_binary(&mut buf).unwrap();
    buf
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdp-binlife-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn publish(dir: &Path, a: &ReleaseArtifact) -> PathBuf {
    let path = dir.join(ReleaseArtifact::canonical_file_name(a.dataset(), a.epoch()));
    a.save_atomic(&path).unwrap();
    path
}

#[test]
fn torn_binary_writes_on_disk_are_quarantined_at_every_probe_cut() {
    let bytes = encoded(&artifact("torn", 1, 11));
    // Header, table, early payload, late payload, one-byte-short.
    let cuts = [
        0,
        7,
        23,
        40,
        bytes.len() / 4,
        bytes.len() / 2,
        3 * bytes.len() / 4,
        bytes.len() - 1,
    ];
    for cut in cuts {
        let dir = fresh_dir(&format!("torn-{cut}"));
        fs::write(dir.join("torn-e1.gda"), &bytes[..cut]).unwrap();
        let (store, report) = ReleaseStore::open_dir_report(&dir).unwrap();
        assert_eq!(store.len(), 0, "cut {cut} must not serve");
        assert_eq!(report.quarantined(), 1, "cut {cut}: {}", report.summary());
        assert!(
            dir.join(QUARANTINE_DIR).join("torn-e1.gda").exists(),
            "cut {cut}: quarantine must capture the bytes"
        );
        let FileOutcome::Quarantined { reason, .. } = &report.outcomes[0] else {
            panic!("cut {cut}: expected a quarantine outcome: {report:?}");
        };
        assert!(
            reason.contains("binary format error"),
            "cut {cut}: {reason}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn truncation_at_every_byte_is_a_typed_error_never_a_panic() {
    let bytes = encoded(&artifact("torn", 1, 12));
    for cut in 0..bytes.len() {
        match ReleaseArtifact::read_binary(&bytes[..cut]) {
            Ok(_) => panic!("cut {cut} loaded a torn container"),
            Err(CoreError::Graph(GraphError::Binary { .. })) => {}
            Err(other) => panic!("cut {cut}: unexpected error class: {other}"),
        }
    }
}

#[test]
fn bit_rot_is_caught_by_the_container_digest_and_quarantined() {
    let bytes = encoded(&artifact("rot", 3, 13));
    // One flip in the header, one in the section table, one deep in
    // the payload — including a flip of a noisy value, which no
    // validation but the digest could catch.
    for byte in [2usize, 30, bytes.len() / 2, bytes.len() - 3] {
        let mut doctored = bytes.clone();
        doctored[byte] ^= 0x10;
        let dir = fresh_dir(&format!("rot-{byte}"));
        fs::write(dir.join("rot-e3.gda"), &doctored).unwrap();
        let err = ReleaseStore::open_dir(&dir).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Core(CoreError::Graph(GraphError::Binary { .. }))
            ),
            "byte {byte}: {err}"
        );
        let (store, report) = ReleaseStore::open_dir_report(&dir).unwrap();
        assert!(store.is_empty(), "byte {byte} must not serve");
        assert_eq!(report.quarantined(), 1, "byte {byte}: {}", report.summary());
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn merge_dir_hot_reloads_a_live_published_binary_epoch() {
    let dir = fresh_dir("merge");
    let a1 = artifact("d", 1, 41);
    publish(&dir, &a1);
    let (store, report) = ReleaseStore::open_dir_report(&dir).unwrap();
    assert_eq!(report.loaded(), 1, "{}", report.summary());
    assert_eq!(store.epochs("d"), vec![1]);

    // A binary epoch lands while the store is live.
    let a2 = artifact("d", 2, 42);
    publish(&dir, &a2);
    let report = store.merge_dir(&dir).unwrap();
    assert_eq!(report.loaded(), 1, "{}", report.summary());
    assert_eq!(store.epochs("d"), vec![1, 2]);
    assert_eq!(*store.get("d", 2).unwrap().artifact(), a2);

    // A staged publish (`.gda.tmp`) is left alone by a live re-scan.
    fs::write(dir.join("d-e9.gda.tmp"), "half-written").unwrap();
    let report = store.merge_dir(&dir).unwrap();
    assert_eq!(report.quarantined(), 0, "{}", report.summary());
    assert!(dir.join("d-e9.gda.tmp").exists(), "live tmp must survive");
    fs::remove_file(dir.join("d-e9.gda.tmp")).unwrap();

    // …but a fresh open sweeps it as dead-publish debris.
    fs::write(dir.join("d-e9.gda.tmp"), "half-written").unwrap();
    let (_, report) = ReleaseStore::open_dir_report(&dir).unwrap();
    assert_eq!(report.quarantined(), 1, "{}", report.summary());
    assert!(!dir.join("d-e9.gda.tmp").exists());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gc_durably_deletes_superseded_binary_epochs() {
    let dir = fresh_dir("gc");
    for epoch in 1..=4 {
        publish(&dir, &artifact("d", epoch, 50 + epoch));
    }
    let (store, _) = ReleaseStore::open_dir_report(&dir).unwrap();
    let report = store.gc(&RetentionPolicy::keep_last(1), None);
    assert_eq!(report.evicted(), 3, "{}", report.summary());
    assert_eq!(report.failed_deletions(), 0);
    assert_eq!(store.epochs("d"), vec![4]);
    for epoch in 1..=3u64 {
        let gone = dir.join(ReleaseArtifact::canonical_file_name("d", epoch));
        assert!(!gone.exists(), "epoch {epoch} file must be deleted");
    }
    let (reopened, _) = ReleaseStore::open_dir_report(&dir).unwrap();
    assert_eq!(reopened.epochs("d"), vec![4]);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn same_format_duplicate_is_a_typed_error_naming_both_files() {
    let dir = fresh_dir("dup");
    let a = artifact("d", 1, 61);
    let first = publish(&dir, &a);
    // The same epoch again under a second name (an operator's copy).
    let copy = dir.join("d-e1-copy.gda");
    a.save_atomic(&copy).unwrap();

    // Strict open refuses the directory and names both files.
    let err = ReleaseStore::open_dir(&dir).unwrap_err();
    let ServeError::DuplicateRelease {
        dataset,
        epoch,
        paths,
    } = err
    else {
        panic!("expected DuplicateRelease, got {err}");
    };
    assert_eq!((dataset.as_str(), epoch), ("d", 1));
    assert_eq!(
        paths,
        vec![copy.display().to_string(), first.display().to_string()],
        "both colliding files must be named, in scan order"
    );

    // Degraded open keeps serving deterministically: the first file in
    // name order wins, the other is reported with both paths and left
    // untouched on disk.
    let (store, report) = ReleaseStore::open_dir_report(&dir).unwrap();
    assert_eq!(store.epochs("d"), vec![1]);
    assert_eq!(report.loaded(), 1, "{}", report.summary());
    assert_eq!(report.already_registered(), 1, "{}", report.summary());
    let dup = report
        .outcomes
        .iter()
        .find_map(|o| match o {
            FileOutcome::AlreadyRegistered { path, existing, .. } => {
                Some((path.clone(), existing.clone()))
            }
            _ => None,
        })
        .expect("duplicate outcome reported");
    assert_eq!(dup.0, first.display().to_string());
    assert_eq!(dup.1, Some(copy.display().to_string()));
    assert!(first.exists() && copy.exists(), "no file is disturbed");
    assert_eq!(*store.get("d", 1).unwrap().artifact(), a);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn save_atomic_binary_leaves_no_tmp_and_survives_reopen() {
    let dir = fresh_dir("atomic");
    let a = artifact("d", 1, 71);
    let path = publish(&dir, &a);
    // No staging debris after a successful atomic publish.
    let entries: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(entries, vec!["d-e1.gda"], "{entries:?}");
    assert_eq!(ReleaseArtifact::load(&path).unwrap(), a);
    fs::remove_dir_all(&dir).unwrap();
}
