//! Durable store lifecycle: crash-safe publish, torn-write tolerance,
//! quarantine, retention GC, and live directory merges.
//!
//! The acceptance scenario pinned here: a publisher killed mid-publish
//! (simulated via an interrupted atomic write) must leave
//! `open_dir_report` serving every previously-committed epoch
//! **bit-identically**, with the partial file quarantined.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use gdp_core::{
    CoreError, DisclosureConfig, MultiLevelDiscloser, Query, ReleaseArtifact, SpecializationConfig,
    Specializer,
};
use gdp_graph::{GraphBuilder, GraphError, LeftId, RightId, Side};
use gdp_serve::lifecycle::QUARANTINE_DIR;
use gdp_serve::{
    AnswerService, FileOutcome, IndexedRelease, Query as ServeQuery, ReleaseStore, RetentionPolicy,
    ServeError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deliberately tiny sealed artifact (a few KB encoded) so the
/// every-byte truncation sweep stays fast.
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
    gdp_core::codec::encode(a).unwrap()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdp-lifecycle-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn publish_into(dir: &Path, a: &ReleaseArtifact) -> PathBuf {
    let path = dir.join(ReleaseArtifact::canonical_file_name(a.dataset(), a.epoch()));
    a.save_atomic(&path).unwrap();
    path
}

/// The coarsest level of an artifact, servable by a privilege of the
/// same rank — the simplest always-allowed answering probe.
fn coarse_total(service: &AnswerService, dataset: &str, epoch: u64, levels: usize) -> f64 {
    let level = levels - 1;
    service
        .answer_typed(
            dataset,
            epoch,
            gdp_core::Privilege::new(level),
            level,
            &ServeQuery::SideTotal { side: Side::Left },
        )
        .unwrap()
        .scalar()
        .unwrap()
}

#[test]
fn torn_write_truncation_sweep_is_typed_never_panics() {
    // Every prefix of a published file, loaded from disk the way a
    // store or `gdp answer --artifact` loads it.
    let dir = fresh_dir("torn-sweep");
    let bytes = encoded(&artifact("torn", 1, 11));
    let path = dir.join("torn-e1.gda");
    for cut in 0..bytes.len() {
        fs::write(&path, &bytes[..cut]).unwrap();
        match ReleaseArtifact::load(&path) {
            Ok(_) => panic!("cut {cut} loaded a torn file"),
            Err(CoreError::Graph(GraphError::Binary { .. })) => {}
            Err(other) => panic!("cut {cut}: unexpected error class: {other}"),
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_writes_on_disk_are_quarantined() {
    let a = artifact("torn", 1, 12);
    let bytes = encoded(&a);
    // A spread of truncation points, from the header to one byte short.
    let cuts = [
        1,
        bytes.len() / 4,
        bytes.len() / 2,
        3 * bytes.len() / 4,
        bytes.len() - 2,
    ];
    for cut in cuts {
        let dir = fresh_dir(&format!("torn-disk-{cut}"));
        fs::write(dir.join("torn-e1.gda"), &bytes[..cut]).unwrap();
        let (store, report) = ReleaseStore::open_dir_report(&dir).unwrap();
        assert_eq!(store.len(), 0, "cut {cut} must not serve");
        assert_eq!(report.quarantined(), 1, "cut {cut}: {}", report.summary());
        assert!(
            !dir.join("torn-e1.gda").exists(),
            "cut {cut}: torn file must be moved out of the scan path"
        );
        assert!(
            dir.join(QUARANTINE_DIR).join("torn-e1.gda").exists(),
            "cut {cut}: quarantine must capture the bytes"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn crash_sim_kill_mid_publish_serves_committed_epochs_bit_identically() {
    let dir = fresh_dir("crash-sim");
    let a1 = artifact("weekly", 1, 21);
    let a2 = artifact("weekly", 2, 22);
    publish_into(&dir, &a1);
    publish_into(&dir, &a2);
    // Baseline answers from a clean store.
    let (clean, _) = ReleaseStore::open_dir_report(&dir).unwrap();
    let levels = a1.level_count();
    let clean_service = AnswerService::new(clean);
    let baseline: Vec<f64> = (1..=2)
        .map(|e| coarse_total(&clean_service, "weekly", e, levels))
        .collect();

    // Kill-mid-publish, variant A: the process died before the rename,
    // leaving staged `*.tmp` debris of epoch 3.
    let a3 = artifact("weekly", 3, 23);
    let t3 = encoded(&a3);
    fs::write(dir.join("weekly-e3.gda.tmp"), &t3[..t3.len() / 2]).unwrap();
    // Variant B: a torn write that did reach the final path (a
    // pre-atomic-discipline publisher, or storage that lied about
    // durability) for epoch 4.
    let a4 = artifact("weekly", 4, 24);
    let t4 = encoded(&a4);
    fs::write(dir.join("weekly-e4.gda"), &t4[..(2 * t4.len()) / 3]).unwrap();

    let (store, report) = ReleaseStore::open_dir_report(&dir).unwrap();
    // Both partials quarantined, nothing else disturbed.
    assert_eq!(report.quarantined(), 2, "{}", report.summary());
    assert_eq!(report.loaded(), 2, "{}", report.summary());
    assert_eq!(store.epochs("weekly"), vec![1, 2]);
    assert!(dir.join(QUARANTINE_DIR).join("weekly-e3.gda.tmp").exists());
    assert!(dir.join(QUARANTINE_DIR).join("weekly-e4.gda").exists());
    assert!(!dir.join("weekly-e3.gda.tmp").exists());
    assert!(!dir.join("weekly-e4.gda").exists());

    // Committed epochs are byte-for-byte what was published…
    assert_eq!(*store.get("weekly", 1).unwrap().artifact(), a1);
    assert_eq!(*store.get("weekly", 2).unwrap().artifact(), a2);
    // …and answers are bit-identical to the pre-crash store's.
    let service = AnswerService::new(ReleaseStore::open_dir_report(&dir).unwrap().0);
    for (i, epoch) in (1..=2).enumerate() {
        let after = coarse_total(&service, "weekly", epoch, levels);
        assert_eq!(
            after.to_bits(),
            baseline[i].to_bits(),
            "epoch {epoch} answer changed across the crash"
        );
    }

    // A second open finds a clean directory: no partials left to sweep.
    let (_, second) = ReleaseStore::open_dir_report(&dir).unwrap();
    assert_eq!(second.quarantined(), 0, "{}", second.summary());
    assert_eq!(second.loaded(), 2);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn strict_open_dir_skips_strays_and_report_notes_them() {
    let dir = fresh_dir("strays");
    let a = artifact("d", 1, 31);
    publish_into(&dir, &a);
    fs::create_dir_all(dir.join("not-an-artifact.gda")).unwrap(); // subdir with .gda name
    fs::write(dir.join(".hidden-artifact.gda"), "x").unwrap();
    fs::write(dir.join("d-e1.gda~"), "backup").unwrap();
    fs::write(dir.join("d-e1.gda.bak"), "backup").unwrap();
    fs::write(dir.join("notes.txt"), "operator notes").unwrap();
    // A JSON export next to the artifact it came from (`gdp convert`).
    let mut export = Vec::new();
    gdp_graph::io::write_json(&a, &mut export).unwrap();
    fs::write(dir.join("d-e1.json"), &export).unwrap();

    // Strict open no longer chokes on any of these.
    let store = ReleaseStore::open_dir(&dir).unwrap();
    assert_eq!(store.len(), 1);
    assert_eq!(store.epochs("d"), vec![1]);

    // The degraded open names each one with a typed note.
    let (_, report) = ReleaseStore::open_dir_report(&dir).unwrap();
    assert_eq!(report.loaded(), 1);
    assert_eq!(report.quarantined(), 0);
    assert_eq!(report.strays(), 6, "{}", report.summary());
    let notes: Vec<&str> = report
        .outcomes
        .iter()
        .filter_map(|o| match o {
            FileOutcome::Stray { note, .. } => Some(note.as_str()),
            _ => None,
        })
        .collect();
    assert!(notes.contains(&"directory"), "{notes:?}");
    assert!(notes.contains(&"hidden file"), "{notes:?}");
    assert!(notes.contains(&"editor backup"), "{notes:?}");
    assert!(notes.contains(&"not an artifact file (.gda)"), "{notes:?}");
    assert!(
        notes
            .iter()
            .any(|n| n.contains("JSON is an export, not served")),
        "{notes:?}"
    );
    // A stray is skipped, never quarantined: the export stays in place.
    assert_eq!(fs::read(dir.join("d-e1.json")).unwrap(), export);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn strict_open_dir_still_types_checksum_corruption() {
    let dir = fresh_dir("strict-checksum");
    let mut bytes = encoded(&artifact("d", 1, 32));
    // Flip a bit of the last noisy value; the manifest still matches
    // the payload's shape, so only the container digest catches it.
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    fs::write(dir.join("d-e1.gda"), &bytes).unwrap();

    let err = ReleaseStore::open_dir(&dir).unwrap_err();
    assert!(
        matches!(&err, ServeError::Core(CoreError::Graph(GraphError::Binary { message, .. }))
            if message.contains("digest mismatch")),
        "{err}"
    );
    // Degraded open quarantines it with the same reason.
    let (store, report) = ReleaseStore::open_dir_report(&dir).unwrap();
    assert!(store.is_empty());
    assert_eq!(report.quarantined(), 1);
    let FileOutcome::Quarantined { reason, .. } = &report.outcomes[0] else {
        panic!("expected a quarantine outcome: {report:?}");
    };
    assert!(reason.contains("digest mismatch"), "{reason}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn merge_dir_hot_reloads_new_epochs_and_retires_deleted_ones() {
    let dir = fresh_dir("merge");
    let a1 = artifact("d", 1, 41);
    let p1 = publish_into(&dir, &a1);
    let (store, _) = ReleaseStore::open_dir_report(&dir).unwrap();
    assert_eq!(store.epochs("d"), vec![1]);

    // A new epoch lands while the store is live.
    let a2 = artifact("d", 2, 42);
    publish_into(&dir, &a2);
    let report = store.merge_dir(&dir).unwrap();
    assert_eq!(report.loaded(), 1, "{}", report.summary());
    assert_eq!(report.already_registered(), 1);
    assert_eq!(store.epochs("d"), vec![1, 2]);
    assert_eq!(*store.get("d", 2).unwrap().artifact(), a2);

    // An in-flight atomic publish is left alone by a live re-scan.
    fs::write(dir.join("d-e9.gda.tmp"), "half-written").unwrap();
    let report = store.merge_dir(&dir).unwrap();
    assert_eq!(report.quarantined(), 0, "{}", report.summary());
    assert!(dir.join("d-e9.gda.tmp").exists(), "live tmp must survive");
    assert!(report.outcomes.iter().any(|o| matches!(
        o,
        FileOutcome::Stray { note, .. } if note.contains("in flight")
    )));
    fs::remove_file(dir.join("d-e9.gda.tmp")).unwrap();

    // Deleting a backing file (e.g. an external `gdp gc`) retires the
    // epoch on the next merge: typed 404, not stale serving.
    fs::remove_file(&p1).unwrap();
    let report = store.merge_dir(&dir).unwrap();
    assert_eq!(report.retired(), 1, "{}", report.summary());
    assert_eq!(store.epochs("d"), vec![2]);
    assert!(matches!(
        store.get("d", 1).unwrap_err(),
        ServeError::UnknownRelease { epoch: 1, .. }
    ));

    // Vandalizing a served epoch's file quarantines the file but the
    // validated in-memory copy keeps serving — now and after further
    // merges (the entry is detached from disk, not retired).
    fs::write(
        dir.join(ReleaseArtifact::canonical_file_name("d", 2)),
        "{garbage",
    )
    .unwrap();
    let report = store.merge_dir(&dir).unwrap();
    assert_eq!(report.quarantined(), 1, "{}", report.summary());
    assert_eq!(*store.get("d", 2).unwrap().artifact(), a2);
    let report = store.merge_dir(&dir).unwrap();
    assert_eq!(report.retired(), 0, "{}", report.summary());
    assert_eq!(store.epochs("d"), vec![2]);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn merge_dir_never_retires_programmatic_inserts() {
    let dir = fresh_dir("merge-mem");
    publish_into(&dir, &artifact("d", 1, 43));
    let (store, _) = ReleaseStore::open_dir_report(&dir).unwrap();
    // A memory-only insert has no backing file anywhere.
    store
        .insert(IndexedRelease::new(artifact("mem", 7, 44)).unwrap())
        .unwrap();
    let report = store.merge_dir(&dir).unwrap();
    assert_eq!(report.retired(), 0, "{}", report.summary());
    assert_eq!(store.epochs("mem"), vec![7]);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gc_keep_last_durably_deletes_only_superseded_epochs() {
    let dir = fresh_dir("gc");
    for epoch in 1..=5 {
        publish_into(&dir, &artifact("d", epoch, 50 + epoch));
    }
    let (store, _) = ReleaseStore::open_dir_report(&dir).unwrap();
    let report = store.gc(&RetentionPolicy::keep_last(2), None);
    assert_eq!(report.evicted(), 3, "{}", report.summary());
    assert_eq!(report.failed_deletions(), 0);
    assert_eq!(store.epochs("d"), vec![4, 5]);
    assert!(matches!(
        store.get("d", 1).unwrap_err(),
        ServeError::UnknownRelease { .. }
    ));
    for epoch in 1..=3u64 {
        assert!(
            !dir.join(ReleaseArtifact::canonical_file_name("d", epoch))
                .exists(),
            "epoch {epoch} file must be deleted"
        );
    }
    // The surviving files reload to exactly the surviving epochs.
    let (reopened, _) = ReleaseStore::open_dir_report(&dir).unwrap();
    assert_eq!(reopened.epochs("d"), vec![4, 5]);
    // GC is idempotent.
    assert_eq!(store.gc(&RetentionPolicy::keep_last(2), None).evicted(), 0);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gc_honors_dataset_filter_and_memory_only_entries() {
    let dir = fresh_dir("gc-filter");
    for epoch in 1..=3 {
        publish_into(&dir, &artifact("a", epoch, 60 + epoch));
        publish_into(&dir, &artifact("b", epoch, 70 + epoch));
    }
    let (store, _) = ReleaseStore::open_dir_report(&dir).unwrap();
    let report = store.gc(&RetentionPolicy::keep_last(1), Some("a"));
    assert_eq!(report.evicted(), 2);
    assert!(report.evictions.iter().all(|e| e.dataset == "a"));
    assert_eq!(store.epochs("a"), vec![3]);
    assert_eq!(
        store.epochs("b"),
        vec![1, 2, 3],
        "filtered dataset untouched"
    );

    // Memory-only entries evict without touching disk.
    store
        .insert(IndexedRelease::new(artifact("mem", 1, 81)).unwrap())
        .unwrap();
    store
        .insert(IndexedRelease::new(artifact("mem", 2, 82)).unwrap())
        .unwrap();
    let report = store.gc(&RetentionPolicy::keep_last(1), Some("mem"));
    assert_eq!(report.evicted(), 1);
    assert_eq!(report.evictions[0].path, None);
    assert!(report.evictions[0].deleted);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn quarantine_preserves_colliding_names() {
    let dir = fresh_dir("quarantine-collide");
    fs::write(dir.join("d-e1.gda"), "{torn").unwrap();
    let (_, report) = ReleaseStore::open_dir_report(&dir).unwrap();
    assert_eq!(report.quarantined(), 1);
    // Same damaged name appears again (republish also crashed).
    fs::write(dir.join("d-e1.gda"), "{torn again").unwrap();
    let (_, report) = ReleaseStore::open_dir_report(&dir).unwrap();
    assert_eq!(report.quarantined(), 1);
    let qdir = dir.join(QUARANTINE_DIR);
    assert!(qdir.join("d-e1.gda").exists());
    assert!(qdir.join("d-e1.gda.1").exists(), "second capture suffixed");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn idle_merge_skips_unchanged_files_and_rereads_touched_ones() {
    let dir = fresh_dir("idle");
    let a = artifact("d", 1, 91);
    let path = publish_into(&dir, &a);
    let (store, _) = ReleaseStore::open_dir_report(&dir).unwrap();

    // Garble the registered file's bytes but restore its length and
    // mtime: an idle re-scan trusts the stamp and does not read it.
    let modified = fs::metadata(&path).unwrap().modified().unwrap();
    let mut bytes = fs::read(&path).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0xff;
    fs::write(&path, &bytes).unwrap();
    let set_mtime = |to| {
        fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(to)
            .unwrap()
    };
    set_mtime(modified);
    let report = store.merge_dir(&dir).unwrap();
    assert_eq!(report.already_registered(), 1, "{}", report.summary());
    assert_eq!(
        report.quarantined() + report.retired(),
        0,
        "{}",
        report.summary()
    );
    assert_eq!(*store.get("d", 1).unwrap().artifact(), a);
    // A fresh open still reads everything, so it catches the bit rot.
    assert!(matches!(
        ReleaseStore::open_dir(&dir).unwrap_err(),
        ServeError::Core(CoreError::Graph(GraphError::Binary { .. }))
    ));

    // A new mtime makes the next re-scan read the file: it is
    // quarantined, and the validated in-memory epoch keeps serving.
    set_mtime(modified + Duration::from_secs(1));
    let report = store.merge_dir(&dir).unwrap();
    assert_eq!(report.quarantined(), 1, "{}", report.summary());
    assert!(dir.join(QUARANTINE_DIR).join("d-e1.gda").exists());
    assert_eq!(*store.get("d", 1).unwrap().artifact(), a);
    let report = store.merge_dir(&dir).unwrap();
    assert_eq!(report.retired(), 0, "{}", report.summary());
    assert_eq!(store.epochs("d"), vec![1]);
    fs::remove_dir_all(&dir).unwrap();
}
