//! Store lifecycle vocabulary — the typed per-file outcomes a degraded
//! directory scan reports, and the retention policies GC enforces.
//!
//! The paper's deployment story is *recurring* disclosure: a publisher
//! re-releases a dataset every epoch, forever. That turns the artifact
//! directory into a long-lived, crash-exposed, operator-edited piece of
//! state, and the store's job is to keep serving through whatever it
//! finds there. [`FileOutcome`] is the complete taxonomy of what a scan
//! can decide about one directory entry; [`OpenReport`] aggregates a
//! scan; [`RetentionPolicy`] + [`GcReport`] cover the eviction half of
//! the lifecycle. All types serialize, so the CLI and the serving
//! frontend can surface them verbatim.

use serde::{Deserialize, Serialize};

/// Subdirectory (of a scanned artifact directory) that damaged files
/// are moved into instead of being deleted: torn atomic-publish debris,
/// containers that fail digest verification or validation. Files in
/// quarantine keep their bytes for post-mortem inspection and are never
/// scanned as artifacts.
pub const QUARANTINE_DIR: &str = "quarantine";

/// What a degraded directory scan decided about one directory entry.
///
/// Paths are rendered (`Display`) rather than `PathBuf` so reports
/// serialize cleanly into CLI output, `/stats` and admin responses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FileOutcome {
    /// The file held a valid artifact and is now registered.
    Loaded {
        /// Dataset key of the loaded artifact.
        dataset: String,
        /// Epoch key of the loaded artifact.
        epoch: u64,
        /// The file it was loaded from.
        path: String,
    },
    /// The file held a valid artifact whose `(dataset, epoch)` the
    /// store already serves — left in place, nothing replaced
    /// (published artifacts are immutable). A re-scan reports every
    /// file it registered earlier here, and one epoch under two file
    /// names lands here in degraded scans: the first file in name order
    /// serves, the other is reported with both paths.
    AlreadyRegistered {
        /// Dataset key of the duplicate.
        dataset: String,
        /// Epoch key of the duplicate.
        epoch: u64,
        /// The file holding the duplicate.
        path: String,
        /// The file already backing the registered release, when it
        /// was loaded from disk (`None` for programmatic inserts).
        existing: Option<String>,
    },
    /// A non-artifact directory entry (subdirectory, hidden file,
    /// editor backup, a `.json` export, any other extension) — skipped
    /// where a strict scan would have choked, left in place.
    Stray {
        /// The skipped entry.
        path: String,
        /// Why it was skipped.
        note: String,
    },
    /// A damaged artifact (torn write, digest mismatch, foreign
    /// schema, malformed container) — moved into [`QUARANTINE_DIR`] so the
    /// next scan is clean while the bytes survive for inspection.
    Quarantined {
        /// Where the file was.
        path: String,
        /// Where it is now (inside the quarantine directory).
        moved_to: String,
        /// The typed error that condemned it, rendered.
        reason: String,
    },
    /// A registered release whose backing file disappeared from the
    /// directory (retention GC or operator deletion) — dropped from the
    /// store so consumers see a typed `UnknownRelease`, not stale data.
    Retired {
        /// Dataset key of the retired release.
        dataset: String,
        /// Epoch key of the retired release.
        epoch: u64,
        /// The path that no longer exists.
        path: String,
    },
}

/// Aggregate of one degraded directory scan
/// ([`ReleaseStore::open_dir_report`](crate::ReleaseStore::open_dir_report) /
/// [`ReleaseStore::merge_dir`](crate::ReleaseStore::merge_dir)): every
/// directory entry's [`FileOutcome`], in deterministic (name-sorted)
/// visit order, retirements last.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OpenReport {
    /// Per-entry outcomes in visit order.
    pub outcomes: Vec<FileOutcome>,
}

impl OpenReport {
    fn count(&self, pred: impl Fn(&FileOutcome) -> bool) -> usize {
        self.outcomes.iter().filter(|o| pred(o)).count()
    }

    /// Number of artifacts newly registered by this scan.
    pub fn loaded(&self) -> usize {
        self.count(|o| matches!(o, FileOutcome::Loaded { .. }))
    }

    /// Number of files whose `(dataset, epoch)` was already served.
    pub fn already_registered(&self) -> usize {
        self.count(|o| matches!(o, FileOutcome::AlreadyRegistered { .. }))
    }

    /// Number of non-artifact entries skipped in place.
    pub fn strays(&self) -> usize {
        self.count(|o| matches!(o, FileOutcome::Stray { .. }))
    }

    /// Number of damaged files moved to quarantine.
    pub fn quarantined(&self) -> usize {
        self.count(|o| matches!(o, FileOutcome::Quarantined { .. }))
    }

    /// Number of releases dropped because their backing file vanished.
    pub fn retired(&self) -> usize {
        self.count(|o| matches!(o, FileOutcome::Retired { .. }))
    }

    /// One-line human summary, stable enough to log.
    pub fn summary(&self) -> String {
        format!(
            "{} loaded, {} already registered, {} stray, {} quarantined, {} retired",
            self.loaded(),
            self.already_registered(),
            self.strays(),
            self.quarantined(),
            self.retired()
        )
    }
}

/// Which epochs of a dataset survive a GC pass. Both knobs compose
/// (an epoch is evicted if *either* marks it); the newest epoch of a
/// dataset is **never** evicted, so GC only deletes fully-superseded
/// releases and a served dataset never becomes empty.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RetentionPolicy {
    /// Keep at most this many newest epochs (`None` = unlimited).
    /// Clamped to at least 1: the newest epoch always survives.
    pub keep_last: Option<usize>,
    /// Evict epochs more than this many epoch-numbers older than the
    /// dataset's newest (`None` = no age limit). Ages are measured in
    /// epoch units — the publisher's own clock — not wall time, so GC
    /// stays deterministic and testable.
    pub max_epoch_age: Option<u64>,
}

impl RetentionPolicy {
    /// Keep everything (the identity policy — `gc` becomes a no-op).
    pub fn keep_all() -> Self {
        Self::default()
    }

    /// Keep only the `n` newest epochs per dataset (`n` is clamped to
    /// at least 1).
    pub fn keep_last(n: usize) -> Self {
        Self {
            keep_last: Some(n.max(1)),
            max_epoch_age: None,
        }
    }

    /// Additionally evict epochs whose distance from the newest epoch
    /// exceeds `age` (a TTL counted in epoch units).
    pub fn with_max_epoch_age(mut self, age: u64) -> Self {
        self.max_epoch_age = Some(age);
        self
    }

    /// The epochs this policy evicts from `epochs` (any order,
    /// duplicates tolerated), ascending. The newest epoch is never in
    /// the plan.
    pub fn evict_plan(&self, epochs: &[u64]) -> Vec<u64> {
        let mut sorted: Vec<u64> = epochs.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let Some(&newest) = sorted.last() else {
            return Vec::new();
        };
        let keep = self.keep_last.map(|n| n.max(1));
        sorted
            .iter()
            .copied()
            .filter(|&epoch| {
                if epoch == newest {
                    return false;
                }
                // Rank 0 = newest; an epoch survives keep_last(n) only
                // while its rank is below n.
                let rank = sorted.iter().filter(|&&e| e > epoch).count();
                let too_many = keep.is_some_and(|n| rank >= n);
                let too_old = self.max_epoch_age.is_some_and(|age| newest - epoch > age);
                too_many || too_old
            })
            .collect()
    }
}

/// One evicted release in a [`GcReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GcEviction {
    /// Dataset key of the evicted release.
    pub dataset: String,
    /// Epoch key of the evicted release.
    pub epoch: u64,
    /// The backing file, if the release was loaded from (or saved to)
    /// disk; `None` for memory-only entries.
    pub path: Option<String>,
    /// Whether the backing file was durably deleted (vacuously `true`
    /// for memory-only entries).
    pub deleted: bool,
    /// The rendered deletion error, when `deleted` is `false`.
    pub error: Option<String>,
}

/// Aggregate of one [`ReleaseStore::gc`](crate::ReleaseStore::gc)
/// pass: every eviction, with per-file deletion outcomes. Deletion
/// failures are recorded, not raised — GC keeps going so one
/// undeletable file cannot pin a disk full of superseded epochs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GcReport {
    /// Evictions in `(dataset, epoch)` order.
    pub evictions: Vec<GcEviction>,
}

impl GcReport {
    /// Number of releases dropped from the store.
    pub fn evicted(&self) -> usize {
        self.evictions.len()
    }

    /// Number of evictions whose backing file failed to delete.
    pub fn failed_deletions(&self) -> usize {
        self.evictions.iter().filter(|e| !e.deleted).count()
    }

    /// One-line human summary, stable enough to log.
    pub fn summary(&self) -> String {
        format!(
            "{} evicted, {} failed deletions",
            self.evicted(),
            self.failed_deletions()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evict_plan_respects_keep_last_and_never_touches_newest() {
        let p = RetentionPolicy::keep_last(2);
        assert_eq!(p.evict_plan(&[1, 2, 3, 4, 5]), vec![1, 2, 3]);
        assert_eq!(
            p.evict_plan(&[5, 1, 3, 2, 4]),
            vec![1, 2, 3],
            "order-insensitive"
        );
        assert_eq!(p.evict_plan(&[7]), Vec::<u64>::new());
        assert_eq!(p.evict_plan(&[]), Vec::<u64>::new());
        // keep_last(0) clamps to 1: everything but the newest goes.
        let p = RetentionPolicy::keep_last(0);
        assert_eq!(p.evict_plan(&[1, 2, 3]), vec![1, 2]);
    }

    #[test]
    fn evict_plan_ttl_and_union_semantics() {
        // TTL alone: newest is 10, age 3 keeps epochs > 7.
        let p = RetentionPolicy::keep_all().with_max_epoch_age(3);
        assert_eq!(p.evict_plan(&[1, 6, 8, 10]), vec![1, 6]);
        // The newest epoch is immune even to a zero TTL.
        let p = RetentionPolicy::keep_all().with_max_epoch_age(0);
        assert_eq!(p.evict_plan(&[9, 10]), vec![9]);
        // Union: keep_last(3) alone keeps {6, 8, 10}; TTL 2 also evicts 6.
        let p = RetentionPolicy::keep_last(3).with_max_epoch_age(2);
        assert_eq!(p.evict_plan(&[1, 6, 8, 10]), vec![1, 6]);
    }

    #[test]
    fn keep_all_is_the_identity() {
        assert_eq!(
            RetentionPolicy::keep_all().evict_plan(&[1, 2, 3]),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn reports_count_and_summarize() {
        let report = OpenReport {
            outcomes: vec![
                FileOutcome::Loaded {
                    dataset: "d".into(),
                    epoch: 1,
                    path: "d-e1.gda".into(),
                },
                FileOutcome::Stray {
                    path: "README.txt".into(),
                    note: "not an artifact file (.gda)".into(),
                },
                FileOutcome::Quarantined {
                    path: "d-e2.gda".into(),
                    moved_to: "quarantine/d-e2.gda".into(),
                    reason: "checksum mismatch".into(),
                },
                FileOutcome::Retired {
                    dataset: "d".into(),
                    epoch: 0,
                    path: "d-e0.gda".into(),
                },
            ],
        };
        assert_eq!(report.loaded(), 1);
        assert_eq!(report.strays(), 1);
        assert_eq!(report.quarantined(), 1);
        assert_eq!(report.retired(), 1);
        assert_eq!(report.already_registered(), 0);
        assert_eq!(
            report.summary(),
            "1 loaded, 0 already registered, 1 stray, 1 quarantined, 1 retired"
        );
        let gc = GcReport {
            evictions: vec![GcEviction {
                dataset: "d".into(),
                epoch: 0,
                path: Some("d-e0.gda".into()),
                deleted: false,
                error: Some("permission denied".into()),
            }],
        };
        assert_eq!(gc.evicted(), 1);
        assert_eq!(gc.failed_deletions(), 1);
        assert_eq!(gc.summary(), "1 evicted, 1 failed deletions");
    }

    #[test]
    fn lifecycle_types_round_trip_through_json() {
        let report = OpenReport {
            outcomes: vec![FileOutcome::AlreadyRegistered {
                dataset: "d".into(),
                epoch: 3,
                path: "d-e3-copy.gda".into(),
                existing: Some("d-e3.gda".into()),
            }],
        };
        let text = serde_json::to_string(&report).unwrap();
        let back: OpenReport = serde_json::from_str(&text).unwrap();
        assert_eq!(report, back);
        let policy = RetentionPolicy::keep_last(4).with_max_epoch_age(9);
        let text = serde_json::to_string(&policy).unwrap();
        let back: RetentionPolicy = serde_json::from_str(&text).unwrap();
        assert_eq!(policy, back);
    }
}
