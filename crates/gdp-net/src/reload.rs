//! Live store reload: configuration, counters and the `/stats` store
//! section for the supervised directory watcher and the
//! `POST /v1/admin/reload` admin endpoint.
//!
//! The paper's deployment is recurring disclosure — a publisher drops a
//! new epoch into the artifact directory while the previous ones are
//! being served. The frontend picks those up without a restart: a
//! watcher thread (or an admin request) re-scans the directory through
//! [`ReleaseStore::merge_dir`](gdp_serve::ReleaseStore::merge_dir),
//! which registers fresh epochs, quarantines damage, and retires
//! releases whose files were reclaimed by GC. A reload can only
//! *degrade* — every failure lands in a typed error and a counter, the
//! releases already being served stay untouched.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use gdp_serve::OpenReport;

/// How (and whether) a server keeps its release store in sync with the
/// artifact directory it was opened from.
#[derive(Debug, Clone, Default)]
pub struct ReloadConfig {
    /// The artifact directory to re-scan. `None` disables both the
    /// watcher and `POST /v1/admin/reload` (the endpoint answers `400
    /// reload_unavailable`).
    pub dir: Option<PathBuf>,
    /// Watcher poll interval. `None` leaves reloads admin-triggered
    /// only; the watcher backs off exponentially while reloads fail
    /// (see [`watcher_backoff`]).
    pub interval: Option<Duration>,
    /// Files the *initial* directory open already quarantined, so the
    /// `/stats` quarantine counter covers the store's whole history,
    /// not just reloads.
    pub initial_quarantined: u64,
}

impl ReloadConfig {
    /// Watch `dir`, rescanning every `interval`.
    pub fn watch(dir: impl Into<PathBuf>, interval: Duration) -> Self {
        Self {
            dir: Some(dir.into()),
            interval: Some(interval),
            initial_quarantined: 0,
        }
    }

    /// Allow `POST /v1/admin/reload` against `dir` without a watcher.
    pub fn manual(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: Some(dir.into()),
            interval: None,
            initial_quarantined: 0,
        }
    }
}

/// The watcher's sleep before its next scan: the configured interval
/// while reloads succeed, doubling per consecutive failure (capped at
/// `32 ×` the interval) so a persistently broken directory is polled
/// gently instead of hammered.
pub fn watcher_backoff(interval: Duration, consecutive_failures: u32) -> Duration {
    interval.saturating_mul(1u32 << consecutive_failures.min(5))
}

/// Live reload counters, shared between the watcher thread, the admin
/// endpoint and `/stats` snapshots. All writes are monotonic counter
/// bumps plus one mutex-guarded "last outcome" record.
#[derive(Debug)]
pub struct ReloadState {
    /// Reload scans started (watcher and admin combined).
    pub attempts: AtomicU64,
    /// Reload scans that returned a typed error.
    pub failures: AtomicU64,
    /// Epochs registered by reloads (excludes the initial open).
    pub epochs_loaded_live: AtomicU64,
    /// Releases retired by reloads (backing file deleted on disk).
    pub epochs_retired: AtomicU64,
    /// Damaged files quarantined over the store's lifetime (seeded with
    /// the initial open's count, grown by reload scans).
    pub quarantined: AtomicU64,
    /// `1` while the watcher thread is alive, `0` otherwise.
    pub watcher_alive: AtomicU64,
    /// Watcher threads respawned by the supervisor after a panic.
    pub watcher_restarts: AtomicU64,
    last: Mutex<LastReload>,
}

#[derive(Debug, Default)]
struct LastReload {
    /// `None` before the first reload; then `(succeeded, rendered)`.
    outcome: Option<(bool, String)>,
    uptime_ms: u64,
}

impl ReloadState {
    /// Fresh counters; `initial_quarantined` seeds the quarantine
    /// total with what the initial directory open already moved.
    pub fn new(initial_quarantined: u64) -> Self {
        Self {
            attempts: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            epochs_loaded_live: AtomicU64::new(0),
            epochs_retired: AtomicU64::new(0),
            quarantined: AtomicU64::new(initial_quarantined),
            watcher_alive: AtomicU64::new(0),
            watcher_restarts: AtomicU64::new(0),
            last: Mutex::new(LastReload::default()),
        }
    }

    /// Records one successful reload scan at `uptime_ms`.
    pub fn record_ok(&self, report: &OpenReport, uptime_ms: u64) {
        self.epochs_loaded_live
            .fetch_add(report.loaded() as u64, Ordering::Relaxed);
        self.epochs_retired
            .fetch_add(report.retired() as u64, Ordering::Relaxed);
        self.quarantined
            .fetch_add(report.quarantined() as u64, Ordering::Relaxed);
        *self.last.lock().unwrap_or_else(PoisonError::into_inner) = LastReload {
            outcome: Some((true, report.summary())),
            uptime_ms,
        };
    }

    /// Records one failed reload scan at `uptime_ms`.
    pub fn record_err(&self, rendered: &str, uptime_ms: u64) {
        self.failures.fetch_add(1, Ordering::Relaxed);
        *self.last.lock().unwrap_or_else(PoisonError::into_inner) = LastReload {
            outcome: Some((false, rendered.to_string())),
            uptime_ms,
        };
    }

    /// The `/stats` store section. `datasets` and `epochs` describe the
    /// store's current contents (the counters here only describe its
    /// history).
    pub fn snapshot(&self, datasets: usize, epochs: usize) -> StoreSnapshot {
        let last = self.last.lock().unwrap_or_else(PoisonError::into_inner);
        let (last_reload, last_reload_uptime_ms) = match &last.outcome {
            None => ("never".to_string(), 0),
            Some((true, summary)) => (format!("ok: {summary}"), last.uptime_ms),
            Some((false, err)) => (format!("failed: {err}"), last.uptime_ms),
        };
        StoreSnapshot {
            datasets,
            epochs,
            quarantined: self.quarantined.load(Ordering::Relaxed),
            reload_attempts: self.attempts.load(Ordering::Relaxed),
            reload_failures: self.failures.load(Ordering::Relaxed),
            epochs_loaded_live: self.epochs_loaded_live.load(Ordering::Relaxed),
            epochs_retired: self.epochs_retired.load(Ordering::Relaxed),
            last_reload,
            last_reload_uptime_ms,
            watcher_alive: self.watcher_alive.load(Ordering::SeqCst) > 0,
            watcher_restarts: self.watcher_restarts.load(Ordering::Relaxed),
        }
    }
}

/// The store-lifecycle section of [`StatsSnapshot`](crate::StatsSnapshot).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreSnapshot {
    /// Distinct datasets currently served.
    pub datasets: usize,
    /// Total `(dataset, epoch)` releases currently served.
    pub epochs: usize,
    /// Damaged files quarantined over the store's lifetime (initial
    /// open + every reload).
    pub quarantined: u64,
    /// Reload scans started (watcher + admin).
    pub reload_attempts: u64,
    /// Reload scans that failed with a typed error.
    pub reload_failures: u64,
    /// Epochs registered live by reloads.
    pub epochs_loaded_live: u64,
    /// Releases retired live by reloads.
    pub epochs_retired: u64,
    /// `"never"`, `"ok: <scan summary>"` or `"failed: <error>"`.
    pub last_reload: String,
    /// Server uptime (ms) when the last reload finished; `0` if never.
    pub last_reload_uptime_ms: u64,
    /// Whether the watcher thread is currently alive.
    pub watcher_alive: bool,
    /// Watcher threads respawned after a panic.
    pub watcher_restarts: u64,
}

impl StoreSnapshot {
    /// The section for a server with no directory-backed store.
    pub fn empty() -> Self {
        Self {
            datasets: 0,
            epochs: 0,
            quarantined: 0,
            reload_attempts: 0,
            reload_failures: 0,
            epochs_loaded_live: 0,
            epochs_retired: 0,
            last_reload: "never".to_string(),
            last_reload_uptime_ms: 0,
            watcher_alive: false,
            watcher_restarts: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_serve::FileOutcome;

    #[test]
    fn watcher_backoff_doubles_and_caps() {
        let base = Duration::from_millis(100);
        assert_eq!(watcher_backoff(base, 0), base);
        assert_eq!(watcher_backoff(base, 1), base * 2);
        assert_eq!(watcher_backoff(base, 3), base * 8);
        assert_eq!(watcher_backoff(base, 5), base * 32);
        // The cap holds however long the directory stays broken.
        assert_eq!(watcher_backoff(base, 6), base * 32);
        assert_eq!(watcher_backoff(base, u32::MAX), base * 32);
    }

    #[test]
    fn reload_state_tracks_outcomes_and_counters() {
        let state = ReloadState::new(3);
        let snap = state.snapshot(1, 2);
        assert_eq!(snap.quarantined, 3, "seeded from the initial open");
        assert_eq!(snap.last_reload, "never");
        assert_eq!(snap.last_reload_uptime_ms, 0);

        state.attempts.fetch_add(1, Ordering::Relaxed);
        let report = OpenReport {
            outcomes: vec![
                FileOutcome::Loaded {
                    dataset: "d".into(),
                    epoch: 9,
                    path: "d-e9.gda".into(),
                },
                FileOutcome::Quarantined {
                    path: "torn.gda".into(),
                    moved_to: "quarantine/torn.gda".into(),
                    reason: "truncated".into(),
                },
                FileOutcome::Retired {
                    dataset: "d".into(),
                    epoch: 1,
                    path: "d-e1.gda".into(),
                },
            ],
        };
        state.record_ok(&report, 1234);
        let snap = state.snapshot(1, 2);
        assert_eq!(snap.reload_attempts, 1);
        assert_eq!(snap.reload_failures, 0);
        assert_eq!(snap.epochs_loaded_live, 1);
        assert_eq!(snap.epochs_retired, 1);
        assert_eq!(snap.quarantined, 4);
        assert_eq!(snap.last_reload_uptime_ms, 1234);
        assert!(
            snap.last_reload.starts_with("ok: 1 loaded"),
            "{}",
            snap.last_reload
        );

        state.attempts.fetch_add(1, Ordering::Relaxed);
        state.record_err("directory vanished", 2345);
        let snap = state.snapshot(1, 2);
        assert_eq!(snap.reload_failures, 1);
        assert_eq!(snap.last_reload, "failed: directory vanished");
        assert_eq!(snap.last_reload_uptime_ms, 2345);
    }

    #[test]
    fn store_snapshot_round_trips_through_json() {
        let snap = ReloadState::new(7).snapshot(2, 5);
        let text = serde_json::to_string(&snap).unwrap();
        let back: StoreSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(snap, back);
        assert_eq!(StoreSnapshot::empty().last_reload, "never");
    }
}
