//! The artifact registry a deployment keeps as it republishes — one
//! `RwLock` over a `(dataset, epoch)` map of indexed releases, directory
//! scans that index each `.gda` file before registering it, and the
//! durable lifecycle around it: degraded scans
//! that quarantine damage instead of failing
//! ([`ReleaseStore::open_dir_report`]), live re-scans that pick up and
//! retire epochs ([`ReleaseStore::merge_dir`]), and retention GC
//! ([`ReleaseStore::gc`]).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::SystemTime;

use gdp_core::{ArtifactFormat, CoreError, ReleaseArtifact};
use gdp_graph::io as graph_io;
use gdp_graph::GraphError;

use crate::error::ServeError;
use crate::index::IndexedRelease;
use crate::lifecycle::{
    FileOutcome, GcEviction, GcReport, OpenReport, RetentionPolicy, QUARANTINE_DIR,
};
use crate::Result;

/// A registered release plus where it came from. `source` is the file
/// a directory scan loaded it from; `None` for programmatic inserts.
/// The lifecycle operations key off it: [`ReleaseStore::merge_dir`]
/// retires entries whose source vanished, [`ReleaseStore::gc`] deletes
/// sources when evicting, and quarantining a source detaches it so the
/// in-memory release keeps serving. `stamp` is what the scan saw of
/// `source` before reading it; a re-scan that sees the same stamp
/// skips the read.
#[derive(Debug)]
struct Registered {
    release: Arc<IndexedRelease>,
    source: Option<PathBuf>,
    stamp: Option<FileStamp>,
}

/// A file's length and modification time. Publishes replace a file by
/// atomic rename, which brings a new mtime, so an unchanged stamp means
/// the bytes a scan already read and validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileStamp {
    len: u64,
    modified: SystemTime,
}

impl FileStamp {
    /// `path`'s stamp, or `None` when it cannot be taken (the file is
    /// then read on every scan).
    fn of(path: &Path) -> Option<Self> {
        let meta = std::fs::metadata(path).ok()?;
        Some(Self {
            len: meta.len(),
            modified: meta.modified().ok()?,
        })
    }
}

type Registry = BTreeMap<(String, u64), Registered>;

/// Indexed release artifacts keyed by `(dataset, epoch)`, behind one
/// `RwLock`.
///
/// A deployment that republishes weekly accumulates one artifact per
/// epoch per dataset; the store is the lookup structure the
/// [`AnswerService`](crate::AnswerService) routes requests through.
/// All operations take `&self`. A lookup holds the read lock only for
/// the map probe and an `Arc` clone, so readers share it freely and
/// never take the write lock; a writer (insert, remove, a re-scan's
/// registrations and retirements) briefly holds it exclusively, and
/// never while indexing. Keys are unique — published
/// artifacts are immutable, so inserting a second artifact under an
/// existing `(dataset, epoch)` is rejected with
/// [`ServeError::DuplicateRelease`] instead of silently replacing
/// answers consumers may already have seen.
///
/// ```
/// # use gdp_core::{DisclosureConfig, MultiLevelDiscloser, Query, ReleaseArtifact,
/// #     SpecializationConfig, Specializer};
/// # use gdp_datagen::{DblpConfig, DblpGenerator};
/// # use gdp_serve::{IndexedRelease, ReleaseStore};
/// # use rand::SeedableRng;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// # let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
/// # let hierarchy = Specializer::new(SpecializationConfig::median(2)?)
/// #     .specialize(&graph, &mut rng)?;
/// # let release = MultiLevelDiscloser::new(
/// #     DisclosureConfig::count_only(0.5, 1e-6)?
/// #         .with_queries(vec![Query::PerGroupCounts]))
/// #     .disclose(&graph, &hierarchy, &mut rng)?;
/// # let week1 = ReleaseArtifact::seal("dblp", 1, hierarchy, release)?;
/// let store = ReleaseStore::new();
/// store.insert(IndexedRelease::new(week1)?)?;
/// assert_eq!(store.epochs("dblp"), vec![1]);
/// assert!(store.get("dblp", 1).is_ok());
/// assert_eq!(store.latest("dblp").unwrap().artifact().epoch(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ReleaseStore {
    releases: RwLock<Registry>,
}

impl ReleaseStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    // The guards recover from lock poisoning instead of panicking: the
    // map is only ever mutated by whole-entry insert/replace, so a
    // thread that panicked while holding the lock cannot have left a
    // torn entry behind, and wedging every later reader would turn one
    // dead worker into a dead store.
    fn write(&self) -> RwLockWriteGuard<'_, Registry> {
        self.releases
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn read(&self) -> RwLockReadGuard<'_, Registry> {
        self.releases.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers `release` under its manifest's key, with the file a
    /// scan loaded it from and that file's stamp (`None` for
    /// programmatic inserts).
    fn insert_from(
        &self,
        release: IndexedRelease,
        source: Option<PathBuf>,
        stamp: Option<FileStamp>,
    ) -> Result<()> {
        let manifest = release.artifact().manifest();
        let key = (manifest.dataset.clone(), manifest.epoch);
        let mut releases = self.write();
        if let Some(existing) = releases.get(&key) {
            // Name both files when the collision is on-disk: one epoch
            // published under two file names is a deployment bug, and
            // the operator needs both names to fix it.
            let paths = existing
                .source
                .iter()
                .chain(source.iter())
                .map(|p| p.display().to_string())
                .collect();
            return Err(ServeError::DuplicateRelease {
                dataset: key.0,
                epoch: key.1,
                paths,
            });
        }
        releases.insert(
            key,
            Registered {
                release: Arc::new(release),
                source,
                stamp,
            },
        );
        Ok(())
    }

    /// Registers an indexed artifact under its manifest's
    /// `(dataset, epoch)` key.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DuplicateRelease`] when the key is taken.
    pub fn insert(&self, release: IndexedRelease) -> Result<()> {
        self.insert_from(release, None, None)
    }

    /// Unregisters a release, returning the backing file it was loaded
    /// from (the file itself is untouched — deletion is
    /// [`ReleaseStore::gc`]'s job).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownRelease`] when no such `(dataset, epoch)`
    /// is registered.
    pub fn remove(&self, dataset: &str, epoch: u64) -> Result<Option<PathBuf>> {
        let key = (dataset.to_string(), epoch);
        match self.write().remove(&key) {
            Some(reg) => Ok(reg.source),
            None => Err(ServeError::UnknownRelease {
                dataset: key.0,
                epoch,
            }),
        }
    }

    /// Looks an artifact up by dataset and epoch.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownRelease`] when absent.
    pub fn get(&self, dataset: &str, epoch: u64) -> Result<Arc<IndexedRelease>> {
        let key = (dataset.to_string(), epoch);
        match self.read().get(&key) {
            Some(reg) => Ok(Arc::clone(&reg.release)),
            None => Err(ServeError::UnknownRelease {
                dataset: key.0,
                epoch,
            }),
        }
    }

    /// The highest-epoch artifact for a dataset, if any.
    pub fn latest(&self, dataset: &str) -> Option<Arc<IndexedRelease>> {
        self.read()
            .range((dataset.to_string(), 0)..=(dataset.to_string(), u64::MAX))
            .next_back()
            .map(|(_, reg)| Arc::clone(&reg.release))
    }

    /// Every epoch registered for a dataset, ascending.
    pub fn epochs(&self, dataset: &str) -> Vec<u64> {
        self.read()
            .range((dataset.to_string(), 0)..=(dataset.to_string(), u64::MAX))
            .map(|((_, epoch), _)| *epoch)
            .collect()
    }

    /// Every dataset with at least one artifact, ascending, deduped.
    pub fn datasets(&self) -> Vec<String> {
        // Keys iterate in (dataset, epoch) order, so equal datasets are
        // adjacent and `dedup` is enough.
        let mut out: Vec<String> = self
            .read()
            .keys()
            .map(|(dataset, _)| dataset.clone())
            .collect();
        out.dedup();
        out
    }

    /// Number of registered artifacts.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the store holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scans a directory of artifact files (one sealed
    /// [`ReleaseArtifact`] per `.gda` container; any other entry,
    /// a `.json` export included, is skipped) into a store. Every file
    /// is read, **validated** and indexed during the scan — so a
    /// corrupt file, a foreign schema version or a duplicate
    /// `(dataset, epoch)` is a typed error, not a latent failure, and
    /// every later lookup is a plain read. Files are
    /// visited in name order, so which of two duplicate files is
    /// reported is deterministic: one epoch under two file names is a
    /// [`ServeError::DuplicateRelease`] naming both files, never a
    /// silent last-scan-wins.
    ///
    /// # Errors
    ///
    /// * [`ServeError::EmptyDirectory`] when no artifact files are
    ///   found.
    /// * [`ServeError::DuplicateRelease`] when two files carry the same
    ///   `(dataset, epoch)` — both paths are named.
    /// * [`ServeError::Core`] wrapping `GraphError::Binary` for
    ///   malformed files, `GraphError::Io` for filesystem failures, and
    ///   `CoreError::Artifact` for a foreign schema version (named) or
    ///   a payload that fails validation. Each names the file it was
    ///   raised for.
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref();
        let mut candidates = Vec::new();
        for path in sorted_dir_entries(dir)? {
            if classify_stray(&path).is_none() && !is_pending_tmp(&path) {
                candidates.push(path);
            }
        }
        if candidates.is_empty() {
            return Err(ServeError::EmptyDirectory {
                path: dir.display().to_string(),
            });
        }
        let store = Self::new();
        for path in candidates {
            let stamp = FileStamp::of(&path);
            let artifact = ReleaseArtifact::load(&path).map_err(|e| in_file(&path, e))?;
            store.insert_from(IndexedRelease::new(artifact)?, Some(path), stamp)?;
        }
        Ok(store)
    }

    /// The degraded-mode [`ReleaseStore::open_dir`]: scans `dir`
    /// tolerating everything short of the directory itself being
    /// unreadable. Valid artifacts register; stray entries (a `.json`
    /// export among them) are skipped with a typed note and left in
    /// place; damaged files — torn atomic-publish `*.tmp` debris,
    /// malformed containers, foreign schema versions, digest
    /// mismatches, failed validation — are **moved** into
    /// [`QUARANTINE_DIR`] so the next scan is clean while the bytes
    /// survive for post-mortem. Returns the store (possibly empty —
    /// degraded open never fails on an empty directory) and the
    /// per-file [`OpenReport`].
    ///
    /// This is what a serving frontend boots from after a crash: every
    /// previously committed epoch loads bit-identically (atomic publish
    /// guarantees committed files are whole), and whatever the crash
    /// tore is quarantined instead of taking serving down.
    ///
    /// # Errors
    ///
    /// [`ServeError::Core`] (`GraphError::Io`) only when `dir` cannot
    /// be read at all.
    pub fn open_dir_report(dir: impl AsRef<Path>) -> Result<(Self, OpenReport)> {
        let store = Self::new();
        // A fresh open owns the directory: no publisher can be racing
        // us before the store even exists, so `*.tmp` debris is
        // necessarily a dead publish and gets quarantined.
        let report = store.scan_dir(dir.as_ref(), true)?;
        Ok((store, report))
    }

    /// Re-scans `dir` into this store — the hot-reload primitive. New
    /// artifact files register (epochs published since the last scan
    /// become servable), damaged files quarantine exactly as in
    /// [`ReleaseStore::open_dir_report`], and releases whose backing
    /// file vanished from `dir` (retention GC, operator deletion) are
    /// **retired** so consumers get a typed
    /// [`UnknownRelease`](ServeError::UnknownRelease) instead of
    /// deleted-but-still-served data.
    ///
    /// Three deliberate asymmetries against the fresh open:
    /// * A file that backs a registered release and whose length and
    ///   mtime are what the scan that loaded it saw is reported
    ///   [`AlreadyRegistered`](FileOutcome::AlreadyRegistered) without
    ///   being read again, so an idle re-scan costs a `stat` per file.
    ///   Bit rot under an unchanged stamp is caught by the next fresh
    ///   open, which reads everything.
    /// * `*.tmp` files are left alone (a live publisher may be mid
    ///   atomic write; its rename will land or its debris will be
    ///   swept by the next fresh open).
    /// * Quarantining a file that backs an already-registered release
    ///   detaches the entry from disk instead of retiring it — the
    ///   validated in-memory copy keeps serving, which is the most
    ///   robust reading of "a vandalized file must not take an epoch
    ///   down".
    ///
    /// # Errors
    ///
    /// [`ServeError::Core`] (`GraphError::Io`) only when `dir` cannot
    /// be read at all; per-file damage is a report entry, never an
    /// error.
    pub fn merge_dir(&self, dir: impl AsRef<Path>) -> Result<OpenReport> {
        self.scan_dir(dir.as_ref(), false)
    }

    fn scan_dir(&self, dir: &Path, sweep_tmp: bool) -> Result<OpenReport> {
        let mut outcomes = Vec::new();
        // Sources detached or re-seen this scan, exempt from retirement.
        let mut touched: HashSet<PathBuf> = HashSet::new();
        let registered = self.stamped_sources();
        for path in sorted_dir_entries(dir)? {
            let rendered = path.display().to_string();
            if path.is_dir() && path.file_name().is_some_and(|n| n == QUARANTINE_DIR) {
                continue; // our own quarantine, not a stray
            }
            if let Some(note) = classify_stray(&path) {
                outcomes.push(FileOutcome::Stray {
                    path: rendered,
                    note: note.to_string(),
                });
                continue;
            }
            if is_pending_tmp(&path) {
                if sweep_tmp {
                    outcomes.push(self.quarantine(
                        dir,
                        &path,
                        "interrupted atomic publish (*.tmp debris)".to_string(),
                        &mut touched,
                    ));
                } else {
                    outcomes.push(FileOutcome::Stray {
                        path: rendered,
                        note: "atomic publish in flight (*.tmp)".to_string(),
                    });
                }
                continue;
            }
            let stamp = FileStamp::of(&path);
            if let Some(((dataset, epoch), seen)) = registered.get(&path) {
                if stamp == Some(*seen) {
                    touched.insert(path);
                    outcomes.push(FileOutcome::AlreadyRegistered {
                        dataset: dataset.clone(),
                        epoch: *epoch,
                        path: rendered,
                        existing: None,
                    });
                    continue;
                }
            }
            let loaded = ReleaseArtifact::load(&path).map_err(ServeError::from);
            match loaded.and_then(IndexedRelease::new) {
                Ok(release) => {
                    let artifact = release.artifact();
                    let (dataset, epoch) = (artifact.dataset().to_string(), artifact.epoch());
                    touched.insert(path.clone());
                    match self.insert_from(release, Some(path.clone()), stamp) {
                        Ok(()) => outcomes.push(FileOutcome::Loaded {
                            dataset,
                            epoch,
                            path: rendered,
                        }),
                        Err(ServeError::DuplicateRelease {
                            dataset,
                            epoch,
                            paths,
                        }) => {
                            let existing = paths.into_iter().find(|p| p != &rendered);
                            outcomes.push(FileOutcome::AlreadyRegistered {
                                dataset,
                                epoch,
                                path: rendered,
                                existing,
                            })
                        }
                        Err(other) => return Err(other),
                    }
                }
                Err(err) => {
                    outcomes.push(self.quarantine(dir, &path, err.to_string(), &mut touched))
                }
            }
        }
        // Retire registered releases whose backing file under `dir` is
        // gone — unless this very scan moved it to quarantine (the
        // in-memory copy keeps serving) or re-registered it.
        for (dataset, epoch, source) in self.sources_under(dir) {
            if !touched.contains(&source)
                && !source.exists()
                && self.remove(&dataset, epoch).is_ok()
            {
                outcomes.push(FileOutcome::Retired {
                    dataset,
                    epoch,
                    path: source.display().to_string(),
                });
            }
        }
        Ok(OpenReport { outcomes })
    }

    /// Moves a damaged file into `dir`'s [`QUARANTINE_DIR`], detaching
    /// any registered release that was loaded from it so the in-memory
    /// copy keeps serving. Never fails the scan: if even the move
    /// fails the file is reported as quarantined-in-place with both
    /// errors in the reason.
    fn quarantine(
        &self,
        dir: &Path,
        path: &Path,
        reason: String,
        touched: &mut HashSet<PathBuf>,
    ) -> FileOutcome {
        touched.insert(path.to_path_buf());
        self.detach_source(path);
        let qdir = dir.join(QUARANTINE_DIR);
        let file_name = path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_default();
        let target = qdir.join(&file_name);
        let moved = std::fs::create_dir_all(&qdir).and_then(|()| {
            // Never overwrite earlier evidence: suffix until free.
            let mut target = target.clone();
            let mut attempt = 1u32;
            while target.exists() {
                let mut name = file_name.clone();
                name.push(format!(".{attempt}"));
                target = qdir.join(name);
                attempt += 1;
            }
            std::fs::rename(path, &target).map(|()| target)
        });
        match moved {
            Ok(target) => FileOutcome::Quarantined {
                path: path.display().to_string(),
                moved_to: target.display().to_string(),
                reason,
            },
            Err(e) => FileOutcome::Quarantined {
                path: path.display().to_string(),
                moved_to: path.display().to_string(),
                reason: format!("{reason}; quarantine move also failed: {e}"),
            },
        }
    }

    /// Forgets that any registered release is backed by `path` (the
    /// file was quarantined): the release keeps serving from memory
    /// and is no longer subject to retire-on-missing-file.
    fn detach_source(&self, path: &Path) {
        for reg in self.write().values_mut() {
            if reg.source.as_deref() == Some(path) {
                reg.source = None;
                reg.stamp = None;
            }
        }
    }

    /// Every registered source file with the stamp it was read under,
    /// and the key it backs.
    fn stamped_sources(&self) -> HashMap<PathBuf, ((String, u64), FileStamp)> {
        self.read()
            .iter()
            .filter_map(|(key, reg)| Some((reg.source.clone()?, (key.clone(), reg.stamp?))))
            .collect()
    }

    /// Every registered `(dataset, epoch, source)` whose source file
    /// lives directly in `dir`.
    fn sources_under(&self, dir: &Path) -> Vec<(String, u64, PathBuf)> {
        self.read()
            .iter()
            .filter_map(|((dataset, epoch), reg)| {
                let source = reg.source.as_ref()?;
                (source.parent() == Some(dir)).then(|| (dataset.clone(), *epoch, source.clone()))
            })
            .collect()
    }

    /// Applies a [`RetentionPolicy`] to every dataset (or just
    /// `dataset`, when given): superseded epochs are unregistered and
    /// their backing files durably deleted (unlink + directory fsync,
    /// the same discipline atomic publish uses). The newest epoch of
    /// each dataset always survives. Deletion failures are recorded in
    /// the [`GcReport`] and do not stop the pass; the release is
    /// dropped from the store regardless, so a stuck file costs disk,
    /// not correctness.
    pub fn gc(&self, policy: &RetentionPolicy, dataset: Option<&str>) -> GcReport {
        let datasets: Vec<String> = match dataset {
            Some(d) => vec![d.to_string()],
            None => self.datasets(),
        };
        let mut evictions = Vec::new();
        for dataset in datasets {
            for epoch in policy.evict_plan(&self.epochs(&dataset)) {
                let Ok(source) = self.remove(&dataset, epoch) else {
                    continue; // raced away; nothing to evict
                };
                let (deleted, error) = match &source {
                    None => (true, None),
                    Some(path) => match graph_io::remove_file_durable(path) {
                        Ok(()) => (true, None),
                        Err(e) => (false, Some(e.to_string())),
                    },
                };
                evictions.push(GcEviction {
                    dataset: dataset.clone(),
                    epoch,
                    path: source.map(|p| p.display().to_string()),
                    deleted,
                    error,
                });
            }
        }
        GcReport { evictions }
    }
}

/// Every entry of `dir`, name-sorted so scan order (and therefore
/// which duplicate wins, what a report lists first) is deterministic.
fn sorted_dir_entries(dir: &Path) -> Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter()
        .map(|entry| entry.path())
        .collect();
    paths.sort();
    Ok(paths)
}

/// Why a directory entry is not an artifact candidate (`None` = it is
/// one). Strays are *skipped*, never quarantined: they are someone
/// else's files sitting in our directory, not damaged artifacts. A
/// `.json` file is one too — a human export, or a schema-5 JSON epoch
/// from before `.gda` became the only served format — so its bytes stay
/// where the operator left them.
fn classify_stray(path: &Path) -> Option<&'static str> {
    if path.is_dir() {
        return Some("directory");
    }
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if name.starts_with('.') {
        return Some("hidden file");
    }
    if name.ends_with('~') || name.ends_with(".bak") || name.ends_with(".swp") {
        return Some("editor backup");
    }
    if ArtifactFormat::from_path(path).is_some() || is_pending_tmp(path) {
        None
    } else if path.extension().is_some_and(|ext| ext == "json") {
        Some("JSON is an export, not served: only .gda artifacts are")
    } else {
        Some("not an artifact file (.gda)")
    }
}

/// Whether this is a staged atomic write (`*.tmp`) — publish debris on
/// a fresh open, a possibly live publish during a re-scan.
fn is_pending_tmp(path: &Path) -> bool {
    path.extension().is_some_and(|ext| ext == "tmp")
}

/// `err`, raised loading the artifact file at `path`, with the file
/// named at the front of its message. Variants that carry a message
/// keep their class (a truncated file is still `GraphError::Binary`, a
/// foreign schema still `CoreError::Artifact`); any other, such as a
/// structured hierarchy refusal, becomes a `CoreError::Artifact`
/// quoting it.
fn in_file(path: &Path, err: CoreError) -> CoreError {
    let name = path.display();
    match err {
        CoreError::Graph(GraphError::Binary { offset, message }) => {
            CoreError::Graph(GraphError::Binary {
                offset,
                message: format!("{name}: {message}"),
            })
        }
        CoreError::Graph(GraphError::Io(e)) => CoreError::Graph(GraphError::Io(
            std::io::Error::new(e.kind(), format!("{name}: {e}")),
        )),
        CoreError::Artifact(message) => CoreError::Artifact(format!("{name}: {message}")),
        other => CoreError::Artifact(format!("{name}: {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_core::{
        DisclosureConfig, MultiLevelDiscloser, Query, SpecializationConfig, Specializer,
    };
    use gdp_datagen::{DblpConfig, DblpGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn artifact(dataset: &str, epoch: u64, seed: u64) -> ReleaseArtifact {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
        let hierarchy = Specializer::new(SpecializationConfig::median(2).unwrap())
            .specialize(&graph, &mut rng)
            .unwrap();
        let release = MultiLevelDiscloser::new(
            DisclosureConfig::count_only(0.5, 1e-6)
                .unwrap()
                .with_queries(vec![Query::PerGroupCounts]),
        )
        .disclose(&graph, &hierarchy, &mut rng)
        .unwrap();
        ReleaseArtifact::seal(dataset, epoch, hierarchy, release).unwrap()
    }

    fn indexed(dataset: &str, epoch: u64, seed: u64) -> IndexedRelease {
        IndexedRelease::new(artifact(dataset, epoch, seed)).unwrap()
    }

    #[test]
    fn keyed_lookup_latest_and_listings() {
        let store = ReleaseStore::new();
        store.insert(indexed("dblp", 1, 1)).unwrap();
        store.insert(indexed("dblp", 3, 2)).unwrap();
        store.insert(indexed("pharmacy", 2, 3)).unwrap();
        assert_eq!(store.len(), 3);
        assert!(!store.is_empty());
        assert_eq!(store.get("dblp", 3).unwrap().artifact().epoch(), 3);
        assert!(matches!(
            store.get("dblp", 2).unwrap_err(),
            ServeError::UnknownRelease { epoch: 2, .. }
        ));
        assert_eq!(store.latest("dblp").unwrap().artifact().epoch(), 3);
        assert!(store.latest("movies").is_none());
        assert_eq!(store.epochs("dblp"), vec![1, 3]);
        assert_eq!(store.datasets(), vec!["dblp", "pharmacy"]);
    }

    #[test]
    fn duplicate_keys_rejected() {
        let store = ReleaseStore::new();
        store.insert(indexed("dblp", 1, 1)).unwrap();
        let err = store.insert(indexed("dblp", 1, 9)).unwrap_err();
        assert!(matches!(err, ServeError::DuplicateRelease { epoch: 1, .. }));
        // The original stays.
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn open_dir_scans_and_serves() {
        let dir = std::env::temp_dir().join(format!("gdp-store-ok-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (dataset, epoch, seed) in [("dblp", 1, 1), ("dblp", 2, 2), ("pharmacy", 1, 3)] {
            artifact(dataset, epoch, seed)
                .save_atomic(dir.join(format!("{dataset}-{epoch}.gda")))
                .unwrap();
        }
        // A non-artifact sibling is ignored.
        std::fs::write(dir.join("README.txt"), "not an artifact").unwrap();
        let store = ReleaseStore::open_dir(&dir).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.datasets(), vec!["dblp", "pharmacy"]);
        assert_eq!(store.epochs("dblp"), vec![1, 2]);
        assert_eq!(store.latest("dblp").unwrap().artifact().epoch(), 2);
        assert!(store.get("pharmacy", 1).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_open_dir_names_the_file_that_failed() {
        let dir = std::env::temp_dir().join(format!("gdp-store-named-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        artifact("dblp", 1, 1)
            .save_atomic(dir.join("a.gda"))
            .unwrap();
        std::fs::write(dir.join("b.gda"), b"GDPBIN\0").unwrap();
        let err = ReleaseStore::open_dir(&dir).unwrap_err();
        assert!(
            matches!(
                &err,
                ServeError::Core(CoreError::Graph(GraphError::Binary { message, .. }))
                    if message.contains("b.gda")
            ),
            "{err}"
        );
        assert!(err.to_string().contains("b.gda"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn handle_shares_one_registry() {
        // Two services over one `Arc<ReleaseStore>`: an insert through
        // the shared handle is visible to both at their next lookup.
        let store = Arc::new(ReleaseStore::new());
        let a = crate::AnswerService::new(Arc::clone(&store));
        let b = crate::AnswerService::new(Arc::clone(&store));
        store.insert(indexed("dblp", 1, 1)).unwrap();
        assert_eq!(a.store().len(), 1);
        assert!(b.store().get("dblp", 1).is_ok());
        assert_eq!(ReleaseStore::default().len(), 0);
    }
}
