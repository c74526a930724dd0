//! Sealed, versioned release artifacts — the publishable unit of the
//! multi-level disclosure pipeline.
//!
//! The paper's product is not the pipeline run but the published
//! multi-level bundle `{I_{L,i}}` that audiences consume under graded
//! privileges, long after the raw graph is gone. [`ReleaseArtifact`]
//! is that bundle as a first-class object: a manifest (schema version,
//! budget, mechanism, hierarchy shape), the public [`GroupHierarchy`]
//! consumers need to interpret per-group values, and the noisy
//! [`MultiLevelRelease`] itself. Artifacts are **sealed** — they can
//! only be constructed through [`ReleaseArtifact::seal`] (or
//! [`crate::DisclosureSession::publish`]), which cross-validates every
//! manifest field against the payload, and deserialization re-runs the
//! same validation, so a loaded artifact carries the same guarantees
//! as a freshly published one.
//!
//! Save/load follows the `gdp_graph::io` conventions: plain
//! `Write`/`Read` streams, typed errors, crash-safe atomic writes.
//! There is one on-disk format, the `.gda` binary container
//! ([`crate::codec`]): it is what a publisher writes, what a store
//! scans and what a server answers from. Its content digest is XXH64
//! over the `.gda` section bytes ([`content_digest`]). The serde
//! rendering of a [`ReleaseArtifact`] is a one-way JSON export for
//! humans (`gdp convert`, through [`gdp_graph::io::atomic_write_json`]);
//! nothing loads it back except the oracle of the export round-trip
//! tests, [`ReleaseArtifact::read_json`]. Everything downstream
//! of a saved artifact is pure post-processing of a differentially
//! private release — serving, indexing, caching and re-answering it
//! are all budget-free.

use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use gdp_graph::binfmt::ByteWriter;
use gdp_graph::io::{self as graph_io, Xxh64Writer};

use crate::disclosure::NoiseMechanism;
use crate::error::CoreError;
use crate::hierarchy::GroupHierarchy;
use crate::release::MultiLevelRelease;
use crate::Result;

/// The artifact schema version this build writes.
///
/// Version history:
/// * **1** — initial layout, no content digest.
/// * **2** — adds the content digest, an FNV-1a hash over the
///   canonical-JSON payload, verified on every load.
/// * **3** — adds the optional [`ArtifactManifest::ledger`], the
///   cross-epoch privacy accounting record written by
///   [`crate::DisclosureSession::publish`] /
///   [`crate::DisclosureSession::publish_next`]. Artifacts sealed
///   outside a session (no accountant in scope) carry no ledger, at
///   any version.
///
/// * **4** — redefines [`ArtifactManifest::content_digest`] over the
///   `.gda` section bytes instead of canonical JSON (see
///   [`content_digest`]), and makes it mandatory.
/// * **5** — the same bytes, hashed with XXH64 (seed 0,
///   [`gdp_graph::io::xxh64`]) instead of FNV-1a.
/// * **6** — the `.gda` hierarchy section stores the refinement chain:
///   the finest level's partitions (the identity as a flag), then per
///   coarser level each side's block map from the level below, instead
///   of every level's full assignment (see [`crate::codec`]).
///
/// Loading accepts this version only; anything else — older files
/// included, whose digest is another function or over other bytes —
/// fails with [`CoreError::Artifact`] naming the version instead of
/// misinterpreting the payload.
pub const ARTIFACT_SCHEMA_VERSION: u32 = 6;

/// The on-disk encoding of a [`ReleaseArtifact`]: the `.gda` binary
/// container ([`crate::codec`]), the only format that is published,
/// scanned and served. File extension is the format signal: publishers
/// name files with [`ArtifactFormat::extension`], and directory scans
/// and `gdp publish --out` recognize them with
/// [`ArtifactFormat::from_path`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactFormat {
    /// The `.gda` binary container — aligned arrays behind a
    /// byte-level digest.
    Binary,
}

impl ArtifactFormat {
    /// The file extension (without dot) this format is stored under.
    pub const fn extension(self) -> &'static str {
        match self {
            Self::Binary => "gda",
        }
    }

    /// Infers the format from a path's extension; `None` for anything
    /// that is not a `.gda` file (a `.json` export included).
    pub fn from_path(path: &Path) -> Option<Self> {
        match path.extension().and_then(|e| e.to_str()) {
            Some("gda") => Some(Self::Binary),
            _ => None,
        }
    }
}

/// The cross-epoch privacy accounting record a sessioned publish stamps
/// into its manifest: what **this** epoch cost, what the whole chain
/// has spent so far (sequential composition, this epoch included), and
/// the authorized total it is charged against.
///
/// The ledger is what lets an auditor — or the serving stack's `/stats`
/// endpoint — reconstruct the chain's budget position from the latest
/// artifact alone, without replaying every epoch. The invariants
/// (`epoch ≤ cumulative ≤ total`, all within the accountant's drift
/// slack) are enforced at seal time and re-checked on every load, so an
/// over-budget manifest cannot be fabricated by editing a file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestLedger {
    /// Total `ε` charged for this epoch's disclosure.
    pub epoch_epsilon: f64,
    /// Total `δ` charged for this epoch's disclosure.
    pub epoch_delta: f64,
    /// Cumulative `ε` spent across the chain, this epoch included.
    pub cumulative_epsilon: f64,
    /// Cumulative `δ` spent across the chain, this epoch included.
    pub cumulative_delta: f64,
    /// The authorized total `ε` the chain draws down.
    pub total_epsilon: f64,
    /// The authorized total `δ` the chain draws down.
    pub total_delta: f64,
    /// How many releases the accountant has recorded, this one included.
    pub releases: u64,
}

impl ManifestLedger {
    /// `ε` still unspent after this epoch (never negative; drift-level
    /// residues clamp to zero the same way the accountant's
    /// tolerance-aware `remaining()` does).
    pub fn remaining_epsilon(&self) -> f64 {
        let left = self.total_epsilon - self.cumulative_epsilon;
        if left <= self.total_epsilon * gdp_mechanisms::BUDGET_RELATIVE_SLACK {
            0.0
        } else {
            left
        }
    }

    /// `δ` still unspent after this epoch (never negative).
    pub fn remaining_delta(&self) -> f64 {
        let left = self.total_delta - self.cumulative_delta;
        if left <= self.total_delta * gdp_mechanisms::BUDGET_RELATIVE_SLACK {
            0.0
        } else {
            left
        }
    }

    /// Whether the chain's pot is drained within tolerance — the next
    /// sessioned publish against this chain will be refused.
    pub fn exhausted(&self) -> bool {
        self.remaining_epsilon() == 0.0
    }

    /// The seal-time invariants, shared by sealing and load-time
    /// re-validation.
    fn validate(&self) -> Result<()> {
        let fields = [
            ("epoch_epsilon", self.epoch_epsilon),
            ("epoch_delta", self.epoch_delta),
            ("cumulative_epsilon", self.cumulative_epsilon),
            ("cumulative_delta", self.cumulative_delta),
            ("total_epsilon", self.total_epsilon),
            ("total_delta", self.total_delta),
        ];
        for (name, value) in fields {
            if !value.is_finite() || value < 0.0 {
                return Err(CoreError::Artifact(format!(
                    "ledger {name} must be finite and non-negative, got {value}"
                )));
            }
        }
        let slack = gdp_mechanisms::BUDGET_RELATIVE_SLACK;
        if self.epoch_epsilon > self.cumulative_epsilon * (1.0 + slack)
            || self.epoch_delta > self.cumulative_delta * (1.0 + slack) + f64::MIN_POSITIVE
        {
            return Err(CoreError::Artifact(
                "ledger epoch charge exceeds the chain's cumulative spend".to_string(),
            ));
        }
        if self.cumulative_epsilon > self.total_epsilon * (1.0 + slack)
            || self.cumulative_delta > self.total_delta * (1.0 + slack) + f64::MIN_POSITIVE
        {
            return Err(CoreError::Artifact(
                "ledger cumulative spend exceeds the authorized total".to_string(),
            ));
        }
        if self.releases == 0 {
            return Err(CoreError::Artifact(
                "ledger must record at least the release it is attached to".to_string(),
            ));
        }
        Ok(())
    }
}

/// Artifact metadata — everything a consumer (or an artifact store) can
/// know about a release without touching the payload.
///
/// Every field is redundant with (and validated against) the payload;
/// the manifest exists so stores and services can route, list and gate
/// artifacts from metadata alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArtifactManifest {
    /// Schema version of the serialized layout
    /// ([`ARTIFACT_SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// Which dataset this release describes (store key, part 1).
    pub dataset: String,
    /// Publication epoch — a monotonically meaningful number chosen by
    /// the publisher (week number, unix day, …; store key, part 2).
    pub epoch: u64,
    /// The noise mechanism every level was released through.
    pub mechanism: NoiseMechanism,
    /// The per-level group-privacy budget `εg`.
    pub epsilon_g: f64,
    /// The per-level `δ` (zero for pure-ε mechanisms).
    pub delta: f64,
    /// Number of hierarchy levels (finest first in the payload).
    pub level_count: usize,
    /// Groups per level, finest first.
    pub group_counts: Vec<u64>,
    /// Left-side node count of the underlying graph.
    pub left_nodes: u32,
    /// Right-side node count of the underlying graph.
    pub right_nodes: u32,
    /// XXH64 digest over the `.gda` hierarchy section payload, one
    /// zero byte, and the release section payload ([`content_digest`]).
    /// A `.gda` load carries it under the container digest, which
    /// covers the same bytes; the export oracle
    /// ([`ReleaseArtifact::read_json`]) re-derives it.
    pub content_digest: u64,
    /// Cross-epoch privacy accounting: this epoch's charge and the
    /// chain's cumulative spend against its authorized total. `None`
    /// for artifacts sealed outside a [`crate::DisclosureSession`].
    pub ledger: Option<ManifestLedger>,
}

/// Serde-facing mirror of [`ReleaseArtifact`], the shape of the JSON
/// export. Deserializing goes through `TryFrom`, which re-runs the
/// sealing validation and re-derives the content digest; that
/// validating read is the oracle of the export round-trip tests
/// ([`ReleaseArtifact::read_json`]), not a load path.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ArtifactPayload {
    manifest: ArtifactManifest,
    hierarchy: Arc<GroupHierarchy>,
    release: MultiLevelRelease,
}

/// A sealed multi-level release bundle: manifest + public hierarchy +
/// noisy per-level releases.
///
/// The hierarchy is held by [`Arc`]: it is fixed once specialization
/// is done, so a [`crate::DisclosureSession`] and every artifact it
/// publishes share one copy instead of cloning it per epoch.
///
/// Construction only through [`ReleaseArtifact::seal`] /
/// [`ReleaseArtifact::load`] — both validate that the manifest,
/// hierarchy and release agree on level count, group counts, node
/// counts, query vector lengths, budget and mechanism, so holders of a
/// `ReleaseArtifact` never need to re-check internal consistency.
///
/// ```
/// # use gdp_core::{DisclosureConfig, MultiLevelDiscloser, Query, ReleaseArtifact,
/// #     SpecializationConfig, Specializer};
/// # use gdp_datagen::{DblpConfig, DblpGenerator};
/// # use rand::SeedableRng;
/// # fn main() -> Result<(), gdp_core::CoreError> {
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// # let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
/// # let hierarchy = Specializer::new(SpecializationConfig::median(2)?)
/// #     .specialize(&graph, &mut rng)?;
/// # let release = MultiLevelDiscloser::new(
/// #     DisclosureConfig::count_only(0.5, 1e-6)?
/// #         .with_queries(vec![Query::PerGroupCounts]))
/// #     .disclose(&graph, &hierarchy, &mut rng)?;
/// let artifact = ReleaseArtifact::seal("dblp-tiny", 7, hierarchy, release)?;
/// let mut buf = Vec::new();
/// artifact.write_binary(&mut buf)?;
/// let back = ReleaseArtifact::read_binary(buf.as_slice())?;
/// assert_eq!(artifact, back); // lossless round trip
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "ArtifactPayload", into = "ArtifactPayload")]
pub struct ReleaseArtifact {
    manifest: ArtifactManifest,
    hierarchy: Arc<GroupHierarchy>,
    release: MultiLevelRelease,
}

impl From<ReleaseArtifact> for ArtifactPayload {
    fn from(a: ReleaseArtifact) -> Self {
        Self {
            manifest: a.manifest,
            hierarchy: a.hierarchy,
            release: a.release,
        }
    }
}

impl TryFrom<ArtifactPayload> for ReleaseArtifact {
    type Error = CoreError;

    fn try_from(p: ArtifactPayload) -> Result<Self> {
        validate(&p.manifest, &p.hierarchy, &p.release)?;
        let expected = p.manifest.content_digest;
        let computed = content_digest(&p.hierarchy, &p.release);
        if expected != computed {
            return Err(CoreError::Artifact(format!(
                "content digest mismatch: manifest promises {expected:#018x}, \
                 payload hashes to {computed:#018x}"
            )));
        }
        Ok(Self {
            manifest: p.manifest,
            hierarchy: p.hierarchy,
            release: p.release,
        })
    }
}

impl ReleaseArtifact {
    /// Seals parts whose bytes were already integrity-verified — the
    /// binary load path ([`crate::codec::DecodedArtifact::seal`]). Runs
    /// the full sealing validation but **carries** the content digest
    /// instead of recomputing it: the `.gda` container digest covered
    /// the exact bytes (manifest digest field included) these parts
    /// were decoded from, so hashing the sections again would only
    /// re-derive a value corruption can no longer have touched.
    pub(crate) fn from_digest_verified_parts(
        manifest: ArtifactManifest,
        hierarchy: GroupHierarchy,
        release: MultiLevelRelease,
    ) -> Result<Self> {
        validate(&manifest, &hierarchy, &release)?;
        Ok(Self {
            manifest,
            hierarchy: Arc::new(hierarchy),
            release,
        })
    }
}

/// The XXH64 content digest a sealed manifest promises: the `.gda`
/// hierarchy section payload, a zero separator byte, then the release
/// section payload — exactly the bytes [`crate::codec::encode`] lays
/// out for those sections. The section writers stream straight into the
/// hash ([`gdp_graph::io::Xxh64Writer`] as the
/// [`gdp_graph::binfmt::ByteSink`]); no payload is built.
///
/// The hash state after the hierarchy and the separator is memoized on
/// the hierarchy the first time it is needed, so the epochs of a chain,
/// which share one hierarchy, each hash only their release.
pub fn content_digest(hierarchy: &GroupHierarchy, release: &MultiLevelRelease) -> u64 {
    let prefix = hierarchy.digest_prefix().get_or_init(|| {
        let mut w = ByteWriter::with_sink(Xxh64Writer::new());
        crate::codec::write_hierarchy(&mut w, hierarchy);
        let mut sink = w.into_sink();
        sink.update(&[0]);
        sink
    });
    let mut w = ByteWriter::with_sink(prefix.clone());
    crate::codec::write_release(&mut w, release);
    w.into_sink().digest()
}

/// Refuses every schema version but [`ARTIFACT_SCHEMA_VERSION`] — shared
/// by sealing validation and the `.gda` decoder, which must stop before
/// reading a manifest laid out for another version.
pub(crate) fn check_schema_version(version: u32) -> Result<()> {
    if version == ARTIFACT_SCHEMA_VERSION {
        Ok(())
    } else {
        Err(CoreError::Artifact(format!(
            "schema version {version} unsupported \
             (this build reads version {ARTIFACT_SCHEMA_VERSION})"
        )))
    }
}

/// Refuses a non-finite noisy value, noise scale, sensitivity or
/// budget: no private release needs one, and the JSON export could not
/// represent it.
fn check_finite(release: &MultiLevelRelease) -> Result<()> {
    let fail = |what: String| Err(CoreError::Artifact(format!("{what} must be finite")));
    if !release.epsilon_g().is_finite() || !release.delta().is_finite() {
        return fail("release budget".to_string());
    }
    for level in release.levels() {
        for q in &level.queries {
            let what = |field: &str| format!("level {} {:?} {field}", level.level, q.query);
            if !q.noise_scale.is_finite() {
                return fail(what("noise scale"));
            }
            if !q.sensitivity.l1.is_finite() || !q.sensitivity.l2.is_finite() {
                return fail(what("sensitivity"));
            }
            if !q.noisy_values.iter().all(|v| v.is_finite()) {
                return fail(what("noisy value"));
            }
        }
    }
    Ok(())
}

/// The sealing invariants, shared by [`ReleaseArtifact::seal`] and
/// deserialization.
fn validate(
    manifest: &ArtifactManifest,
    hierarchy: &GroupHierarchy,
    release: &MultiLevelRelease,
) -> Result<()> {
    let fail = |msg: String| Err(CoreError::Artifact(msg));
    check_schema_version(manifest.schema_version)?;
    if manifest.dataset.is_empty() {
        return fail("dataset name must be non-empty".to_string());
    }
    if manifest.level_count != hierarchy.level_count() {
        return fail(format!(
            "manifest declares {} levels, hierarchy has {}",
            manifest.level_count,
            hierarchy.level_count()
        ));
    }
    if release.levels().len() != hierarchy.level_count() {
        return fail(format!(
            "release holds {} levels, hierarchy has {}",
            release.levels().len(),
            hierarchy.level_count()
        ));
    }
    if manifest.group_counts != hierarchy.group_counts() {
        return fail("manifest group counts disagree with the hierarchy".to_string());
    }
    for (level_release, level) in release.levels().iter().zip(hierarchy.levels()) {
        if level_release.group_count != level.group_count() {
            return fail(format!(
                "level {} release covers {} groups, hierarchy level has {}",
                level_release.level,
                level_release.group_count,
                level.group_count()
            ));
        }
        for q in &level_release.queries {
            let expected = q.query.answer_len(level);
            if q.noisy_values.len() as u64 != expected {
                return fail(format!(
                    "level {} {:?} releases {} values, its shape needs {expected}",
                    level_release.level,
                    q.query,
                    q.noisy_values.len()
                ));
            }
        }
    }
    let finest = hierarchy.finest();
    if manifest.left_nodes != finest.left().node_count()
        || manifest.right_nodes != finest.right().node_count()
    {
        return fail("manifest node counts disagree with the hierarchy".to_string());
    }
    if manifest.mechanism != release.mechanism() {
        return fail(format!(
            "manifest mechanism {:?} disagrees with release {:?}",
            manifest.mechanism,
            release.mechanism()
        ));
    }
    if manifest.epsilon_g != release.epsilon_g() || manifest.delta != release.delta() {
        return fail("manifest budget disagrees with the release".to_string());
    }
    if let Some(ledger) = &manifest.ledger {
        ledger.validate()?;
    }
    check_finite(release)
}

impl ReleaseArtifact {
    /// Seals a disclosure into an artifact, deriving the manifest from
    /// the payload and validating the result. The hierarchy may come by
    /// value or as a shared [`Arc`], which the artifact then shares.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Artifact`] when `dataset` is empty or the
    ///   hierarchy and release disagree (wrong level count, mismatched
    ///   group counts, a query vector of the wrong length, …).
    pub fn seal(
        dataset: impl Into<String>,
        epoch: u64,
        hierarchy: impl Into<Arc<GroupHierarchy>>,
        release: MultiLevelRelease,
    ) -> Result<Self> {
        Self::seal_inner(dataset.into(), epoch, hierarchy.into(), release, None)
    }

    /// [`ReleaseArtifact::seal`] with a cross-epoch privacy
    /// [`ManifestLedger`] stamped into the manifest — the sessioned
    /// publish path ([`crate::DisclosureSession::publish`] /
    /// [`crate::DisclosureSession::publish_next`]). The ledger's
    /// invariants are validated together with the rest of the manifest.
    ///
    /// # Errors
    ///
    /// Everything [`ReleaseArtifact::seal`] refuses, plus
    /// [`CoreError::Artifact`] for a ledger whose fields are not finite
    /// non-negative or whose `epoch ≤ cumulative ≤ total` chain is
    /// broken.
    pub fn seal_with_ledger(
        dataset: impl Into<String>,
        epoch: u64,
        hierarchy: impl Into<Arc<GroupHierarchy>>,
        release: MultiLevelRelease,
        ledger: ManifestLedger,
    ) -> Result<Self> {
        Self::seal_inner(
            dataset.into(),
            epoch,
            hierarchy.into(),
            release,
            Some(ledger),
        )
    }

    fn seal_inner(
        dataset: String,
        epoch: u64,
        hierarchy: Arc<GroupHierarchy>,
        release: MultiLevelRelease,
        ledger: Option<ManifestLedger>,
    ) -> Result<Self> {
        let finest = hierarchy.finest();
        let manifest = ArtifactManifest {
            schema_version: ARTIFACT_SCHEMA_VERSION,
            dataset,
            epoch,
            mechanism: release.mechanism(),
            epsilon_g: release.epsilon_g(),
            delta: release.delta(),
            level_count: hierarchy.level_count(),
            group_counts: hierarchy.group_counts(),
            left_nodes: finest.left().node_count(),
            right_nodes: finest.right().node_count(),
            content_digest: content_digest(&hierarchy, &release),
            ledger,
        };
        validate(&manifest, &hierarchy, &release)?;
        Ok(Self {
            manifest,
            hierarchy,
            release,
        })
    }

    /// The artifact metadata.
    pub fn manifest(&self) -> &ArtifactManifest {
        &self.manifest
    }

    /// The dataset this release describes.
    pub fn dataset(&self) -> &str {
        &self.manifest.dataset
    }

    /// The publication epoch.
    pub fn epoch(&self) -> u64 {
        self.manifest.epoch
    }

    /// The public group hierarchy (needed to interpret per-group
    /// values and to index subset queries).
    pub fn hierarchy(&self) -> &GroupHierarchy {
        &self.hierarchy
    }

    /// The noisy per-level releases.
    pub fn release(&self) -> &MultiLevelRelease {
        &self.release
    }

    /// Number of hierarchy levels in the bundle.
    pub fn level_count(&self) -> usize {
        self.manifest.level_count
    }

    /// Reads a JSON export — the artifact's serde rendering, as
    /// `gdp convert` writes it ([`gdp_graph::io::write_json`]) —
    /// re-running the sealing validation (including the schema-version
    /// check) and re-deriving the manifest's content digest.
    ///
    /// This is the oracle of the export round-trip tests (`.gda` → JSON
    /// → an equal artifact and manifest), and only that: no shipping
    /// path — [`ReleaseArtifact::load`], a store scan, any `gdp`
    /// command — calls it. Artifacts are loaded from `.gda` only.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Graph`] (`GraphError::Json`) for malformed JSON
    ///   or shape mismatches.
    /// * [`CoreError::Artifact`] for failed sealing validation —
    ///   including an unsupported [`ArtifactManifest::schema_version`] —
    ///   and when the payload does not hash to the content digest the
    ///   manifest promises (the message carries both digests).
    /// * [`CoreError::Graph`] (`GraphError::Io`) for reader failures.
    pub fn read_json<R: Read>(reader: R) -> Result<Self> {
        let payload: ArtifactPayload = graph_io::read_json(reader)?;
        Self::try_from(payload)
    }

    /// Writes the artifact as a `.gda` binary container
    /// ([`crate::codec`]): the manifest, aligned arrays, and a
    /// byte-level container digest.
    ///
    /// # Errors
    ///
    /// Propagates IO failures as [`CoreError::Graph`] (`GraphError::Io`).
    pub fn write_binary<W: Write>(&self, mut writer: W) -> Result<()> {
        let bytes = crate::codec::encode(self)?;
        writer
            .write_all(&bytes)
            .map_err(|e| CoreError::Graph(e.into()))
    }

    /// Reads an artifact written by [`ReleaseArtifact::write_binary`]:
    /// container digest verified, sections decoded, sealing validation
    /// re-run ([`crate::codec::decode`] + [`crate::codec::DecodedArtifact::seal`]).
    ///
    /// # Errors
    ///
    /// * [`CoreError::Graph`] (`GraphError::Binary`) for any structural
    ///   corruption — truncation, bit flips, malformed sections.
    /// * [`CoreError::Artifact`] for failed sealing validation.
    /// * [`CoreError::Graph`] (`GraphError::Io`) for reader failures.
    pub fn read_binary<R: Read>(mut reader: R) -> Result<Self> {
        let mut bytes = Vec::new();
        reader
            .read_to_end(&mut bytes)
            .map_err(|e| CoreError::Graph(e.into()))?;
        crate::codec::decode(&bytes)?.seal()
    }

    /// The canonical on-disk file name for a `(dataset, epoch)`
    /// release in `format`: `<dataset>-e<epoch>.<ext>`, with any path
    /// separators in the dataset name replaced by `_` so the name
    /// never escapes its directory.
    pub fn canonical_file_name_as(dataset: &str, epoch: u64, format: ArtifactFormat) -> String {
        let safe: String = dataset
            .chars()
            .map(|c| if c == '/' || c == '\\' { '_' } else { c })
            .collect();
        format!("{safe}-e{epoch}.{}", format.extension())
    }

    /// The canonical `.gda` file name for a `(dataset, epoch)` release:
    /// `<dataset>-e<epoch>.gda`.
    pub fn canonical_file_name(dataset: &str, epoch: u64) -> String {
        Self::canonical_file_name_as(dataset, epoch, ArtifactFormat::Binary)
    }

    /// Writes the artifact to `path` crash-safely as a `.gda`
    /// container, whatever the path's extension: stage in a `*.tmp`
    /// sibling, fsync, rename over `path`, and fsync the directory
    /// ([`gdp_graph::io::atomic_write_bytes`]). A crash mid-publish
    /// leaves either the old file, the new file, or `*.tmp` debris a
    /// directory scan quarantines — never a torn artifact at the final
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates IO failures as [`CoreError::Graph`].
    pub fn save_atomic(&self, path: impl AsRef<Path>) -> Result<()> {
        let bytes = crate::codec::encode(self)?;
        Ok(graph_io::atomic_write_bytes(&bytes, path)?)
    }

    /// Loads the `.gda` artifact at `path`
    /// ([`ReleaseArtifact::read_binary`]). The bytes are decoded
    /// whatever the extension, so anything else — a JSON export
    /// included — fails at the container magic.
    ///
    /// # Errors
    ///
    /// Everything [`ReleaseArtifact::read_binary`] produces, plus
    /// [`CoreError::Graph`] (`GraphError::Io`) when the file cannot be
    /// opened.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let file = std::fs::File::open(path).map_err(|e| CoreError::Graph(e.into()))?;
        Self::read_binary(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disclosure::{DisclosureConfig, MultiLevelDiscloser};
    use crate::queries::Query;
    use crate::specialize::{SpecializationConfig, Specializer};
    use gdp_datagen::{DblpConfig, DblpGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn publishable() -> (GroupHierarchy, MultiLevelRelease) {
        let mut rng = StdRng::seed_from_u64(70);
        let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
        let hierarchy = Specializer::new(SpecializationConfig::median(3).unwrap())
            .specialize(&graph, &mut rng)
            .unwrap();
        let release = MultiLevelDiscloser::new(
            DisclosureConfig::count_only(0.7, 1e-6)
                .unwrap()
                .with_queries(vec![Query::TotalAssociations, Query::PerGroupCounts]),
        )
        .disclose(&graph, &hierarchy, &mut rng)
        .unwrap();
        (hierarchy, release)
    }

    /// A fixed-seed artifact covering every query and a non-default
    /// mechanism, for the pinned-digest test.
    fn golden_artifact() -> ReleaseArtifact {
        let mut rng = StdRng::seed_from_u64(2017);
        let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
        let hierarchy = Specializer::new(SpecializationConfig::median(3).unwrap())
            .specialize(&graph, &mut rng)
            .unwrap();
        let release = MultiLevelDiscloser::new(
            DisclosureConfig::count_only(0.6, 1e-6)
                .unwrap()
                .with_mechanism(NoiseMechanism::GaussianAnalytic)
                .with_queries(vec![
                    Query::TotalAssociations,
                    Query::PerGroupCounts,
                    Query::LeftDegreeHistogram { max_degree: 16 },
                    Query::GroupSizeCounts,
                ]),
        )
        .disclose(&graph, &hierarchy, &mut rng)
        .unwrap();
        ReleaseArtifact::seal("golden", 1, hierarchy, release).unwrap()
    }

    #[test]
    fn content_digest_is_pinned() {
        // The schema-6 digest of this fixture: XXH64 over its `.gda`
        // hierarchy section, a zero byte, and its release section. Any
        // drift in the section layout changes it, and every artifact
        // already on disk would then carry a digest this build no
        // longer derives.
        let artifact = golden_artifact();
        assert_eq!(artifact.manifest().content_digest, GOLDEN_DIGEST);
        assert_eq!(
            content_digest(artifact.hierarchy(), artifact.release()),
            GOLDEN_DIGEST
        );
        // The whole `.gda` file, pinned byte for byte, so no change to
        // the section writers (their bulk array copies included) can
        // move a byte unnoticed.
        let bytes = crate::codec::encode(&artifact).unwrap();
        assert_eq!(
            (bytes.len(), graph_io::xxh64(&bytes)),
            (GOLDEN_GDA_LEN, GOLDEN_GDA_DIGEST)
        );
    }

    const GOLDEN_DIGEST: u64 = 0xceb5_5e19_a3e4_0c33;
    const GOLDEN_GDA_LEN: usize = 9_184;
    const GOLDEN_GDA_DIGEST: u64 = 0xa8d1_1f0c_e44e_d4aa;

    #[test]
    fn the_hierarchy_digest_memo_changes_no_digest_and_no_equality() {
        let (hierarchy, release) = publishable();
        let shared = Arc::new(hierarchy);
        assert!(shared.digest_prefix().get().is_none());
        let a = ReleaseArtifact::seal("dblp", 1, Arc::clone(&shared), release.clone()).unwrap();
        assert!(
            shared.digest_prefix().get().is_some(),
            "seal fills the memo"
        );

        // A hierarchy without the memo hashes to the same digest, for
        // the sealed release and for another one over the same levels.
        let mut levels = release.levels().to_vec();
        levels[0].queries[0].noisy_values[0] += 1.0;
        let other = MultiLevelRelease::new(
            release.mechanism(),
            release.epsilon_g(),
            release.delta(),
            levels,
        )
        .unwrap();
        for r in [&release, &other] {
            let fresh = GroupHierarchy::new(shared.levels().to_vec()).unwrap();
            assert_eq!(content_digest(&fresh, r), content_digest(&shared, r));
        }
        assert_eq!(
            content_digest(&shared, &release),
            a.manifest().content_digest
        );

        // Reloads compare equal to the published artifact, memo or not:
        // a `.gda` load carries no memo, and neither does a hierarchy
        // read back from the JSON export.
        let gda = ReleaseArtifact::read_binary(&crate::codec::encode(&a).unwrap()[..]).unwrap();
        assert!(gda.hierarchy().digest_prefix().get().is_none());
        assert_eq!(gda, a);
        assert_eq!(*gda.hierarchy(), *shared);
        let mut buf = Vec::new();
        graph_io::write_json(&*shared, &mut buf).unwrap();
        let back: GroupHierarchy = graph_io::read_json(buf.as_slice()).unwrap();
        assert!(back.digest_prefix().get().is_none());
        assert_eq!(back, *shared);
    }

    #[test]
    fn seal_refuses_non_finite_values() {
        let (hierarchy, release) = publishable();
        let mut levels = release.levels().to_vec();
        levels[1].queries[0].noise_scale = f64::INFINITY;
        let doctored = MultiLevelRelease::new(
            release.mechanism(),
            release.epsilon_g(),
            release.delta(),
            levels,
        )
        .unwrap();
        let err = ReleaseArtifact::seal("dblp", 1, hierarchy.clone(), doctored).unwrap_err();
        assert!(matches!(err, CoreError::Artifact(_)), "{err}");
        assert!(
            err.to_string().contains("noise scale must be finite"),
            "{err}"
        );

        let mut levels = release.levels().to_vec();
        levels[0].queries[1].noisy_values[0] = f64::NAN;
        let doctored = MultiLevelRelease::new(
            release.mechanism(),
            release.epsilon_g(),
            release.delta(),
            levels,
        )
        .unwrap();
        let err = ReleaseArtifact::seal("dblp", 1, hierarchy, doctored).unwrap_err();
        assert!(matches!(err, CoreError::Artifact(_)), "{err}");
        assert!(
            err.to_string().contains("noisy value must be finite"),
            "{err}"
        );
    }

    #[test]
    fn seal_derives_consistent_manifest() {
        let (hierarchy, release) = publishable();
        let a = ReleaseArtifact::seal("dblp", 3, hierarchy.clone(), release).unwrap();
        let m = a.manifest();
        assert_eq!(m.schema_version, ARTIFACT_SCHEMA_VERSION);
        assert_eq!(m.dataset, "dblp");
        assert_eq!(m.epoch, 3);
        assert_eq!(m.level_count, hierarchy.level_count());
        assert_eq!(m.group_counts, hierarchy.group_counts());
        assert_eq!(a.dataset(), "dblp");
        assert_eq!(a.epoch(), 3);
        assert_eq!(a.level_count(), hierarchy.level_count());
    }

    #[test]
    fn seal_rejects_mismatched_payload() {
        let (hierarchy, release) = publishable();
        // A hierarchy truncated to fewer levels than the release covers.
        let fewer = GroupHierarchy::new(hierarchy.levels()[..2].to_vec()).unwrap();
        let err = ReleaseArtifact::seal("dblp", 1, fewer, release.clone()).unwrap_err();
        assert!(matches!(err, CoreError::Artifact(_)), "{err}");
        // Empty dataset names are refused.
        let err = ReleaseArtifact::seal("", 1, hierarchy, release).unwrap_err();
        assert!(err.to_string().contains("non-empty"));
    }

    #[test]
    fn each_misshapen_query_vector_is_refused_at_seal_and_on_load() {
        let a = golden_artifact();
        let kinds = [
            Query::TotalAssociations,
            Query::PerGroupCounts,
            Query::LeftDegreeHistogram { max_degree: 16 },
            Query::GroupSizeCounts,
        ];
        for kind in kinds {
            // One value too many at the coarsest level.
            let mut levels = a.release().levels().to_vec();
            let coarsest = levels.last_mut().unwrap();
            let q = coarsest.queries.iter_mut().find(|q| q.query == kind);
            q.unwrap().noisy_values.push(0.0);
            let release = MultiLevelRelease::new(
                a.release().mechanism(),
                a.release().epsilon_g(),
                a.release().delta(),
                levels,
            )
            .unwrap();
            let refused = |err: CoreError| {
                let why = format!("{kind:?} releases");
                assert!(
                    matches!(&err, CoreError::Artifact(m) if m.contains(&why)),
                    "{kind:?}: {err}"
                );
            };
            refused(
                ReleaseArtifact::seal(
                    a.dataset(),
                    a.epoch(),
                    a.hierarchy().clone(),
                    release.clone(),
                )
                .unwrap_err(),
            );

            // The same release behind a manifest whose content digest
            // is recomputed over it, in a `.gda` whose container digest
            // the encoder recomputes too.
            let mut manifest = a.manifest().clone();
            manifest.content_digest = content_digest(a.hierarchy(), &release);
            let gda = crate::codec::encode_parts(&manifest, a.hierarchy(), &release).unwrap();
            refused(ReleaseArtifact::read_binary(gda.as_slice()).unwrap_err());
        }
    }

    /// The export round trip: `.gda` → JSON export → the validating
    /// oracle ([`ReleaseArtifact::read_json`]) gives back an equal
    /// artifact with an identical manifest, its re-derived content
    /// digest included.
    #[test]
    fn json_round_trip_is_lossless() {
        let a = golden_artifact();
        let gda = ReleaseArtifact::read_binary(&crate::codec::encode(&a).unwrap()[..]).unwrap();
        let mut json = Vec::new();
        graph_io::write_json(&gda, &mut json).unwrap();
        let back = ReleaseArtifact::read_json(json.as_slice()).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.manifest(), a.manifest());
        assert_eq!(back.manifest().content_digest, GOLDEN_DIGEST);
    }

    /// A JSON export whose first noisy value was edited, its manifest
    /// digest left as exported, is refused naming both digests.
    #[test]
    fn edited_json_export_is_refused_naming_the_digest() {
        let mut json = Vec::new();
        graph_io::write_json(&golden_artifact(), &mut json).unwrap();
        let json = String::from_utf8(json).unwrap();
        let values = json.find("\"noisy_values\"").unwrap();
        let start = values + json[values..].find('[').unwrap() + 1;
        let start = start + json[start..].find(|c: char| !c.is_whitespace()).unwrap();
        let end = start + json[start..].find([',', ']']).unwrap();
        let edited = format!("{}12345.5{}", &json[..start], &json[end..]);
        assert_ne!(edited, json);
        match ReleaseArtifact::read_json(edited.as_bytes()) {
            Err(CoreError::Artifact(message)) => {
                assert!(message.contains("content digest mismatch"), "{message}");
                let promised = format!("{GOLDEN_DIGEST:#018x}");
                assert!(message.contains(&promised), "{message}");
            }
            other => panic!("an edited export must be refused: {other:?}"),
        }
    }

    /// `a` encoded as a `.gda` container behind `manifest`, which the
    /// container digest then vouches for.
    fn gda_with_manifest(a: &ReleaseArtifact, manifest: &ArtifactManifest) -> Vec<u8> {
        crate::codec::encode_parts(manifest, a.hierarchy(), a.release()).unwrap()
    }

    #[test]
    fn load_rejects_foreign_schema_version() {
        let (hierarchy, release) = publishable();
        let a = ReleaseArtifact::seal("dblp", 9, hierarchy, release).unwrap();
        let mut manifest = a.manifest().clone();
        manifest.schema_version = 99;
        let gda = gda_with_manifest(&a, &manifest);
        let err = ReleaseArtifact::read_binary(gda.as_slice()).unwrap_err();
        assert!(
            matches!(&err, CoreError::Artifact(m) if m.contains("schema version 99")),
            "unexpected error: {err}"
        );
    }

    fn sample_ledger() -> ManifestLedger {
        ManifestLedger {
            epoch_epsilon: 0.7,
            epoch_delta: 1e-6,
            cumulative_epsilon: 1.4,
            cumulative_delta: 2e-6,
            total_epsilon: 2.1,
            total_delta: 1e-5,
            releases: 2,
        }
    }

    #[test]
    fn ledger_round_trips_and_reports_remaining() {
        let (hierarchy, release) = publishable();
        let ledger = sample_ledger();
        let a = ReleaseArtifact::seal_with_ledger("dblp", 2, hierarchy, release, ledger.clone())
            .unwrap();
        assert_eq!(a.manifest().ledger.as_ref(), Some(&ledger));
        let mut buf = Vec::new();
        a.write_binary(&mut buf).unwrap();
        let back = ReleaseArtifact::read_binary(buf.as_slice()).unwrap();
        assert_eq!(a, back);
        let got = back.manifest().ledger.as_ref().unwrap();
        assert!((got.remaining_epsilon() - 0.7).abs() < 1e-12);
        assert!((got.remaining_delta() - 8e-6).abs() < 1e-18);
        assert!(!got.exhausted());
        // A drained chain reads exhausted even with ulp residue.
        let drained = ManifestLedger {
            cumulative_epsilon: 2.1 - 1e-13,
            ..sample_ledger()
        };
        assert!(drained.exhausted());
        assert_eq!(drained.remaining_epsilon(), 0.0);
    }

    #[test]
    fn broken_ledger_invariants_are_refused_at_seal_and_load() {
        let (hierarchy, release) = publishable();
        // Over-budget: cumulative beyond the authorized total.
        let over = ManifestLedger {
            cumulative_epsilon: 2.5,
            ..sample_ledger()
        };
        let err =
            ReleaseArtifact::seal_with_ledger("dblp", 2, hierarchy.clone(), release.clone(), over)
                .unwrap_err();
        assert!(
            err.to_string().contains("exceeds the authorized total"),
            "{err}"
        );
        // Epoch charge larger than the whole chain's spend.
        let inverted = ManifestLedger {
            epoch_epsilon: 1.5,
            ..sample_ledger()
        };
        let err = ReleaseArtifact::seal_with_ledger(
            "dblp",
            2,
            hierarchy.clone(),
            release.clone(),
            inverted,
        )
        .unwrap_err();
        assert!(err.to_string().contains("cumulative"), "{err}");
        // Non-finite fields.
        let nan = ManifestLedger {
            epoch_epsilon: f64::NAN,
            ..sample_ledger()
        };
        let err =
            ReleaseArtifact::seal_with_ledger("dblp", 2, hierarchy.clone(), release.clone(), nan)
                .unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
        // And an edited file cannot smuggle an over-budget ledger past
        // load-time re-validation.
        let good =
            ReleaseArtifact::seal_with_ledger("dblp", 2, hierarchy, release, sample_ledger())
                .unwrap();
        let mut manifest = good.manifest().clone();
        manifest.ledger.as_mut().unwrap().total_epsilon = 0.5;
        let doctored = gda_with_manifest(&good, &manifest);
        let err = ReleaseArtifact::read_binary(doctored.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("exceeds the authorized total"),
            "{err}"
        );
    }

    #[test]
    fn corrupted_payload_fails_with_checksum_mismatch() {
        let (hierarchy, release) = publishable();
        let a = ReleaseArtifact::seal("dblp", 9, hierarchy, release).unwrap();
        let mut bytes = crate::codec::encode(&a).unwrap();
        // Flip one bit of the last noisy value, inside the release
        // section. The manifest would still validate (it never
        // cross-checks individual values), so only the container
        // digest can catch this.
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        match ReleaseArtifact::read_binary(bytes.as_slice()) {
            Err(CoreError::Graph(gdp_graph::GraphError::Binary { message, .. })) => {
                assert!(message.contains("digest"), "{message}")
            }
            other => panic!("a flipped payload bit must fail the digest: {other:?}"),
        }
    }

    #[test]
    fn canonical_file_name_is_stable_and_path_safe() {
        assert_eq!(
            ReleaseArtifact::canonical_file_name("dblp", 7),
            "dblp-e7.gda"
        );
        assert_eq!(
            ReleaseArtifact::canonical_file_name("a/b\\c", 0),
            "a_b_c-e0.gda"
        );
        assert_eq!(
            ReleaseArtifact::canonical_file_name_as("a/b", 1, ArtifactFormat::Binary),
            "a_b-e1.gda"
        );
    }

    #[test]
    fn artifact_format_from_path_follows_the_extension() {
        use std::path::Path;
        assert_eq!(
            ArtifactFormat::from_path(Path::new("d/x-e1.gda")),
            Some(ArtifactFormat::Binary)
        );
        assert_eq!(ArtifactFormat::from_path(Path::new("d/x-e1.json")), None);
        assert_eq!(ArtifactFormat::from_path(Path::new("d/x-e1.tmp")), None);
        assert_eq!(ArtifactFormat::from_path(Path::new("d/noext")), None);
        assert_eq!(ArtifactFormat::Binary.extension(), "gda");
    }

    #[test]
    fn save_atomic_round_trips_via_disk() {
        let dir = std::env::temp_dir().join("gdp_artifact_save_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let (hierarchy, release) = publishable();
        let a = ReleaseArtifact::seal("dblp", 4, hierarchy, release).unwrap();
        let path = dir.join(ReleaseArtifact::canonical_file_name(a.dataset(), a.epoch()));
        a.save_atomic(&path).unwrap();
        // The file really is the container, and it loads back equal.
        assert_eq!(
            &std::fs::read(&path).unwrap()[..8],
            &gdp_graph::binfmt::MAGIC
        );
        assert_eq!(ReleaseArtifact::load(&path).unwrap(), a);

        // Neither call dispatches on the extension: `save_atomic` writes
        // a container under any name, and `load` decodes any file as
        // one, so a JSON export fails at the container magic.
        let odd = dir.join("odd-name.json");
        a.save_atomic(&odd).unwrap();
        assert_eq!(ReleaseArtifact::load(&odd).unwrap(), a);
        let export = dir.join("export.json");
        let mut json = Vec::new();
        graph_io::write_json(&a, &mut json).unwrap();
        std::fs::write(&export, json).unwrap();
        match ReleaseArtifact::load(&export) {
            Err(CoreError::Graph(gdp_graph::GraphError::Binary { offset: 0, message })) => {
                assert!(message.contains("bad magic"), "{message}")
            }
            other => panic!("a JSON export must not load: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_tampered_payload() {
        let (hierarchy, release) = publishable();
        let a = ReleaseArtifact::seal("dblp", 9, hierarchy, release).unwrap();
        // Lie about the level count: re-validation must catch it.
        let mut manifest = a.manifest().clone();
        manifest.level_count -= 1;
        let doctored = gda_with_manifest(&a, &manifest);
        assert!(ReleaseArtifact::read_binary(doctored.as_slice()).is_err());
    }
}
