//! The `.gda` binary artifact codec — [`ReleaseArtifact`] encoded into
//! the workspace's [`gdp_graph::binfmt`] container, the one format that
//! is published, scanned and served.
//!
//! Three sections, fixed tags:
//!
//! * **1 — manifest**: every [`ArtifactManifest`] field, including
//!   `content_digest` verbatim.
//! * **2 — hierarchy**: the refinement chain. The level count, then
//!   level 0 (the finest) per side as `(side, node_count, block_count,
//!   flag)`, followed by the `assignment[]` when the flag is 0; flag 1
//!   marks the identity partition (node `i` in block `i`, the paper's
//!   individual level), which stores no array and is used only when a
//!   level-1 map, one entry per node, bounds the node count. Each
//!   coarser level `i`
//!   follows per side as `(side, block_count, map[])`, where `map` has
//!   one entry per block of level `i − 1` naming the level-`i` block
//!   that holds it ([`GroupHierarchy::block_maps`]). `u32` arrays are
//!   8-byte aligned.
//! * **3 — release**: the bundle parameters, then per level the
//!   metadata, budget, and each query's `f64` noisy-value array with
//!   its exact bit patterns.
//!
//! [`encode`] measures the three payloads with a
//! [`ByteCounter`], then writes header, section table and sections
//! straight into one buffer of the exact file size
//! ([`ContainerWriter`]); no section is built apart and copied.
//!
//! Integrity is layered. The manifest's `content_digest` is defined on
//! this format: XXH64 over the hierarchy section payload, one zero
//! byte, then the release section payload — byte for byte what
//! [`encode`] lays out and [`gdp_graph::binfmt::read_container`] hands
//! back. [`ReleaseArtifact::seal`] computes it by streaming those bytes
//! through the same section writers into the hash
//! ([`crate::artifact::content_digest`]); no payload is built. The
//! container digest (over the raw file bytes, checked before any
//! decoding) catches truncation and bit rot cheaply, and because it
//! also pins the manifest section (including `content_digest`),
//! [`DecodedArtifact::seal`] re-runs the sealing *validation* but
//! carries the content digest instead of recomputing it.
//!
//! Storing block maps instead of every level's assignment keeps the
//! section to about one assignment's worth of bytes: on a 10-level
//! hierarchy over 433k nodes with singletons at level 0, 1.7 MB instead
//! of 17.3 MB. The decoder composes the maps back into full assignments
//! through [`SidePartition::coarsen`], which refuses a map of the wrong
//! length, an entry out of range or a map that leaves a block empty;
//! refinement holds by construction, so a non-nested hierarchy cannot
//! be written.
//!
//! The manifest layout is that of [`crate::ARTIFACT_SCHEMA_VERSION`]
//! only: [`decode`] reads the schema version first and refuses any
//! other before it interprets another manifest byte. Schema 5 files
//! stored every level's full assignment in the hierarchy section; they
//! are refused by that version check. Schema 4 files carry an FNV-1a
//! digest over their sections, inside a version-1 container, which the
//! container version check refuses first. Older schemas were never
//! written as `.gda`.
//!
//! Like the container layer, decoding is panic-free: all counts are
//! bounds-checked against the remaining section bytes before
//! allocation, and every reconstructed structure passes through its
//! validating constructor.

use gdp_graph::binfmt::{
    read_container, ByteCounter, ByteReader, ByteSink, ByteWriter, ContainerWriter,
};
use gdp_graph::{GraphError, Side, SidePartition};
use gdp_mechanisms::{Delta, Epsilon, PrivacyBudget};

use crate::artifact::{ArtifactManifest, ManifestLedger, ReleaseArtifact};
use crate::disclosure::NoiseMechanism;
use crate::error::CoreError;
use crate::hierarchy::{GroupHierarchy, GroupLevel};
use crate::queries::Query;
use crate::release::{LevelRelease, MultiLevelRelease, QueryRelease};
use crate::sensitivity::LevelSensitivity;
use crate::Result;

/// Section tag of the manifest.
pub const SECTION_MANIFEST: u32 = 1;
/// Section tag of the group hierarchy.
pub const SECTION_HIERARCHY: u32 = 2;
/// Section tag of the multi-level release.
pub const SECTION_RELEASE: u32 = 3;

fn bad(message: impl Into<String>) -> CoreError {
    CoreError::Graph(GraphError::Binary {
        offset: 0,
        message: message.into(),
    })
}

fn mechanism_tag(m: NoiseMechanism) -> u32 {
    match m {
        NoiseMechanism::GaussianClassic => 0,
        NoiseMechanism::GaussianAnalytic => 1,
        NoiseMechanism::Laplace => 2,
        NoiseMechanism::Geometric => 3,
    }
}

fn mechanism_from(tag: u32) -> Result<NoiseMechanism> {
    Ok(match tag {
        0 => NoiseMechanism::GaussianClassic,
        1 => NoiseMechanism::GaussianAnalytic,
        2 => NoiseMechanism::Laplace,
        3 => NoiseMechanism::Geometric,
        other => return Err(bad(format!("unknown noise mechanism tag {other}"))),
    })
}

fn side_tag(s: Side) -> u32 {
    match s {
        Side::Left => 0,
        Side::Right => 1,
    }
}

fn side_from(tag: u32) -> Result<Side> {
    Ok(match tag {
        0 => Side::Left,
        1 => Side::Right,
        other => return Err(bad(format!("unknown side tag {other}"))),
    })
}

fn write_manifest<S: ByteSink>(w: &mut ByteWriter<S>, m: &ArtifactManifest) {
    w.put_u32(m.schema_version);
    w.put_str(&m.dataset);
    w.put_u64(m.epoch);
    w.put_u32(mechanism_tag(m.mechanism));
    w.put_u32(0); // lane padding so the f64s below stay 8-aligned
    w.put_f64(m.epsilon_g);
    w.put_f64(m.delta);
    w.put_u64(m.level_count as u64);
    w.put_u64_slice(&m.group_counts);
    w.put_u32(m.left_nodes);
    w.put_u32(m.right_nodes);
    w.put_u64(m.content_digest);
    // The optional cross-epoch privacy ledger, as a presence flag +
    // fixed-width record.
    match &m.ledger {
        Some(l) => {
            w.put_u32(1);
            w.put_u32(0);
            w.put_f64(l.epoch_epsilon);
            w.put_f64(l.epoch_delta);
            w.put_f64(l.cumulative_epsilon);
            w.put_f64(l.cumulative_delta);
            w.put_f64(l.total_epsilon);
            w.put_f64(l.total_delta);
            w.put_u64(l.releases);
        }
        None => {
            w.put_u32(0);
            w.put_u32(0);
        }
    }
}

fn decode_manifest(bytes: &[u8]) -> Result<ArtifactManifest> {
    let mut r = ByteReader::new(bytes);
    let schema_version = r.take_u32("manifest schema_version")?;
    crate::artifact::check_schema_version(schema_version)?;
    let dataset = r.take_str("manifest dataset")?;
    let epoch = r.take_u64("manifest epoch")?;
    let mechanism = mechanism_from(r.take_u32("manifest mechanism")?)?;
    r.take_u32("manifest padding")?;
    let epsilon_g = r.take_f64("manifest epsilon_g")?;
    let delta = r.take_f64("manifest delta")?;
    let level_count = r.take_u64("manifest level_count")? as usize;
    let group_counts = r.take_u64_vec("manifest group_counts")?;
    let left_nodes = r.take_u32("manifest left_nodes")?;
    let right_nodes = r.take_u32("manifest right_nodes")?;
    let content_digest = r.take_u64("manifest content_digest")?;
    let ledger = match r.take_u32("manifest ledger flag")? {
        0 => {
            r.take_u32("manifest padding")?;
            None
        }
        1 => {
            r.take_u32("manifest padding")?;
            Some(ManifestLedger {
                epoch_epsilon: r.take_f64("ledger epoch_epsilon")?,
                epoch_delta: r.take_f64("ledger epoch_delta")?,
                cumulative_epsilon: r.take_f64("ledger cumulative_epsilon")?,
                cumulative_delta: r.take_f64("ledger cumulative_delta")?,
                total_epsilon: r.take_f64("ledger total_epsilon")?,
                total_delta: r.take_f64("ledger total_delta")?,
                releases: r.take_u64("ledger releases")?,
            })
        }
        other => return Err(bad(format!("manifest ledger flag is {other}, not 0/1"))),
    };
    r.expect_end("manifest section")?;
    Ok(ArtifactManifest {
        schema_version,
        dataset,
        epoch,
        mechanism,
        epsilon_g,
        delta,
        level_count,
        group_counts,
        left_nodes,
        right_nodes,
        content_digest,
        ledger,
    })
}

/// Level-0 flag: the full assignment follows.
const FINEST_ASSIGNMENT: u32 = 0;
/// Level-0 flag: the partition is the identity (node `i` in block `i`),
/// so no assignment is stored.
const FINEST_SINGLETONS: u32 = 1;

fn write_finest<S: ByteSink>(w: &mut ByteWriter<S>, p: &SidePartition, singletons: bool) {
    w.put_u32(side_tag(p.side()));
    w.put_u32(p.node_count());
    w.put_u32(p.block_count());
    if singletons {
        w.put_u32(FINEST_SINGLETONS);
    } else {
        w.put_u32(FINEST_ASSIGNMENT);
        w.put_u32_slice(p.assignment());
    }
}

/// Reads a side tag and refuses any side but `expected`.
fn take_side(r: &mut ByteReader<'_>, expected: Side, what: &str) -> Result<()> {
    let side = side_from(r.take_u32(what)?)?;
    if side != expected {
        return Err(CoreError::InvalidHierarchy(format!(
            "{what} partition is not Side::{expected:?}"
        )));
    }
    Ok(())
}

/// The finest level's record of one side: the partition, or the node
/// count of an identity partition, built once the level-1 map that
/// bounds it has been read.
enum Finest {
    Partition(SidePartition),
    Singletons(u32),
}

fn decode_finest(r: &mut ByteReader<'_>, side: Side, what: &str) -> Result<Finest> {
    take_side(r, side, what)?;
    let node_count = r.take_u32(what)?;
    let block_count = r.take_u32(what)?;
    match r.take_u32(what)? {
        FINEST_SINGLETONS if block_count == node_count => Ok(Finest::Singletons(node_count)),
        FINEST_SINGLETONS => Err(bad(format!(
            "{what}: singletons over {node_count} nodes declare {block_count} blocks"
        ))),
        FINEST_ASSIGNMENT => {
            let assignment = r.take_u32_vec(what)?;
            if assignment.len() != node_count as usize {
                return Err(bad(format!(
                    "{what}: {} assignments for {node_count} nodes",
                    assignment.len()
                )));
            }
            // Every block needs a node; refusing more blocks than nodes
            // here also keeps the size count from allocating for an
            // untrusted block count.
            if block_count > node_count {
                return Err(bad(format!(
                    "{what}: {block_count} blocks over {node_count} nodes"
                )));
            }
            Ok(Finest::Partition(SidePartition::new(
                side,
                assignment,
                block_count,
            )?))
        }
        other => Err(bad(format!("{what}: level-0 flag is {other}, not 0/1"))),
    }
}

/// Builds a decoded finest partition. An identity partition stores no
/// array, so its node count is trusted only when the level-1 map, read
/// from the section, has one entry per node: nothing is allocated for
/// a count the bytes do not back.
fn finest_partition(
    finest: Finest,
    side: Side,
    level_one_len: Option<usize>,
    what: &str,
) -> Result<SidePartition> {
    match finest {
        Finest::Partition(p) => Ok(p),
        Finest::Singletons(n) if level_one_len == Some(n as usize) => {
            Ok(SidePartition::singletons(side, n))
        }
        Finest::Singletons(n) => Err(bad(format!(
            "{what}: singletons over {n} nodes need a level-1 map with one entry per node"
        ))),
    }
}

fn decode_block_map(r: &mut ByteReader<'_>, side: Side, what: &str) -> Result<(Vec<u32>, u32)> {
    take_side(r, side, what)?;
    let block_count = r.take_u32(what)?;
    Ok((r.take_u32_vec(what)?, block_count))
}

/// Writes the hierarchy section payload into `w` — the buffer of
/// [`encode`], or the hasher of [`crate::artifact::content_digest`]:
/// the finest level's partitions, then per coarser level each side's
/// block map from the level below (see the module docs).
pub(crate) fn write_hierarchy<S: ByteSink>(w: &mut ByteWriter<S>, h: &GroupHierarchy) {
    w.put_u64(h.level_count() as u64);
    // The flag needs a level-1 map to bound its node count (see
    // `finest_partition`); a one-level hierarchy stores its assignment.
    let [left, right] = h.finest_singletons().map(|s| s && h.level_count() > 1);
    write_finest(w, h.finest().left(), left);
    write_finest(w, h.finest().right(), right);
    for (maps, level) in h.block_maps().iter().zip(&h.levels()[1..]) {
        for (map, p) in maps.iter().zip([level.left(), level.right()]) {
            w.put_u32(side_tag(p.side()));
            w.put_u32(p.block_count());
            w.put_u32_slice(map);
        }
    }
}

fn decode_hierarchy(bytes: &[u8]) -> Result<GroupHierarchy> {
    let mut r = ByteReader::new(bytes);
    let level_count = r.take_u64("hierarchy level_count")?;
    // Each level needs ≥ 2 side records of ≥ 16 bytes each: bound the
    // allocation against the bytes actually present.
    if level_count == 0 || level_count > (bytes.len() as u64) / 32 + 1 {
        return Err(bad(format!(
            "hierarchy declares {level_count} levels in a {}-byte section",
            bytes.len()
        )));
    }
    let (left_what, right_what) = ("hierarchy level 0 left", "hierarchy level 0 right");
    let left = decode_finest(&mut r, Side::Left, left_what)?;
    let right = decode_finest(&mut r, Side::Right, right_what)?;
    let mut coarser = Vec::with_capacity(level_count as usize - 1);
    for i in 1..level_count {
        coarser.push([
            decode_block_map(&mut r, Side::Left, &format!("hierarchy level {i} left"))?,
            decode_block_map(&mut r, Side::Right, &format!("hierarchy level {i} right"))?,
        ]);
    }
    r.expect_end("hierarchy section")?;
    let level_one_len = |side: usize| coarser.first().map(|maps| maps[side].0.len());
    let finest = GroupLevel::new(
        finest_partition(left, Side::Left, level_one_len(0), left_what)?,
        finest_partition(right, Side::Right, level_one_len(1), right_what)?,
    )?;
    GroupHierarchy::from_block_maps(finest, coarser)
}

fn query_tag(q: Query) -> (u32, u32) {
    match q {
        Query::TotalAssociations => (0, 0),
        Query::PerGroupCounts => (1, 0),
        Query::LeftDegreeHistogram { max_degree } => (2, max_degree),
        Query::GroupSizeCounts => (3, 0),
    }
}

fn query_from(tag: u32, param: u32) -> Result<Query> {
    Ok(match tag {
        0 => Query::TotalAssociations,
        1 => Query::PerGroupCounts,
        2 => Query::LeftDegreeHistogram { max_degree: param },
        3 => Query::GroupSizeCounts,
        other => return Err(bad(format!("unknown query tag {other}"))),
    })
}

/// Writes the release section payload into `w` (see
/// [`write_hierarchy`]).
pub(crate) fn write_release<S: ByteSink>(w: &mut ByteWriter<S>, rel: &MultiLevelRelease) {
    w.put_u32(mechanism_tag(rel.mechanism()));
    w.put_u32(0);
    w.put_f64(rel.epsilon_g());
    w.put_f64(rel.delta());
    w.put_u64(rel.levels().len() as u64);
    for level in rel.levels() {
        w.put_u64(level.level as u64);
        w.put_u64(level.group_count);
        w.put_u32(level.max_group_size);
        w.put_u32(0);
        w.put_f64(level.budget.epsilon.get());
        w.put_f64(level.budget.delta.get());
        w.put_u64(level.queries.len() as u64);
        for q in &level.queries {
            let (tag, param) = query_tag(q.query);
            w.put_u32(tag);
            w.put_u32(param);
            w.put_f64(q.noise_scale);
            w.put_f64(q.sensitivity.l1);
            w.put_f64(q.sensitivity.l2);
            w.put_f64_slice(&q.noisy_values);
        }
    }
}

fn decode_release(bytes: &[u8]) -> Result<MultiLevelRelease> {
    let mut r = ByteReader::new(bytes);
    let mechanism = mechanism_from(r.take_u32("release mechanism")?)?;
    r.take_u32("release padding")?;
    let epsilon_g = r.take_f64("release epsilon_g")?;
    let delta = r.take_f64("release delta")?;
    let level_count = r.take_u64("release level_count")?;
    // A level record is ≥ 48 bytes; bound before allocating.
    if level_count > (bytes.len() as u64) / 48 + 1 {
        return Err(bad(format!(
            "release declares {level_count} levels in a {}-byte section",
            bytes.len()
        )));
    }
    let mut levels = Vec::with_capacity(level_count as usize);
    for i in 0..level_count {
        let level = r.take_u64(&format!("level {i} index"))? as usize;
        let group_count = r.take_u64(&format!("level {i} group_count"))?;
        let max_group_size = r.take_u32(&format!("level {i} max_group_size"))?;
        r.take_u32("level padding")?;
        let epsilon = r.take_f64(&format!("level {i} epsilon"))?;
        let level_delta = r.take_f64(&format!("level {i} delta"))?;
        let budget = PrivacyBudget {
            epsilon: Epsilon::new(epsilon).map_err(CoreError::Mechanism)?,
            delta: Delta::new(level_delta).map_err(CoreError::Mechanism)?,
        };
        let query_count = r.take_u64(&format!("level {i} query_count"))?;
        // A query record is ≥ 40 bytes.
        if query_count > (r.remaining() as u64) / 40 + 1 {
            return Err(bad(format!(
                "level {i} declares {query_count} queries in {} remaining bytes",
                r.remaining()
            )));
        }
        let mut queries = Vec::with_capacity(query_count as usize);
        for j in 0..query_count {
            let what = format!("level {i} query {j}");
            let tag = r.take_u32(&what)?;
            let param = r.take_u32(&what)?;
            let query = query_from(tag, param)?;
            let noise_scale = r.take_f64(&what)?;
            let l1 = r.take_f64(&what)?;
            let l2 = r.take_f64(&what)?;
            let noisy_values = r.take_f64_vec(&what)?;
            queries.push(QueryRelease {
                query,
                noisy_values,
                noise_scale,
                sensitivity: LevelSensitivity { l1, l2 },
            });
        }
        levels.push(LevelRelease {
            level,
            group_count,
            max_group_size,
            budget,
            queries,
        });
    }
    r.expect_end("release section")?;
    MultiLevelRelease::new(mechanism, epsilon_g, delta, levels)
}

/// Renders a sealed artifact as `.gda` container bytes.
///
/// # Errors
///
/// [`CoreError::Graph`] (`GraphError::Binary`) only for container
/// assembly failures — impossible for a well-formed artifact, surfaced
/// as a typed error rather than a panic regardless.
pub fn encode(artifact: &ReleaseArtifact) -> Result<Vec<u8>> {
    encode_parts(
        artifact.manifest(),
        artifact.hierarchy(),
        artifact.release(),
    )
}

/// [`encode`] over parts that need not agree (the tests hand-build
/// doctored containers through it).
pub(crate) fn encode_parts(
    manifest: &ArtifactManifest,
    hierarchy: &GroupHierarchy,
    release: &MultiLevelRelease,
) -> Result<Vec<u8>> {
    let lens = [
        section_len(|w| write_manifest(w, manifest)),
        section_len(|w| write_hierarchy(w, hierarchy)),
        section_len(|w| write_release(w, release)),
    ];
    let mut container = ContainerWriter::new(&lens)?;
    container.section(SECTION_MANIFEST, |w| write_manifest(w, manifest))?;
    container.section(SECTION_HIERARCHY, |w| write_hierarchy(w, hierarchy))?;
    container.section(SECTION_RELEASE, |w| write_release(w, release))?;
    Ok(container.finish()?)
}

/// The payload length `write` produces, counted without writing it.
fn section_len(write: impl FnOnce(&mut ByteWriter<ByteCounter>)) -> usize {
    let mut w = ByteWriter::with_sink(ByteCounter::default());
    write(&mut w);
    w.into_sink().len()
}

/// A structurally decoded, digest-verified — but not yet sealed —
/// binary artifact. The container digest has already vouched for every
/// byte; the manifest is inspectable (schema version, dataset, epoch)
/// so directory scanners can produce typed errors with file context
/// before committing to [`DecodedArtifact::seal`].
#[derive(Debug, Clone)]
pub struct DecodedArtifact {
    manifest: ArtifactManifest,
    hierarchy: GroupHierarchy,
    release: MultiLevelRelease,
}

impl DecodedArtifact {
    /// The manifest as decoded, before sealing validation.
    pub fn manifest(&self) -> &ArtifactManifest {
        &self.manifest
    }

    /// Promotes the decoded parts to a sealed [`ReleaseArtifact`],
    /// re-running the full sealing validation (schema version,
    /// manifest↔payload cross-checks, finite values). The
    /// `content_digest` is **carried, not recomputed**: the container
    /// digest verified in [`decode`] already pinned the exact bytes it
    /// was decoded from, so hashing the sections again would only
    /// re-derive a value corruption can no longer have touched.
    ///
    /// # Errors
    ///
    /// [`CoreError::Artifact`] for any failed sealing validation.
    pub fn seal(self) -> Result<ReleaseArtifact> {
        ReleaseArtifact::from_digest_verified_parts(self.manifest, self.hierarchy, self.release)
    }
}

/// Decodes `.gda` container bytes: container digest verified first,
/// then all three sections structurally decoded with bounds-checked
/// reads and validating constructors. No sealing cross-validation yet
/// — that is [`DecodedArtifact::seal`] — but every returned value is
/// internally consistent (partitions surjective, refinement chain
/// composed from its block maps, level indices ordered).
///
/// # Errors
///
/// * [`CoreError::Graph`] (`GraphError::Binary`) for every structural
///   defect: truncation, bit flips (digest mismatch), missing or
///   unknown sections, malformed fields, oversized counts.
/// * [`CoreError::Artifact`] naming the version when the manifest's
///   schema version is not [`crate::ARTIFACT_SCHEMA_VERSION`].
/// * [`CoreError::InvalidHierarchy`] / [`CoreError::InvalidConfig`] /
///   [`CoreError::Mechanism`] when decoded values fail their
///   constructors' domain checks (possible only for hand-crafted
///   files — corruption is caught by the digest before decoding).
pub fn decode(bytes: &[u8]) -> Result<DecodedArtifact> {
    let sections = read_container(bytes)?;
    let find = |tag: u32, name: &str| {
        sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, payload)| *payload)
            .ok_or_else(|| bad(format!("missing {name} section (tag {tag})")))
    };
    for (tag, _) in &sections {
        if ![SECTION_MANIFEST, SECTION_HIERARCHY, SECTION_RELEASE].contains(tag) {
            return Err(bad(format!("unknown section tag {tag}")));
        }
    }
    let manifest = decode_manifest(find(SECTION_MANIFEST, "manifest")?)?;
    let hierarchy = decode_hierarchy(find(SECTION_HIERARCHY, "hierarchy")?)?;
    let release = decode_release(find(SECTION_RELEASE, "release")?)?;
    Ok(DecodedArtifact {
        manifest,
        hierarchy,
        release,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disclosure::{DisclosureConfig, MultiLevelDiscloser};
    use crate::specialize::{SpecializationConfig, Specializer};
    use gdp_datagen::{DblpConfig, DblpGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn artifact() -> ReleaseArtifact {
        let mut rng = StdRng::seed_from_u64(77);
        let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
        let hierarchy = Specializer::new(SpecializationConfig::median(2).unwrap())
            .specialize(&graph, &mut rng)
            .unwrap();
        let release = MultiLevelDiscloser::new(
            DisclosureConfig::count_only(0.6, 1e-6)
                .unwrap()
                .with_queries(vec![
                    Query::TotalAssociations,
                    Query::PerGroupCounts,
                    Query::LeftDegreeHistogram { max_degree: 8 },
                    Query::GroupSizeCounts,
                ]),
        )
        .disclose(&graph, &hierarchy, &mut rng)
        .unwrap();
        ReleaseArtifact::seal("dblp-ü", 42, hierarchy, release).unwrap()
    }

    #[test]
    fn binary_round_trip_is_lossless_and_manifest_identical() {
        let a = artifact();
        let bytes = encode(&a).unwrap();
        let back = decode(&bytes).unwrap().seal().unwrap();
        assert_eq!(a, back);
        assert_eq!(a.manifest(), back.manifest(), "manifests bit-identical");
        // The carried digest is the one sealing derives from the
        // decoded sections.
        assert_eq!(
            back.manifest().content_digest,
            crate::artifact::content_digest(back.hierarchy(), back.release())
        );
    }

    #[test]
    fn truncation_at_every_byte_is_typed_never_panics() {
        let bytes = encode(&artifact()).unwrap();
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Ok(_) => panic!("cut {cut} decoded"),
                Err(CoreError::Graph(GraphError::Binary { .. })) => {}
                Err(other) => panic!("cut {cut}: unexpected error class: {other}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error() {
        let bytes = encode(&artifact()).unwrap();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut doctored = bytes.clone();
                doctored[byte] ^= 1 << bit;
                match decode(&doctored).map(DecodedArtifact::seal) {
                    Ok(_) => panic!("byte {byte} bit {bit} decoded"),
                    Err(CoreError::Graph(GraphError::Binary { .. })) => {}
                    Err(other) => panic!("byte {byte} bit {bit}: unexpected class: {other}"),
                }
            }
        }
    }

    #[test]
    fn missing_and_unknown_sections_are_typed() {
        let a = artifact();
        let mut no_release = ContainerWriter::new(&[0, 0]).unwrap();
        no_release
            .section(SECTION_MANIFEST, |w| write_manifest(w, a.manifest()))
            .unwrap();
        no_release
            .section(SECTION_HIERARCHY, |w| write_hierarchy(w, a.hierarchy()))
            .unwrap();
        let err = decode(&no_release.finish().unwrap()).unwrap_err();
        assert!(err.to_string().contains("missing release"), "{err}");

        let mut alien = ContainerWriter::new(&[4]).unwrap();
        alien.section(99, |w| w.put_u32(7)).unwrap();
        let err = decode(&alien.finish().unwrap()).unwrap_err();
        assert!(err.to_string().contains("unknown section tag 99"), "{err}");
    }

    #[test]
    fn sealing_rejects_a_decoded_lie() {
        // Craft a container whose manifest claims the wrong level
        // count: the container digest is valid (it is a well-formed
        // file), so only seal()'s cross-validation can refuse it.
        let a = artifact();
        let mut manifest = a.manifest().clone();
        manifest.level_count += 1;
        let bytes = encode_parts(&manifest, a.hierarchy(), a.release()).unwrap();
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded.manifest().level_count, manifest.level_count);
        let err = decoded.seal().unwrap_err();
        assert!(matches!(err, CoreError::Artifact(_)), "{err}");
    }

    #[test]
    fn ledger_manifests_round_trip_bit_identically() {
        let a = artifact();
        let (dataset, epoch) = (a.dataset().to_string(), a.epoch());
        let ledger = ManifestLedger {
            epoch_epsilon: 0.6,
            epoch_delta: 1e-6,
            cumulative_epsilon: 1.2,
            cumulative_delta: 2e-6,
            total_epsilon: 3.0,
            total_delta: 1e-5,
            releases: 2,
        };
        let with = ReleaseArtifact::seal_with_ledger(
            dataset,
            epoch,
            a.hierarchy().clone(),
            a.release().clone(),
            ledger.clone(),
        )
        .unwrap();
        let bytes = encode(&with).unwrap();
        let back = decode(&bytes).unwrap().seal().unwrap();
        assert_eq!(with, back);
        assert_eq!(back.manifest().ledger.as_ref(), Some(&ledger));
    }

    #[test]
    fn pre_v4_artifacts_are_refused_naming_their_version() {
        // Schema 5 laid out every level's full assignment, schema 4
        // hashed its sections with FNV-1a, and schema 3 and older hashed
        // canonical JSON; they are refused by version, before the
        // digest.
        let a = artifact();
        for version in [3, 4, 5] {
            let refused = |e: &CoreError| {
                matches!(e, CoreError::Artifact(m)
                    if m.contains(&format!("schema version {version} unsupported")))
            };
            // A `.gda` manifest is laid out per version, so the decoder
            // refuses it right after reading the version.
            let mut manifest = a.manifest().clone();
            manifest.schema_version = version;
            let bytes = encode_parts(&manifest, a.hierarchy(), a.release()).unwrap();
            let err = decode(&bytes).unwrap_err();
            assert!(refused(&err), "{err}");
        }

        // A schema-4 file sits in a version-1 container (FNV-1a over the
        // file), which the container layer refuses first.
        let mut v1 = encode(&a).unwrap();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        match decode(&v1) {
            Err(CoreError::Graph(GraphError::Binary { offset: 8, message })) => {
                assert!(message.contains("container version 1"), "{message}")
            }
            other => panic!("a v1 container must be refused by version: {other:?}"),
        }
    }

    #[test]
    fn a_singletons_flag_allocates_nothing_the_section_does_not_back() {
        // Both sides claim the identity over u32::MAX nodes: without a
        // level-1 map, or with one too short, that is a typed refusal
        // before any assignment is allocated.
        let a = artifact();
        for (levels, map) in [(1, None), (2, Some(vec![0, 0]))] {
            let mut c = ContainerWriter::new(&[0; 3]).unwrap();
            c.section(SECTION_MANIFEST, |w| write_manifest(w, a.manifest()))
                .unwrap();
            c.section(SECTION_HIERARCHY, |w| {
                w.put_u64(levels);
                for side in [0, 1] {
                    w.put_u32(side);
                    w.put_u32(u32::MAX);
                    w.put_u32(u32::MAX);
                    w.put_u32(FINEST_SINGLETONS);
                }
                for side in [0, 1] {
                    if let Some(map) = &map {
                        w.put_u32(side);
                        w.put_u32(1);
                        w.put_u32_slice(map);
                    }
                }
            })
            .unwrap();
            c.section(SECTION_RELEASE, |w| write_release(w, a.release()))
                .unwrap();
            let err = decode(&c.finish().unwrap()).unwrap_err();
            assert!(
                err.to_string().contains("need a level-1 map"),
                "{levels} levels: {err}"
            );
        }
    }

    #[test]
    fn a_container_holding_a_nan_is_refused_at_seal() {
        // The container digest vouches for the bytes, NaN included, so
        // only seal()'s finiteness check can refuse it.
        let a = artifact();
        let mut levels = a.release().levels().to_vec();
        levels[0].queries[1].noisy_values[0] = f64::NAN;
        let release = MultiLevelRelease::new(
            a.release().mechanism(),
            a.release().epsilon_g(),
            a.release().delta(),
            levels,
        )
        .unwrap();
        let bytes = encode_parts(a.manifest(), a.hierarchy(), &release).unwrap();
        let decoded = decode(&bytes).unwrap();
        let err = decoded.seal().unwrap_err();
        assert!(matches!(err, CoreError::Artifact(_)), "{err}");
        assert!(err.to_string().contains("must be finite"), "{err}");
    }
}
