//! A `.gda` artifact whose hierarchy section was edited, and whose
//! content digest and container digest were both recomputed (XXH64 is a
//! checksum, not a MAC), must be refused with a typed error: the
//! decoder rebuilds the finest level's partitions through their
//! validating constructors and composes every coarser level from its
//! block maps through [`SidePartition::coarsen`]. A store scan
//! quarantines such a file and keeps serving the rest.
//!
//! The section stores a refinement chain, so a level that is not
//! refined by the level below cannot be written; the chain's own
//! defects (a block map of the wrong length, a bad level-0 flag) take
//! that case's place.

use std::fs;
use std::path::PathBuf;

use gdp_core::codec::{self, SECTION_HIERARCHY, SECTION_MANIFEST, SECTION_RELEASE};
use gdp_core::{
    DisclosureConfig, GroupHierarchy, GroupLevel, MultiLevelDiscloser, Query, ReleaseArtifact,
};
use gdp_graph::binfmt::{read_container, ByteWriter};
use gdp_graph::io::xxh64;
use gdp_graph::{GraphBuilder, LeftId, RightId, Side, SidePartition};
use gdp_serve::{FileOutcome, Query as ServeQuery, ReleaseStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Three levels over 4 + 4 nodes, both sides alike:
/// `[0,0,1,2]` (3 blocks) ⊂ `[0,0,1,1]` (2 blocks) ⊂ whole.
fn artifact(epoch: u64) -> ReleaseArtifact {
    let part = |a: &[u32], blocks| {
        let level = |side| SidePartition::new(side, a.to_vec(), blocks).unwrap();
        GroupLevel::new(level(Side::Left), level(Side::Right)).unwrap()
    };
    let hierarchy = GroupHierarchy::new(vec![
        part(&[0, 0, 1, 2], 3),
        part(&[0, 0, 1, 1], 2),
        part(&[0, 0, 0, 0], 1),
    ])
    .unwrap();
    let mut b = GraphBuilder::new(4, 4);
    for (l, r) in [(0, 0), (0, 1), (1, 1), (2, 2), (3, 3), (3, 2)] {
        b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
    }
    let release = MultiLevelDiscloser::new(
        DisclosureConfig::count_only(0.5, 1e-6)
            .unwrap()
            .with_queries(vec![Query::PerGroupCounts, Query::TotalAssociations]),
    )
    .disclose(&b.build(), &hierarchy, &mut StdRng::seed_from_u64(epoch))
    .unwrap();
    ReleaseArtifact::seal("doctored", epoch, hierarchy, release).unwrap()
}

/// The finest level's record of one side as the hierarchy section lays
/// it out, free to hold what no validating constructor would accept.
struct RawFinest {
    side: u32,
    node_count: u32,
    block_count: u32,
    flag: u32,
    /// Written whenever present, whatever the flag says.
    assignment: Option<Vec<u32>>,
}

/// One side's block map from the level below, as laid out.
struct RawMap {
    side: u32,
    block_count: u32,
    map: Vec<u32>,
}

/// A hierarchy as the section stores it: the finest level's `[left,
/// right]` records, then per coarser level the `[left, right]` maps.
struct RawHierarchy {
    finest: [RawFinest; 2],
    coarser: Vec<[RawMap; 2]>,
}

fn side_tag(side: Side) -> u32 {
    match side {
        Side::Left => 0,
        Side::Right => 1,
    }
}

fn raw(hierarchy: &GroupHierarchy) -> RawHierarchy {
    let finest = |p: &SidePartition| {
        // The codec flags the identity only under a level-1 map.
        let identity = hierarchy.level_count() > 1
            && p.assignment()
                .iter()
                .enumerate()
                .all(|(i, &b)| b as usize == i);
        RawFinest {
            side: side_tag(p.side()),
            node_count: p.node_count(),
            block_count: p.block_count(),
            flag: u32::from(identity),
            assignment: (!identity).then(|| p.assignment().to_vec()),
        }
    };
    let map = |p: &SidePartition, map: &[u32]| RawMap {
        side: side_tag(p.side()),
        block_count: p.block_count(),
        map: map.to_vec(),
    };
    let level0 = hierarchy.finest();
    RawHierarchy {
        finest: [finest(level0.left()), finest(level0.right())],
        coarser: hierarchy
            .block_maps()
            .iter()
            .zip(&hierarchy.levels()[1..])
            .map(|([left, right], level)| [map(level.left(), left), map(level.right(), right)])
            .collect(),
    }
}

/// The hierarchy section payload of a (possibly invalid) raw
/// hierarchy: the same layout the codec writes.
fn hierarchy_section(hierarchy: &RawHierarchy) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(hierarchy.coarser.len() as u64 + 1);
    for finest in &hierarchy.finest {
        w.put_u32(finest.side);
        w.put_u32(finest.node_count);
        w.put_u32(finest.block_count);
        w.put_u32(finest.flag);
        if let Some(assignment) = &finest.assignment {
            w.put_u32_slice(assignment);
        }
    }
    for map in hierarchy.coarser.iter().flatten() {
        w.put_u32(map.side);
        w.put_u32(map.block_count);
        w.put_u32_slice(&map.map);
    }
    w.into_bytes()
}

/// Where the payload of section `tag` starts in container `bytes`.
fn section_at(bytes: &[u8], tag: u32) -> (usize, usize) {
    let sections = read_container(bytes).unwrap();
    let (_, payload) = sections.into_iter().find(|&(t, _)| t == tag).unwrap();
    (
        payload.as_ptr() as usize - bytes.as_ptr() as usize,
        payload.len(),
    )
}

/// `a` as `.gda` bytes with `edit` applied to its hierarchy section,
/// the manifest's content digest recomputed over the edited bytes, and
/// the container digest recomputed over the edited file. Every edit
/// keeps the section's length, so it is patched in place.
fn doctored_gda(a: &ReleaseArtifact, edit: impl FnOnce(&mut RawHierarchy)) -> Vec<u8> {
    let mut bytes = codec::encode(a).unwrap();
    let mut hierarchy = raw(a.hierarchy());
    edit(&mut hierarchy);
    let section = hierarchy_section(&hierarchy);

    let (at, len) = section_at(&bytes, SECTION_HIERARCHY);
    assert_eq!(section.len(), len, "the edit keeps the section length");
    let (release_at, release_len) = section_at(&bytes, SECTION_RELEASE);
    let mut hashed = section.clone();
    hashed.push(0);
    hashed.extend_from_slice(&bytes[release_at..release_at + release_len]);
    let (manifest_at, manifest_len) = section_at(&bytes, SECTION_MANIFEST);
    bytes[at..at + len].copy_from_slice(&section);

    // The digest field is the only place the old digest's bytes occur
    // in the manifest section.
    let old = a.manifest().content_digest.to_le_bytes();
    let manifest = &mut bytes[manifest_at..manifest_at + manifest_len];
    let field = manifest.windows(8).position(|w| w == old).unwrap();
    manifest[field..field + 8].copy_from_slice(&xxh64(&hashed).to_le_bytes());

    let digest = xxh64(&[&bytes[..16], &bytes[24..]].concat());
    bytes[16..24].copy_from_slice(&digest.to_le_bytes());
    bytes
}

/// One hierarchy defect: its name, the edit that makes it, and the
/// message its refusal names.
type Case = (&'static str, fn(&mut RawHierarchy), &'static str);

/// The six hierarchy defects. The fixture's level 0 has 3 blocks per
/// side, so the level-1 maps have 3 entries.
fn cases() -> [Case; 6] {
    [
        (
            "out-of-range map entry",
            |h| h.coarser[1][0].map[0] = 4_000_000_000,
            "block id 4000000000 out of range",
        ),
        (
            "empty block",
            // Nothing maps to level 1's left block 1: the map is not
            // surjective.
            |h| h.coarser[0][0].map = vec![0, 0, 0],
            "partition block 1 is empty",
        ),
        (
            "block map of the wrong length",
            // A fourth entry for three blocks; 3 and 4 `u32`s pad to the
            // same 8-byte boundary, so the section keeps its length.
            |h| h.coarser[0][1].map.push(1),
            "block map has 4 entries for 3 blocks",
        ),
        (
            "bad level-0 flag",
            |h| h.finest[1].flag = 2,
            "level-0 flag is 2, not 0/1",
        ),
        (
            "more level-0 blocks than nodes",
            |h| h.finest[0].block_count = 5,
            "5 blocks over 4 nodes",
        ),
        (
            "partition on the wrong side",
            |h| h.finest[0].side = 1,
            "left partition is not Side::Left",
        ),
    ]
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdp-doctored-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn each_doctored_hierarchy_is_a_typed_load_refusal() {
    let a = artifact(1);
    let dir = fresh_dir("load");
    // The doctoring itself is faithful: an unedited file re-digests to
    // the sealed values and loads.
    let path = dir.join(ReleaseArtifact::canonical_file_name("doctored", 1));
    let untouched = doctored_gda(&a, |_| {});
    assert_eq!(untouched, codec::encode(&a).unwrap());
    fs::write(&path, untouched).unwrap();
    assert_eq!(ReleaseArtifact::load(&path).unwrap(), a);
    for (name, edit, expected) in cases() {
        fs::write(&path, doctored_gda(&a, edit)).unwrap();
        match ReleaseArtifact::load(&path) {
            Err(err) => {
                let message = err.to_string();
                assert!(message.contains(expected), "{name}: {message}");
            }
            Ok(_) => panic!("{name}: a doctored hierarchy loaded"),
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_store_scan_quarantines_each_doctored_file_and_serves_the_rest() {
    let good = artifact(1);
    let target = artifact(2);
    for (i, (name, edit, expected)) in cases().into_iter().enumerate() {
        let dir = fresh_dir(&i.to_string());
        good.save_atomic(dir.join(ReleaseArtifact::canonical_file_name("doctored", 1)))
            .unwrap();
        fs::write(
            dir.join(ReleaseArtifact::canonical_file_name("doctored", 2)),
            doctored_gda(&target, edit),
        )
        .unwrap();

        let (store, report) = ReleaseStore::open_dir_report(&dir).unwrap();
        assert_eq!(report.loaded(), 1, "{name}: {}", report.summary());
        assert_eq!(report.quarantined(), 1, "{name}: {}", report.summary());
        let reason = report
            .outcomes
            .iter()
            .find_map(|o| match o {
                FileOutcome::Quarantined { reason, .. } => Some(reason.clone()),
                _ => None,
            })
            .unwrap();
        assert!(reason.contains(expected), "{name}: {reason}");

        // The valid epoch still indexes and answers.
        let indexed = store.get("doctored", 1).unwrap();
        let total = indexed
            .answer(2, &ServeQuery::SideTotal { side: Side::Left })
            .unwrap();
        assert!(total.scalar().unwrap().is_finite(), "{name}");
        assert!(store.get("doctored", 2).is_err(), "{name}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
