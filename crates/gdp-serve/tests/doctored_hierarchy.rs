//! A JSON artifact whose hierarchy was edited and whose content digest
//! was recomputed (XXH64 is a checksum, not a MAC) must be refused with
//! a typed error: the hierarchy's partitions, levels and refinement
//! chain deserialize through their validating constructors. A store
//! scan quarantines such a file and keeps serving the rest.
//!
//! Before the hierarchy types validated on deserialization, the
//! out-of-range case loaded and then panicked in the first block-size
//! scan (`max_group_size`, or the serving index build).

use std::fs;
use std::path::PathBuf;

use gdp_core::codec::{self, SECTION_RELEASE};
use gdp_core::{
    CoreError, DisclosureConfig, GroupHierarchy, GroupLevel, MultiLevelDiscloser, Query,
    ReleaseArtifact,
};
use gdp_graph::binfmt::{read_container, ByteWriter};
use gdp_graph::io::xxh64;
use gdp_graph::{GraphBuilder, GraphError, LeftId, RightId, Side, SidePartition};
use gdp_serve::{FileOutcome, Query as ServeQuery, ReleaseStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;

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

fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    match v {
        Value::Map(entries) => entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no field {key}")),
        other => panic!("not a map: {other:?}"),
    }
}

fn item(v: &mut Value, i: usize) -> &mut Value {
    match v {
        Value::Seq(items) => &mut items[i],
        other => panic!("not a sequence: {other:?}"),
    }
}

fn uint(v: &Value) -> u64 {
    match v {
        Value::I64(n) => *n as u64,
        Value::U64(n) => *n,
        other => panic!("not an integer: {other:?}"),
    }
}

fn uint_value(n: u64) -> Value {
    i64::try_from(n).map_or(Value::U64(n), Value::I64)
}

/// The `.gda` hierarchy section payload of a (possibly invalid) JSON
/// hierarchy: the same layout the codec writes.
fn hierarchy_section(hierarchy: &Value) -> Vec<u8> {
    let levels = hierarchy.as_map().unwrap()[0].1.as_seq().unwrap();
    let mut w = ByteWriter::new();
    w.put_u64(levels.len() as u64);
    for level in levels {
        for (_, partition) in level.as_map().unwrap() {
            let fields = partition.as_map().unwrap();
            let get = |key: &str| &fields.iter().find(|(k, _)| k == key).unwrap().1;
            w.put_u32(match get("side") {
                Value::Str(s) if s == "Left" => 0,
                Value::Str(s) if s == "Right" => 1,
                other => panic!("side {other:?}"),
            });
            w.put_u32(uint(get("block_count")) as u32);
            let assignment: Vec<u32> = get("assignment")
                .as_seq()
                .unwrap()
                .iter()
                .map(|v| uint(v) as u32)
                .collect();
            w.put_u32_slice(&assignment);
        }
    }
    w.into_bytes()
}

/// `a` as JSON with `edit` applied to its hierarchy and the manifest's
/// content digest recomputed over the edited bytes.
fn doctored_json(a: &ReleaseArtifact, edit: impl FnOnce(&mut Value)) -> String {
    let mut buf = Vec::new();
    a.write_json(&mut buf).unwrap();
    let mut doc: Value = serde_json::from_str(std::str::from_utf8(&buf).unwrap()).unwrap();
    edit(field(&mut doc, "hierarchy"));

    let encoded = codec::encode(a).unwrap();
    let release = read_container(&encoded)
        .unwrap()
        .into_iter()
        .find(|&(tag, _)| tag == SECTION_RELEASE)
        .unwrap()
        .1;
    let mut hashed = hierarchy_section(field(&mut doc, "hierarchy"));
    hashed.push(0);
    hashed.extend_from_slice(release);
    *field(field(&mut doc, "manifest"), "content_digest") = uint_value(xxh64(&hashed));
    serde_json::to_string_pretty(&doc).unwrap()
}

fn partition<'a>(hierarchy: &'a mut Value, level: usize, side: &str) -> &'a mut Value {
    field(item(field(hierarchy, "levels"), level), side)
}

fn set_assignment(hierarchy: &mut Value, level: usize, to: &[u64]) {
    for side in ["left", "right"] {
        *field(partition(hierarchy, level, side), "assignment") =
            Value::Seq(to.iter().map(|&n| uint_value(n)).collect());
    }
}

/// One hierarchy defect: its name, the edit that makes it, and the
/// message its refusal names.
type Case = (&'static str, fn(&mut Value), &'static str);

/// The four hierarchy defects.
fn cases() -> [Case; 4] {
    [
        (
            "out-of-range assignment",
            |h| {
                let coarsest = partition(h, 2, "left");
                *item(field(coarsest, "assignment"), 0) = uint_value(4_000_000_000);
            },
            "block id 4000000000 out of range",
        ),
        (
            "empty block",
            // Block 1 of level 0 loses its one member; counts and the
            // refinement chain still agree.
            |h| set_assignment(h, 0, &[0, 0, 2, 2]),
            "partition block 1 is empty",
        ),
        (
            "level not refined by the level below",
            // Level 0's block {0, 1} now straddles level 1's blocks.
            |h| set_assignment(h, 1, &[0, 1, 0, 1]),
            "level 1 is not refined by level 0",
        ),
        (
            "partition on the wrong side",
            |h| *field(partition(h, 0, "left"), "side") = Value::Str("Right".to_string()),
            "left partition is not Side::Left",
        ),
    ]
}

#[test]
fn each_doctored_hierarchy_is_a_typed_read_json_refusal() {
    let a = artifact(1);
    // The doctoring itself is faithful: an unedited document re-digests
    // to the sealed value and loads.
    let untouched = doctored_json(&a, |_| {});
    assert_eq!(ReleaseArtifact::read_json(untouched.as_bytes()).unwrap(), a);
    for (name, edit, expected) in cases() {
        let json = doctored_json(&a, edit);
        match ReleaseArtifact::read_json(json.as_bytes()) {
            Err(CoreError::Graph(GraphError::Json(message))) => {
                assert!(message.contains(expected), "{name}: {message}");
            }
            other => panic!("{name}: expected a typed JSON refusal, got {other:?}"),
        }
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdp-doctored-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
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
            doctored_json(&target, edit),
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
