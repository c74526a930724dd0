//! Plain-text edge-list serialization, plus the JSON document helpers
//! every persisted artifact in the workspace shares.
//!
//! Edge-list format (whitespace-separated, `#`-prefixed comment lines
//! ignored):
//!
//! ```text
//! # optional comments
//! <left_count> <right_count> <edge_count>
//! <left_index> <right_index>
//! ...
//! ```
//!
//! The declared `edge_count` is advisory (used for pre-allocation); the
//! actual number of parsed edges wins. This mirrors common graph-dataset
//! distribution formats so that real edge lists (e.g. an actual DBLP
//! export) can be dropped in for the synthetic generator.
//!
//! [`write_json`] / [`read_json`] persist any serde-able value as a
//! pretty-printed JSON document over arbitrary `Write`/`Read` streams,
//! with IO and parse failures mapped onto [`GraphError`] exactly like
//! the edge-list functions — release artifacts (`gdp-core`) and the
//! serving layer (`gdp-serve`) build their save/load on these.
//!
//! [`atomic_write_json`] is the crash-safe variant every *published*
//! document goes through: write to a `*.tmp` sibling, fsync the file,
//! rename over the destination, fsync the directory. A crash at any
//! point leaves either the old document, the new document, or ignorable
//! `*.tmp` debris — never a torn final file. [`remove_file_durable`]
//! completes the discipline for deletion (unlink + directory fsync), so
//! retention GC survives the same crashes publish does.
//!
//! [`xxh64`] / [`Xxh64Writer`] are the workspace's one hash: the
//! artifact content digest, the `.gda` container digest and the
//! serving store's shard router.

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};

use crate::bipartite::BipartiteGraph;
use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::node::{LeftId, RightId};
use crate::Result;

/// Writes a graph as a text edge list.
///
/// A `&mut` reference to any `Write` can be passed as the writer.
///
/// # Errors
///
/// Propagates IO failures from the writer.
pub fn write_edge_list<W: Write>(graph: &BipartiteGraph, mut writer: W) -> Result<()> {
    writeln!(
        writer,
        "{} {} {}",
        graph.left_count(),
        graph.right_count(),
        graph.edge_count()
    )?;
    for (l, r) in graph.edges() {
        writeln!(writer, "{} {}", l.index(), r.index())?;
    }
    Ok(())
}

/// Reads a graph from a text edge list.
///
/// A `&mut` reference to any `Read` can be passed as the reader.
///
/// # Errors
///
/// * [`GraphError::Parse`] for malformed headers or edge lines.
/// * [`GraphError::LeftNodeOutOfRange`] / [`GraphError::RightNodeOutOfRange`]
///   when an edge exceeds the header's declared side sizes.
/// * [`GraphError::Io`] for underlying reader failures.
pub fn read_edge_list<R: Read>(reader: R) -> Result<BipartiteGraph> {
    let reader = BufReader::new(reader);
    let mut lines = reader.lines();
    let mut line_no = 0usize;

    // Header: first non-comment, non-empty line.
    let header = loop {
        line_no += 1;
        match lines.next() {
            None => {
                return Err(GraphError::Parse {
                    line: line_no,
                    message: "missing header line".to_string(),
                })
            }
            Some(line) => {
                let line = line?;
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    continue;
                }
                break trimmed.to_string();
            }
        }
    };
    let mut parts = header.split_whitespace();
    let parse_u32 = |tok: Option<&str>, what: &str, line: usize| -> Result<u32> {
        tok.ok_or_else(|| GraphError::Parse {
            line,
            message: format!("missing {what} in header"),
        })?
        .parse::<u32>()
        .map_err(|e| GraphError::Parse {
            line,
            message: format!("bad {what}: {e}"),
        })
    };
    let left_count = parse_u32(parts.next(), "left count", line_no)?;
    let right_count = parse_u32(parts.next(), "right count", line_no)?;
    let declared_edges = parse_u32(parts.next(), "edge count", line_no)? as usize;

    let mut builder = GraphBuilder::with_capacity(left_count, right_count, declared_edges);
    for line in lines {
        line_no += 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let l = parse_u32(parts.next(), "left index", line_no)?;
        let r = parse_u32(parts.next(), "right index", line_no)?;
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                message: "trailing tokens on edge line".to_string(),
            });
        }
        builder.add_edge(LeftId::new(l), RightId::new(r))?;
    }
    Ok(builder.build())
}

/// Writes any serializable value as a pretty-printed JSON document
/// (newline-terminated), the persistence convention shared by every
/// artifact the workspace saves to disk.
///
/// # Errors
///
/// * [`GraphError::Json`] when the value cannot be rendered.
/// * [`GraphError::Io`] for underlying writer failures.
pub fn write_json<T: serde::Serialize, W: Write>(value: &T, mut writer: W) -> Result<()> {
    let text = serde_json::to_string_pretty(value).map_err(|e| GraphError::Json(e.0))?;
    writer.write_all(text.as_bytes())?;
    writer.write_all(b"\n")?;
    Ok(())
}

/// Reads a JSON document written by [`write_json`] back into `T`.
///
/// # Errors
///
/// * [`GraphError::Json`] for malformed JSON or shape/domain mismatches
///   (including a type's own validation, e.g. a sealed artifact
///   rejecting an unsupported schema version).
/// * [`GraphError::Io`] for underlying reader failures.
pub fn read_json<T: serde::Deserialize, R: Read>(mut reader: R) -> Result<T> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    serde_json::from_str(&text).map_err(|e| GraphError::Json(e.0))
}

/// The `*.tmp` sibling a pending [`atomic_write_json`] stages into:
/// the destination file name with `.tmp` appended (`a.json` →
/// `a.json.tmp`). Exposed so directory scanners can recognise crash
/// debris from an interrupted publish.
pub fn pending_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Fsyncs the directory containing `path`, making a just-completed
/// rename or unlink durable. A no-op on platforms where directories
/// cannot be opened for syncing.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        let dir = File::open(parent.unwrap_or_else(|| Path::new(".")))?;
        dir.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Writes a JSON document to `path` crash-safely: stage the full
/// document in a [`pending_sibling`] `*.tmp` file, fsync it, rename it
/// over `path`, then fsync the directory. Readers never observe a torn
/// document — at every instant `path` holds either the previous
/// complete document or the new one. On any failure the staged `*.tmp`
/// is best-effort removed so a clean error leaves no debris.
///
/// # Errors
///
/// * [`GraphError::Json`] when the value cannot be rendered.
/// * [`GraphError::Io`] for create/write/fsync/rename failures.
pub fn atomic_write_json<T: serde::Serialize>(value: &T, path: impl AsRef<Path>) -> Result<()> {
    let path = path.as_ref();
    let tmp = pending_sibling(path);
    let staged = (|| -> Result<()> {
        let mut file = File::create(&tmp)?;
        write_json(value, &mut file)?;
        file.sync_all()?;
        Ok(())
    })();
    if let Err(e) = staged {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    sync_parent_dir(path)?;
    Ok(())
}

/// [`atomic_write_json`] for pre-rendered bytes — the crash-safe path
/// binary `.gda` artifacts publish through. Identical discipline:
/// stage in the [`pending_sibling`] `*.tmp`, fsync, rename over
/// `path`, fsync the directory; best-effort tmp cleanup on failure.
///
/// # Errors
///
/// [`GraphError::Io`] for create/write/fsync/rename failures.
pub fn atomic_write_bytes(bytes: &[u8], path: impl AsRef<Path>) -> Result<()> {
    let path = path.as_ref();
    let tmp = pending_sibling(path);
    let staged = (|| -> Result<()> {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        Ok(())
    })();
    if let Err(e) = staged {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    sync_parent_dir(path)?;
    Ok(())
}

/// Removes a file and fsyncs its directory — the deletion half of the
/// atomic-write discipline, used by retention GC so an eviction that
/// was reported as done stays done across a crash.
///
/// # Errors
///
/// [`GraphError::Io`] when the unlink or directory sync fails (a
/// missing file is an error: callers track what they expect to delete).
pub fn remove_file_durable(path: impl AsRef<Path>) -> Result<()> {
    let path = path.as_ref();
    std::fs::remove_file(path)?;
    sync_parent_dir(path)?;
    Ok(())
}

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes per XXH64 stripe: four 8-byte lanes.
const STRIPE: usize = 32;

fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

/// XXH64 with seed 0 over raw bytes — the workspace's one hash: the
/// artifact content digest, the `.gda` container digest and the store's
/// shard router all use it. Written from the public XXH64
/// specification. Not cryptographic; it detects torn writes, bit rot
/// and accidental edits, not adversarial tampering.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut h = Xxh64Writer::new();
    h.update(bytes);
    h.digest()
}

/// A streaming [`xxh64`]: everything written is folded into the
/// running hash, so a document can be hashed without materializing
/// it. An [`std::io::Write`] for serializers and a
/// [`crate::binfmt::ByteSink`] for binary section payloads. Writing
/// pieces in turn equals hashing their concatenation, wherever the
/// pieces split.
#[derive(Debug, Clone)]
pub struct Xxh64Writer {
    lanes: [u64; 4],
    /// A partial stripe carried to the next update.
    pending: [u8; STRIPE],
    pending_len: usize,
    total_len: u64,
}

impl Xxh64Writer {
    /// A hasher holding zero bytes (seed 0).
    pub fn new() -> Self {
        Self {
            lanes: [
                PRIME64_1.wrapping_add(PRIME64_2),
                PRIME64_2,
                0,
                PRIME64_1.wrapping_neg(),
            ],
            pending: [0; STRIPE],
            pending_len: 0,
            total_len: 0,
        }
    }

    fn consume_stripe(lanes: &mut [u64; 4], stripe: &[u8]) {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = xxh_round(*lane, read_u64(&stripe[i * 8..]));
        }
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total_len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (STRIPE - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < STRIPE {
                return;
            }
            Self::consume_stripe(&mut self.lanes, &self.pending);
            self.pending_len = 0;
        }
        let mut stripes = bytes.chunks_exact(STRIPE);
        for stripe in &mut stripes {
            Self::consume_stripe(&mut self.lanes, stripe);
        }
        let rest = stripes.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// The hash of every byte written so far.
    pub fn digest(&self) -> u64 {
        let [v1, v2, v3, v4] = self.lanes;
        let mut h = if self.total_len >= STRIPE as u64 {
            let h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            self.lanes.iter().fold(h, |h, &v| xxh_merge(h, v))
        } else {
            // Fewer than one stripe: the lanes were never used.
            PRIME64_5
        };
        h = h.wrapping_add(self.total_len);
        let mut tail = &self.pending[..self.pending_len];
        while tail.len() >= 8 {
            h ^= xxh_round(0, read_u64(tail));
            h = h
                .rotate_left(27)
                .wrapping_mul(PRIME64_1)
                .wrapping_add(PRIME64_4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let word = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
            h ^= u64::from(word).wrapping_mul(PRIME64_1);
            h = h
                .rotate_left(23)
                .wrapping_mul(PRIME64_2)
                .wrapping_add(PRIME64_3);
            tail = &tail[4..];
        }
        for &b in tail {
            h ^= u64::from(b).wrapping_mul(PRIME64_5);
            h = h.rotate_left(11).wrapping_mul(PRIME64_1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(PRIME64_2);
        h ^= h >> 29;
        h = h.wrapping_mul(PRIME64_3);
        h ^ (h >> 32)
    }
}

impl Default for Xxh64Writer {
    fn default() -> Self {
        Self::new()
    }
}

impl Write for Xxh64Writer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.update(buf);
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BipartiteGraph {
        let mut b = GraphBuilder::new(3, 2);
        for (l, r) in [(0, 0), (0, 1), (2, 1)] {
            b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
        }
        b.build()
    }

    #[test]
    fn round_trip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a comment\n\n3 2 2\n# another\n0 0\n\n2 1\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(LeftId::new(2), RightId::new(1)));
    }

    #[test]
    fn missing_header_is_an_error() {
        let err = read_edge_list("# only comments\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn malformed_edge_lines_rejected() {
        for bad in ["2 2 1\n0\n", "2 2 1\n0 x\n", "2 2 1\n0 0 7\n"] {
            let err = read_edge_list(bad.as_bytes()).unwrap_err();
            assert!(matches!(err, GraphError::Parse { .. }), "input {bad:?}");
        }
    }

    #[test]
    fn out_of_range_edges_rejected_with_graph_error() {
        let err = read_edge_list("2 2 1\n5 0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::LeftNodeOutOfRange { .. }));
    }

    #[test]
    fn header_parse_errors_name_the_field() {
        let err = read_edge_list("2 2\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("edge count"));
    }

    #[test]
    fn json_document_round_trips() {
        let g = sample();
        let mut buf = Vec::new();
        write_json(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.ends_with('\n'), "document is newline-terminated");
        let back: BipartiteGraph = read_json(buf.as_slice()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn malformed_json_is_a_typed_error() {
        let err = read_json::<BipartiteGraph, _>("{not json".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Json(_)), "{err}");
    }

    #[test]
    fn written_form_is_stable() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, "3 2 3\n0 0\n0 1\n2 1\n");
    }

    #[test]
    fn atomic_write_round_trips_and_leaves_no_debris() {
        let dir = std::env::temp_dir().join("gdp_io_atomic_rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.json");
        let g = sample();
        atomic_write_json(&g, &path).unwrap();
        assert!(!pending_sibling(&path).exists(), "tmp renamed away");
        let back: BipartiteGraph = read_json(std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(g, back);
        // Overwriting in place is equally atomic.
        atomic_write_json(&g, &path).unwrap();
        assert!(!pending_sibling(&path).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_failure_removes_staged_tmp() {
        let dir = std::env::temp_dir().join("gdp_io_atomic_fail");
        std::fs::create_dir_all(&dir).unwrap();
        // Destination is a directory: the rename must fail, and the
        // staged tmp must be cleaned up rather than left as debris.
        let path = dir.join("blocked.json");
        std::fs::create_dir_all(&path).unwrap();
        let err = atomic_write_json(&sample(), &path).unwrap_err();
        assert!(matches!(err, GraphError::Io(_)), "{err}");
        assert!(!pending_sibling(&path).exists(), "no tmp debris on failure");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pending_sibling_appends_tmp_to_the_file_name() {
        let p = pending_sibling(Path::new("store/a.json"));
        assert_eq!(p, Path::new("store/a.json.tmp"));
    }

    #[test]
    fn remove_file_durable_unlinks_and_errors_on_missing() {
        let dir = std::env::temp_dir().join("gdp_io_rm_durable");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("e.json");
        atomic_write_json(&sample(), &path).unwrap();
        remove_file_durable(&path).unwrap();
        assert!(!path.exists());
        assert!(matches!(
            remove_file_durable(&path).unwrap_err(),
            GraphError::Io(_)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn xxh64_matches_reference_vectors() {
        // Published XXH64 (seed 0) test vectors.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
    }

    /// `len` bytes of a fixed pattern, long enough to exercise every
    /// tail path of the finalizer and the stripe loop.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i.wrapping_mul(31) ^ (i >> 8)) as u8)
            .collect()
    }

    #[test]
    fn xxh64_of_a_fixed_pattern_is_pinned() {
        // Cross-checked offline with zstd, whose frame checksum is the
        // low 32 bits of XXH64 (seed 0), stored little-endian:
        //   zstd -q -c --check FILE | tail -c 4
        // where FILE holds `pattern(len)`.
        let pinned = [
            (0, 0xEF46_DB37_51D8_E999),
            (1, 0xE934_A84A_DB05_2768),
            (3, 0xE5D2_BE4A_E4B3_469A),
            (4, 0x3B4D_7F7C_6BD1_AE90),
            (7, 0xF952_F190_1A5A_FC9B),
            (8, 0x5068_3412_2CB7_B4D0),
            (31, 0xF9C8_15C5_99CB_B32D),
            (32, 0xBA7B_AFD4_7342_62DD),
            (33, 0x791C_BE85_7E7F_A007),
            (63, 0xCC8B_2A54_2E4A_451E),
            (64, 0xD14B_F011_9FD2_50A1),
            (65, 0xF514_ECCC_AEDA_9B5F),
            ((1 << 20) + 7, 0xAA60_18F3_39FC_7A90),
        ];
        for (len, digest) in pinned {
            assert_eq!(xxh64(&pattern(len)), digest, "length {len}");
        }
    }

    #[test]
    fn xxh64_writer_hashes_what_it_is_fed() {
        let mut sink = Xxh64Writer::new();
        assert_eq!(sink.digest(), xxh64(b""));
        sink.write_all(b"foo").unwrap();
        assert_eq!(sink.write(b"bar").unwrap(), 3);
        assert_eq!(sink.digest(), xxh64(b"foobar"));
        // Reading the digest does not disturb the running state.
        let long = pattern(100);
        sink.update(&long);
        let mut whole = b"foobar".to_vec();
        whole.extend_from_slice(&long);
        assert_eq!(sink.digest(), xxh64(&whole));
    }
}
