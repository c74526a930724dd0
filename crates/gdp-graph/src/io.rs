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
//! The declared `edge_count` is advisory: it sizes the first allocation,
//! capped at [`MAX_RESERVED_EDGES`] so no header can demand more memory
//! than its edges, and the actual number of parsed edges wins. The
//! declared side sizes are binding, so each is refused above
//! [`MAX_DECLARED_NODES`]: the graph holds per-node offsets for both
//! sides. This
//! mirrors common graph-dataset distribution formats so that real edge
//! lists (e.g. an actual DBLP export) can be dropped in for the
//! synthetic generator.
//!
//! [`read_edge_list`] scans its input's buffer in place. An edge line of
//! exactly the shape [`write_edge_list`] produces,
//!
//! ```text
//! DIGITS ' ' DIGITS ['\r'] '\n'      (1–10 ASCII digits, value ≤ u32::MAX)
//! ```
//!
//! is parsed straight from the buffer in one pass. Every other line —
//! the header, comments, blank lines, tabs or other whitespace
//! (Unicode included), `+` signs, 11-digit numbers, a final line with no
//! `'\n'`, anything malformed — takes the general path: UTF-8 check,
//! `trim`, `split_whitespace`, `str::parse`. Both paths accept the same
//! lines with the same values, so the lane changes only the speed; the
//! general path alone reports parse errors and their line numbers.
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
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};

use crate::bipartite::BipartiteGraph;
use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::node::{LeftId, RightId};
use crate::Result;

/// The most edges [`read_edge_list`] reserves before it has read any:
/// 2^20 pairs, 8 MiB. The header's `edge_count` is only a hint, so a
/// larger claim is trusted no further than this; the edge vector grows
/// past it as edges actually arrive.
pub const MAX_RESERVED_EDGES: usize = 1 << 20;

/// The most nodes [`read_edge_list`] accepts on one side of a header:
/// 2^24, over 7× the 2.28M nodes of the larger side of the paper-scale
/// DBLP preset. The graph keeps one `usize` offset per declared node in
/// each direction, so a header at the cap costs about 3 × 128 MiB of
/// offsets, where one declaring 2^32 nodes would ask for 32 GiB before
/// its first edge.
pub const MAX_DECLARED_NODES: u32 = 1 << 24;

/// The edge-list reader's and writer's buffer size.
const IO_BUFFER: usize = 64 * 1024;

/// Room for one rendered edge line and then some: two 10-digit ids, a
/// space and a newline take 22 bytes, and the left id is copied as a
/// fixed 16-byte block.
const LINE_ROOM: usize = 32;

/// Writes the decimal digits of `value` at `out[at..]`, returning the
/// index just past them.
#[inline]
fn put_decimal(out: &mut [u8], at: usize, mut value: u32) -> usize {
    let end = at + value.checked_ilog10().unwrap_or(0) as usize + 1;
    let mut i = end;
    loop {
        i -= 1;
        out[i] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            return end;
        }
    }
}

/// Writes a graph as a text edge list.
///
/// Edge lines are rendered into one reused 64 KiB buffer that goes to
/// the writer whenever it fills, so an unbuffered writer is fine.
///
/// # Errors
///
/// Propagates IO failures from the writer.
pub fn write_edge_list<W: Write>(graph: &BipartiteGraph, mut writer: W) -> Result<()> {
    let mut buf = vec![0u8; IO_BUFFER];
    let mut header = &mut buf[..];
    writeln!(
        header,
        "{} {} {}",
        graph.left_count(),
        graph.right_count(),
        graph.edge_count()
    )?;
    let mut len = IO_BUFFER - header.len();
    let (offsets, neighbors) = graph.left_csr();
    for (l, row) in offsets.windows(2).enumerate() {
        // The row's left id and its space, rendered once per row.
        let mut left = [0u8; 16];
        let left_len = put_decimal(&mut left, 0, l as u32) + 1;
        left[left_len - 1] = b' ';
        for r in &neighbors[row[0]..row[1]] {
            if len > IO_BUFFER - LINE_ROOM {
                writer.write_all(&buf[..len])?;
                len = 0;
            }
            buf[len..len + left.len()].copy_from_slice(&left);
            len = put_decimal(&mut buf, len + left_len, r.index());
            buf[len] = b'\n';
            len += 1;
        }
    }
    writer.write_all(&buf[..len])?;
    writer.flush()?;
    Ok(())
}

/// Parses 1–10 ASCII digits at `bytes[start..]` into a `u32`, returning
/// the value and the index just past the digits; `None` for no digits,
/// more than ten, or a value above `u32::MAX`.
#[inline]
fn lane_u32(bytes: &[u8], start: usize) -> Option<(u32, usize)> {
    let mut value = 0u64;
    let mut end = start;
    while let Some(&b) = bytes.get(end) {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        if end - start == 10 {
            return None;
        }
        value = value * 10 + u64::from(digit);
        end += 1;
    }
    if end == start {
        return None;
    }
    Some((u32::try_from(value).ok()?, end))
}

/// The fast lane: an edge line `DIGITS ' ' DIGITS ['\r'] '\n'` at the
/// start of `bytes`, as `(left, right, line length)`. `None` for any
/// other shape, including a line the buffer cuts short.
#[inline]
fn lane_edge(bytes: &[u8]) -> Option<(u32, u32, usize)> {
    let (l, end) = lane_u32(bytes, 0)?;
    if bytes.get(end) != Some(&b' ') {
        return None;
    }
    let (r, mut end) = lane_u32(bytes, end + 1)?;
    if bytes.get(end) == Some(&b'\r') {
        end += 1;
    }
    (bytes.get(end) == Some(&b'\n')).then_some((l, r, end + 1))
}

/// Parses one whitespace-separated field, naming it in the error. (The
/// message says "in header" for edge lines too, as it always has.)
fn parse_field(tok: Option<&str>, what: &str, line: usize) -> Result<u32> {
    tok.ok_or_else(|| GraphError::Parse {
        line,
        message: format!("missing {what} in header"),
    })?
    .parse::<u32>()
    .map_err(|e| GraphError::Parse {
        line,
        message: format!("bad {what}: {e}"),
    })
}

/// [`parse_field`] for a header's side size, refused above
/// [`MAX_DECLARED_NODES`].
fn parse_side(tok: Option<&str>, what: &str, line: usize) -> Result<u32> {
    let count = parse_field(tok, what, line)?;
    if count > MAX_DECLARED_NODES {
        return Err(GraphError::Parse {
            line,
            message: format!("{what} {count} exceeds the limit of {MAX_DECLARED_NODES} nodes"),
        });
    }
    Ok(count)
}

/// The general path: one whole line (its `'\n'` included when it has
/// one), numbered `line_no`. Before the header has been read, the
/// line's job is to be the header or be skipped; after, to be an edge
/// or be skipped.
fn general_line(line: &[u8], line_no: usize, builder: &mut Option<GraphBuilder>) -> Result<()> {
    let text = std::str::from_utf8(line).map_err(|_| {
        std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })?;
    let trimmed = text.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(());
    }
    let mut parts = trimmed.split_whitespace();
    let Some(builder) = builder else {
        let left_count = parse_side(parts.next(), "left count", line_no)?;
        let right_count = parse_side(parts.next(), "right count", line_no)?;
        let declared = parse_field(parts.next(), "edge count", line_no)? as usize;
        *builder = Some(GraphBuilder::with_capacity(
            left_count,
            right_count,
            declared.min(MAX_RESERVED_EDGES),
        ));
        return Ok(());
    };
    let l = parse_field(parts.next(), "left index", line_no)?;
    let r = parse_field(parts.next(), "right index", line_no)?;
    if parts.next().is_some() {
        return Err(GraphError::Parse {
            line: line_no,
            message: "trailing tokens on edge line".to_string(),
        });
    }
    builder.add_edge(LeftId::new(l), RightId::new(r))?;
    Ok(())
}

/// Reads a graph from a text edge list.
///
/// Any `Read` works, buffered or not (a `&mut` reference too): the
/// reader wraps it in its own 64 KiB buffer and parses lines where they
/// lie in it. See the [module docs](self) for the format and the fast
/// lane.
///
/// # Errors
///
/// * [`GraphError::Parse`] for malformed headers or edge lines.
/// * [`GraphError::LeftNodeOutOfRange`] / [`GraphError::RightNodeOutOfRange`]
///   when an edge exceeds the header's declared side sizes.
/// * [`GraphError::Io`] for underlying reader failures, and with
///   [`ErrorKind::InvalidData`] for a line that is not UTF-8.
pub fn read_edge_list<R: Read>(reader: R) -> Result<BipartiteGraph> {
    let mut reader = BufReader::with_capacity(IO_BUFFER, reader);
    // A line the buffer cut short, completed from the next fill.
    let mut carry = Vec::new();
    let mut line_no = 0usize;
    let mut builder: Option<GraphBuilder> = None;
    loop {
        let buf = match reader.fill_buf() {
            Ok([]) => break,
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let mut pos = 0;
        if !carry.is_empty() {
            match buf.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    carry.extend_from_slice(&buf[..=nl]);
                    line_no += 1;
                    general_line(&carry, line_no, &mut builder)?;
                    carry.clear();
                    pos = nl + 1;
                }
                None => {
                    carry.extend_from_slice(buf);
                    pos = buf.len();
                }
            }
        }
        while pos < buf.len() {
            let rest = &buf[pos..];
            if let Some(edges) = builder.as_mut() {
                if let Some((l, r, len)) = lane_edge(rest) {
                    line_no += 1;
                    edges.add_edge(LeftId::new(l), RightId::new(r))?;
                    pos += len;
                    continue;
                }
            }
            match rest.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    line_no += 1;
                    general_line(&rest[..=nl], line_no, &mut builder)?;
                    pos += nl + 1;
                }
                None => {
                    carry.extend_from_slice(rest);
                    pos = buf.len();
                }
            }
        }
        reader.consume(pos);
    }
    if !carry.is_empty() {
        line_no += 1;
        general_line(&carry, line_no, &mut builder)?;
    }
    builder
        .map(GraphBuilder::build)
        .ok_or_else(|| GraphError::Parse {
            line: line_no + 1,
            message: "missing header line".to_string(),
        })
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
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
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
    fn a_huge_declared_edge_count_reserves_only_the_cap() {
        // The header's edge count is a hint: passed through as a
        // capacity, this one asked for 32 GiB and aborted the process.
        let g = read_edge_list("2 2 4294967295\n0 1\n".as_bytes()).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(LeftId::new(0), RightId::new(1)));
    }

    #[test]
    fn a_side_above_the_node_cap_is_refused_before_any_allocation() {
        // Built as declared, either header asked for 32 GiB of offsets
        // and aborted the process.
        for (text, side) in [
            ("4294967295 2 1\n0 1\n", "left count"),
            ("2 4294967295 1\n0 1\n", "right count"),
        ] {
            match read_edge_list(text.as_bytes()).unwrap_err() {
                GraphError::Parse { line, message } => {
                    assert_eq!(line, 1);
                    assert_eq!(
                        message,
                        format!("{side} 4294967295 exceeds the limit of 16777216 nodes")
                    );
                }
                other => panic!("wrong error: {other}"),
            }
        }
        let at_cap = format!("{MAX_DECLARED_NODES} 1 0\n");
        assert!(read_edge_list(at_cap.as_bytes()).is_ok());
        let past_cap = format!("1 {} 0\n", MAX_DECLARED_NODES + 1);
        assert!(matches!(
            read_edge_list(past_cap.as_bytes()),
            Err(GraphError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn invalid_utf8_is_an_invalid_data_io_error() {
        let err = read_edge_list(&b"2 2 1\n0 1 \xff\n"[..]).unwrap_err();
        match &err {
            GraphError::Io(e) => assert_eq!(e.kind(), ErrorKind::InvalidData),
            other => panic!("wrong error: {other}"),
        }
        assert_eq!(
            err.to_string(),
            "io error: stream did not contain valid UTF-8"
        );
    }

    #[test]
    fn decimal_rendering_matches_display_at_every_width() {
        let mut values = vec![0, u32::MAX, u32::MAX - 1];
        for d in 1..10 {
            let p = 10u32.pow(d);
            values.extend([p - 1, p, p + 1]);
        }
        let mut out = [0u8; 12];
        for v in values {
            let end = put_decimal(&mut out, 1, v);
            assert_eq!(&out[1..end], v.to_string().as_bytes(), "{v}");
        }
    }

    #[test]
    fn lane_accepts_exactly_its_line_shape() {
        assert_eq!(lane_edge(b"12 34\n5"), Some((12, 34, 6)));
        assert_eq!(lane_edge(b"0 4294967295\r\n"), Some((0, u32::MAX, 14)));
        assert_eq!(lane_edge(b"0012 7\n"), Some((12, 7, 7)));
        for other in [
            &b"12 34"[..],
            b"12 34\r",
            b"12 34\r\r\n",
            b"12  34\n",
            b"12\t34\n",
            b" 12 34\n",
            b"12 34 \n",
            b"+12 34\n",
            b"12 4294967296\n",
            b"00000000001 2\n",
            b"# 1 2\n",
            b"\n",
        ] {
            assert_eq!(
                lane_edge(other),
                None,
                "{:?}",
                String::from_utf8_lossy(other)
            );
        }
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
