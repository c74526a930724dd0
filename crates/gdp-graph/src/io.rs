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

/// FNV-1a 64-bit hash over raw bytes — the workspace's standard content
/// digest (the same function routes store shards). Not cryptographic;
/// it detects torn writes, bit rot and accidental edits, not
/// adversarial tampering.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a_64_with(0xcbf2_9ce4_8422_2325, bytes)
}

/// [`fnv1a_64`] continued from a prior digest, for chaining multiple
/// byte sections into one digest without concatenating them.
pub fn fnv1a_64_with(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = seed;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A sink that folds everything written into a running [`fnv1a_64`]
/// digest, so a document can be hashed without materializing it: an
/// [`std::io::Write`] for serializers, and a
/// [`crate::binfmt::ByteSink`] for binary section payloads. Writing
/// sections in turn equals hashing their concatenation.
#[derive(Debug, Clone)]
pub struct Fnv1aWriter {
    hash: u64,
}

impl Fnv1aWriter {
    /// A sink holding the digest of zero bytes.
    pub fn new() -> Self {
        Self {
            hash: fnv1a_64(&[]),
        }
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        self.hash = fnv1a_64_with(self.hash, bytes);
    }

    /// The digest of every byte written so far.
    pub fn digest(&self) -> u64 {
        self.hash
    }
}

impl Default for Fnv1aWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl Write for Fnv1aWriter {
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
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
        // Chaining two sections equals hashing the concatenation.
        let whole = fnv1a_64(b"foobar");
        let chained = fnv1a_64_with(fnv1a_64(b"foo"), b"bar");
        assert_eq!(whole, chained);
    }

    #[test]
    fn fnv1a_writer_hashes_what_it_is_fed() {
        let mut sink = Fnv1aWriter::new();
        assert_eq!(sink.digest(), fnv1a_64(b""));
        sink.write_all(b"foo").unwrap();
        assert_eq!(sink.write(b"bar").unwrap(), 3);
        assert_eq!(sink.digest(), fnv1a_64(b"foobar"));
    }
}
