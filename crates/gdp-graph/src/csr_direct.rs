//! Streaming direct-to-CSR graph construction for row-grouped sources.
//!
//! [`crate::GraphBuilder`] stages every edge in one vector, then sorts
//! and dedups the whole list — an `O(m log m)` global sort that
//! dominated synthetic-workload generation (the measured largest phase
//! of the 1M-edge pipeline run before this module existed). Sources
//! that emit edges grouped by one side's rows skip that sort:
//!
//! * each shard owns a contiguous row range and streams its edges into
//!   a [`RowShardSink`], which canonicalizes (sorts + dedups) every row
//!   as it closes, so no global edge list is ever materialized;
//! * [`assemble_left_rows`] / [`assemble_right_rows`] concatenate the
//!   shards in row order into one side's CSR and derive the opposite
//!   side by one transpose scatter.
//!
//! Per-row canonicalization is adaptive: dense rows dedup through a
//! column bitmap (sorted extraction via `trailing_zeros`), sparse rows
//! through a small `sort_unstable` + `dedup`. Both paths produce the
//! same canonical CSR as [`crate::GraphBuilder::build`] — pinned by
//! property tests over random edge streams.
//!
//! ```
//! use gdp_graph::{assemble_left_rows, EdgeSink, GraphBuilder, LeftId, RightId, RowShardSink};
//!
//! # fn main() -> Result<(), gdp_graph::GraphError> {
//! // Two shards tiling left rows 0..1 and 1..3 over 3 columns.
//! let mut first = RowShardSink::new(0..1, 3, 2);
//! first.edge(0, 1);
//! first.edge(0, 1); // a duplicate, merged when the row closes
//! let mut second = RowShardSink::new(1..3, 3, 2);
//! second.edge(1, 2);
//! second.edge(2, 0);
//! let streamed = assemble_left_rows(3, 3, vec![first, second])?;
//!
//! // Bit-identical to the incremental builder on the same stream.
//! let mut b = GraphBuilder::new(3, 3);
//! for (l, r) in [(0, 1), (0, 1), (1, 2), (2, 0)] {
//!     b.add_edge(LeftId::new(l), RightId::new(r))?;
//! }
//! assert_eq!(streamed, b.build());
//! assert_eq!(streamed.edge_count(), 3);
//! # Ok(())
//! # }
//! ```

use crate::bipartite::BipartiteGraph;
use crate::error::GraphError;
use crate::node::{LeftId, RightId};
use crate::Result;

/// A row is deduped through the column bitmap when its staged length is
/// at least `words / BITMAP_DENSITY_DIV` (otherwise sort + dedup wins).
const BITMAP_DENSITY_DIV: usize = 4;

/// Per-shard column-degree histograms are kept only below this column
/// count; above it the assembly recounts degrees globally (one extra
/// `O(m)` pass) instead of allocating `shards × col_count` counters.
/// Sized so that even a maximally sharded build (the datagen engine
/// caps at 64 shards) stays within a few megabytes of counters.
const LOCAL_COL_DEGREES_MAX: usize = 1 << 15;

/// Streaming consumer of one shard's edges.
///
/// Sources generic over `EdgeSink` can feed the direct CSR path
/// ([`RowShardSink`]) and an edge-recording baseline with the same code,
/// which is how the datagen engine pins its builder-equivalence tests.
pub trait EdgeSink {
    /// Opens row `row` (an absolute node index on the row side).
    ///
    /// Within a shard, rows must arrive in non-decreasing order;
    /// reopening the current row is a no-op, so callers may simply
    /// invoke it once per edge.
    fn begin_row(&mut self, row: u32);

    /// Adds one edge from the open row to column `col`.
    fn push_col(&mut self, col: u32);

    /// Adds the edge `(row, col)`; shorthand for
    /// [`begin_row`](EdgeSink::begin_row) + [`push_col`](EdgeSink::push_col).
    fn edge(&mut self, row: u32, col: u32) {
        self.begin_row(row);
        self.push_col(col);
    }
}

/// Records raw `(row, col)` pairs — the baseline sink used to replay a
/// streaming source through [`crate::GraphBuilder`] in equivalence
/// tests.
#[derive(Debug, Default, Clone)]
pub struct RecordingSink {
    current_row: u32,
    edges: Vec<(u32, u32)>,
}

impl RecordingSink {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded edges, in emission order.
    pub fn into_edges(self) -> Vec<(u32, u32)> {
        self.edges
    }
}

impl EdgeSink for RecordingSink {
    fn begin_row(&mut self, row: u32) {
        self.current_row = row;
    }

    fn push_col(&mut self, col: u32) {
        self.edges.push((self.current_row, col));
    }
}

/// One shard's worth of canonicalized rows, ready for assembly.
#[derive(Debug)]
struct ShardRows {
    first_row: u32,
    /// Deduped length of every row in the shard, in row order.
    row_lens: Vec<u32>,
    /// Sorted, deduped columns of all rows, concatenated.
    cols: Vec<u32>,
    /// Local column-degree histogram (`None` when the column side is too
    /// large to keep per-shard counters).
    col_degrees: Option<Vec<u32>>,
}

/// Streaming sink that canonicalizes one contiguous row range directly
/// into CSR fragments — the fast path for generators that emit edges
/// grouped by row (see the `gdp-datagen` streaming engine).
///
/// Rows close as soon as the next one begins: the staged row is deduped
/// through a column bitmap (dense rows) or a small sort (sparse rows)
/// and written out sorted, so the peak transient state is one row plus
/// the shard's output — no global edge list exists at any point.
///
/// # Panics
///
/// [`EdgeSink::begin_row`] panics when `row` leaves the shard's range or
/// moves backwards; closing a row panics when a staged column is out of
/// range. (Generators sample in range by construction; these are
/// programmer errors, matching the panic conventions of
/// [`crate::SidePartition`].)
#[derive(Debug)]
pub struct RowShardSink {
    rows: std::ops::Range<u32>,
    col_count: u32,
    words: usize,
    bitmap: Vec<u64>,
    row_buf: Vec<u32>,
    cols: Vec<u32>,
    written: usize,
    row_lens: Vec<u32>,
    col_degrees: Option<Vec<u32>>,
    current_row: Option<u32>,
}

impl RowShardSink {
    /// Creates a sink for rows `rows` over `col_count` columns,
    /// pre-allocating for about `edge_hint` staged edges.
    pub fn new(rows: std::ops::Range<u32>, col_count: u32, edge_hint: usize) -> Self {
        let words = (col_count as usize).div_ceil(64);
        let col_degrees = if (col_count as usize) <= LOCAL_COL_DEGREES_MAX {
            Some(vec![0u32; col_count as usize])
        } else {
            None
        };
        Self {
            rows: rows.clone(),
            col_count,
            words,
            bitmap: vec![0u64; words],
            row_buf: Vec::with_capacity(256),
            cols: vec![0u32; edge_hint],
            written: 0,
            row_lens: Vec::with_capacity(rows.len()),
            col_degrees,
            current_row: None,
        }
    }

    /// Canonicalizes and flushes the staged row.
    fn close_row(&mut self) {
        let k = self.row_buf.len();
        if k == 0 {
            self.row_lens.push(0);
            return;
        }
        if self.cols.len() < self.written + k {
            self.cols
                .resize((self.written + k).max(self.cols.len() * 2), 0);
        }
        let before = self.written;
        let mut max_col = 0u32;
        // Column-degree counting is fused into the emit loops below so
        // the freshly written cells are touched exactly once.
        let mut scratch_degrees = Vec::new();
        let degrees = self
            .col_degrees
            .as_mut()
            .unwrap_or(&mut scratch_degrees)
            .as_mut_slice();
        if k * BITMAP_DENSITY_DIV >= self.words {
            // Dense row: dedup via the column bitmap, extract sorted.
            for &c in &self.row_buf {
                max_col = max_col.max(c);
                self.bitmap[(c >> 6) as usize] |= 1u64 << (c & 63);
            }
            let mut w = self.written;
            for (wi, slot) in self.bitmap.iter_mut().enumerate() {
                let mut bits = *slot;
                *slot = 0;
                while bits != 0 {
                    let b = bits.trailing_zeros();
                    let c = (wi as u32) << 6 | b;
                    self.cols[w] = c;
                    if let Some(d) = degrees.get_mut(c as usize) {
                        *d += 1;
                    }
                    w += 1;
                    bits &= bits - 1;
                }
            }
            self.written = w;
        } else {
            // Sparse row: a small sort + dedup is cheaper than scanning
            // the bitmap's words.
            self.row_buf.sort_unstable();
            self.row_buf.dedup();
            max_col = *self.row_buf.last().expect("row is non-empty");
            for &c in &self.row_buf {
                if let Some(d) = degrees.get_mut(c as usize) {
                    *d += 1;
                }
            }
            self.cols[self.written..self.written + self.row_buf.len()]
                .copy_from_slice(&self.row_buf);
            self.written += self.row_buf.len();
        }
        assert!(
            max_col < self.col_count,
            "column {max_col} out of range for {} columns",
            self.col_count
        );
        self.row_lens.push((self.written - before) as u32);
        self.row_buf.clear();
    }

    /// Closes the open row and zero-fills any unvisited trailing rows.
    fn finish(mut self) -> ShardRows {
        if self.current_row.is_some() {
            self.close_row();
        }
        while self.row_lens.len() < self.rows.len() {
            self.row_lens.push(0);
        }
        self.cols.truncate(self.written);
        ShardRows {
            first_row: self.rows.start,
            row_lens: self.row_lens,
            cols: self.cols,
            col_degrees: self.col_degrees,
        }
    }
}

impl EdgeSink for RowShardSink {
    fn begin_row(&mut self, row: u32) {
        if self.current_row == Some(row) {
            return;
        }
        assert!(
            self.rows.contains(&row),
            "row {row} outside shard range {:?}",
            self.rows
        );
        let resume_from = match self.current_row {
            Some(prev) => {
                assert!(row > prev, "rows must be non-decreasing ({prev} -> {row})");
                self.close_row();
                prev + 1
            }
            None => self.rows.start,
        };
        // Zero-length rows for anything skipped over.
        for _ in resume_from..row {
            self.row_lens.push(0);
        }
        self.current_row = Some(row);
    }

    fn push_col(&mut self, col: u32) {
        self.row_buf.push(col);
    }
}

/// Assembles shards whose rows are **left** nodes into a graph.
///
/// `shards` must tile `0..left_count` with consecutive row ranges
/// (in order); every sink must have been created with
/// `col_count == right_count`.
///
/// # Errors
///
/// Returns [`GraphError::LeftNodeOutOfRange`] when the shard ranges
/// do not tile the row side exactly.
///
/// # Panics
///
/// Panics if a sink was created with a column count other than
/// `right_count` (a programmer error, like the sink's own panics).
pub fn assemble_left_rows(
    left_count: u32,
    right_count: u32,
    shards: Vec<RowShardSink>,
) -> Result<BipartiteGraph> {
    let parts = finish_shards(left_count, right_count, shards, |index, left_count| {
        GraphError::LeftNodeOutOfRange { index, left_count }
    })?;
    let (row_offsets, row_cols, col_offsets, col_rows) =
        assemble_csr(left_count, right_count, parts);
    Ok(BipartiteGraph::from_csr(
        row_offsets,
        row_cols.into_iter().map(RightId::new).collect(),
        col_offsets,
        col_rows.into_iter().map(LeftId::new).collect(),
    ))
}

/// Assembles shards whose rows are **right** nodes (the transposed
/// orientation, for sources that naturally group edges by the right
/// side) into a graph. See [`assemble_left_rows`].
///
/// # Errors
///
/// Returns [`GraphError::RightNodeOutOfRange`] when the shard ranges
/// do not tile the row side exactly.
///
/// # Panics
///
/// Panics if a sink was created with a column count other than
/// `left_count` (a programmer error, like the sink's own panics).
pub fn assemble_right_rows(
    left_count: u32,
    right_count: u32,
    shards: Vec<RowShardSink>,
) -> Result<BipartiteGraph> {
    let parts = finish_shards(right_count, left_count, shards, |index, right_count| {
        GraphError::RightNodeOutOfRange { index, right_count }
    })?;
    let (row_offsets, row_cols, col_offsets, col_rows) =
        assemble_csr(right_count, left_count, parts);
    // Rows are right nodes: the transposed arrays are the left CSR.
    Ok(BipartiteGraph::from_csr(
        col_offsets,
        col_rows.into_iter().map(RightId::new).collect(),
        row_offsets,
        row_cols.into_iter().map(LeftId::new).collect(),
    ))
}

/// Validates that `shards` tile `0..row_count` consecutively and closes
/// each sink.
fn finish_shards(
    row_count: u32,
    col_count: u32,
    shards: Vec<RowShardSink>,
    out_of_range: impl Fn(u32, u32) -> GraphError,
) -> std::result::Result<Vec<ShardRows>, GraphError> {
    let mut next = 0u32;
    for sink in &shards {
        assert_eq!(
            sink.col_count, col_count,
            "shard built for {} columns, assembly expects {col_count}",
            sink.col_count
        );
        if sink.rows.start != next {
            return Err(out_of_range(sink.rows.start, row_count));
        }
        next = sink.rows.end;
    }
    if next != row_count {
        return Err(out_of_range(next, row_count));
    }
    Ok(shards.into_iter().map(RowShardSink::finish).collect())
}

/// Concatenates canonical row shards into the row-side CSR and derives
/// the column side by a transpose scatter. Side-agnostic: callers map
/// (rows, cols) onto (left, right) or (right, left).
fn assemble_csr(
    row_count: u32,
    col_count: u32,
    parts: Vec<ShardRows>,
) -> (Vec<usize>, Vec<u32>, Vec<usize>, Vec<u32>) {
    let nr_rows = row_count as usize;
    let nr_cols = col_count as usize;
    let m: usize = parts.iter().map(|p| p.cols.len()).sum();
    // The transpose scatter below runs on u32 cursors.
    assert!(m < u32::MAX as usize, "edge count must fit in u32");

    let mut row_offsets = Vec::with_capacity(nr_rows + 1);
    row_offsets.push(0usize);
    let mut row_cols: Vec<u32> = Vec::with_capacity(m);
    let mut col_degrees = vec![0u32; nr_cols];
    let mut have_local_degrees = true;
    for part in &parts {
        debug_assert_eq!(part.first_row as usize + 1, row_offsets.len());
        for &len in &part.row_lens {
            row_offsets.push(row_offsets.last().unwrap() + len as usize);
        }
        row_cols.extend_from_slice(&part.cols);
        match &part.col_degrees {
            Some(local) => {
                for (total, &d) in col_degrees.iter_mut().zip(local) {
                    *total += d;
                }
            }
            None => have_local_degrees = false,
        }
    }
    debug_assert_eq!(row_offsets.len(), nr_rows + 1);
    debug_assert_eq!(*row_offsets.last().unwrap(), m);
    drop(parts);
    if !have_local_degrees {
        col_degrees.iter_mut().for_each(|d| *d = 0);
        for &c in &row_cols {
            col_degrees[c as usize] += 1;
        }
    }

    let mut col_offsets = vec![0usize; nr_cols + 1];
    for i in 0..nr_cols {
        col_offsets[i + 1] = col_offsets[i] + col_degrees[i] as usize;
    }

    // Transpose scatter: rows are visited in ascending order, so every
    // column's row list comes out sorted (and already deduped).
    let mut col_rows = vec![0u32; m];
    let mut cursor: Vec<u32> = col_offsets[..nr_cols].iter().map(|&o| o as u32).collect();
    for row in 0..nr_rows {
        for &c in &row_cols[row_offsets[row]..row_offsets[row + 1]] {
            let slot = &mut cursor[c as usize];
            col_rows[*slot as usize] = row as u32;
            *slot += 1;
        }
    }

    (row_offsets, row_cols, col_offsets, col_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn incremental(nl: u32, nr: u32, edges: &[(u32, u32)]) -> BipartiteGraph {
        let mut b = GraphBuilder::new(nl, nr);
        for &(l, r) in edges {
            b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
        }
        b.build()
    }

    /// One sink over `rows` fed `edges` as `(row, col)` pairs, in row
    /// order.
    fn sink_of(rows: std::ops::Range<u32>, col_count: u32, edges: &[(u32, u32)]) -> RowShardSink {
        let mut by_row = edges.to_vec();
        by_row.sort_by_key(|&(row, _)| row);
        let mut sink = RowShardSink::new(rows, col_count, by_row.len());
        for (row, col) in by_row {
            sink.edge(row, col);
        }
        sink
    }

    #[test]
    fn matches_incremental_builder_small() {
        // The same stream, grouped by left rows and by right rows.
        let edges = vec![(0, 1), (2, 0), (0, 1), (1, 2), (2, 2), (0, 0)];
        let want = incremental(3, 3, &edges);
        let left = assemble_left_rows(3, 3, vec![sink_of(0..3, 3, &edges)]).unwrap();
        assert_eq!(left, want);
        let transposed: Vec<(u32, u32)> = edges.iter().map(|&(l, r)| (r, l)).collect();
        let right = assemble_right_rows(3, 3, vec![sink_of(0..3, 3, &transposed)]).unwrap();
        assert_eq!(right, want);
    }

    #[test]
    fn multiple_shards_merge() {
        // Right rows split over three shards, the middle one empty.
        let s0 = sink_of(0..2, 4, &[(1, 3), (0, 0), (1, 3)]);
        let s1 = sink_of(2..2, 4, &[]);
        let s2 = sink_of(2..4, 4, &[(3, 1), (2, 0)]);
        let g = assemble_right_rows(4, 4, vec![s0, s1, s2]).unwrap();
        assert_eq!(g, incremental(4, 4, &[(3, 1), (0, 0), (1, 3), (0, 2)]));
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn rejects_out_of_range() {
        // A tiling that stops short names the missing row on the row
        // side of each orientation.
        assert!(matches!(
            assemble_left_rows(3, 2, vec![RowShardSink::new(0..2, 2, 0)]),
            Err(GraphError::LeftNodeOutOfRange {
                index: 2,
                left_count: 3
            })
        ));
        assert!(matches!(
            assemble_right_rows(2, 3, vec![RowShardSink::new(0..2, 2, 0)]),
            Err(GraphError::RightNodeOutOfRange {
                index: 2,
                right_count: 3
            })
        ));
    }

    #[test]
    fn empty_build() {
        let left = assemble_left_rows(3, 2, vec![RowShardSink::new(0..3, 2, 0)]).unwrap();
        assert_eq!(left, BipartiteGraph::empty(3, 2));
        let right = assemble_right_rows(3, 2, vec![RowShardSink::new(0..2, 3, 0)]).unwrap();
        assert_eq!(right, BipartiteGraph::empty(3, 2));
    }

    #[test]
    fn row_sink_streaming_left_rows() {
        // Two shards tiling rows 0..2 and 2..4.
        let mut s0 = RowShardSink::new(0..2, 3, 4);
        s0.edge(0, 2);
        s0.edge(0, 0);
        s0.edge(0, 2); // duplicate
        s0.edge(1, 1);
        let mut s1 = RowShardSink::new(2..4, 3, 4);
        s1.edge(3, 0); // row 2 skipped entirely
        let g = assemble_left_rows(4, 3, vec![s0, s1]).unwrap();
        assert_eq!(
            g,
            incremental(4, 3, &[(0, 2), (0, 0), (0, 2), (1, 1), (3, 0)])
        );
        assert_eq!(g.left_degree(LeftId::new(2)), 0);
    }

    #[test]
    fn row_sink_right_rows_transposed() {
        // Rows are right nodes; the assembled graph must still be the
        // canonical left/right CSR.
        let mut s = RowShardSink::new(0..3, 5, 8);
        s.edge(0, 4);
        s.edge(0, 1);
        s.edge(2, 1);
        s.edge(2, 1);
        let g = assemble_right_rows(5, 3, vec![s]).unwrap();
        assert_eq!(g, incremental(5, 3, &[(4, 0), (1, 0), (1, 2)]));
    }

    #[test]
    fn assemble_rejects_gapped_shards() {
        let s0 = RowShardSink::new(0..2, 3, 0);
        let s1 = RowShardSink::new(3..4, 3, 0); // gap: row 2 missing
        assert!(assemble_left_rows(4, 3, vec![s0, s1]).is_err());
        let s = RowShardSink::new(0..3, 3, 0); // short of row_count
        assert!(assemble_left_rows(4, 3, vec![s]).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sink_panics_on_bad_column() {
        let mut s = RowShardSink::new(0..1, 3, 2);
        s.edge(0, 3);
        let _ = assemble_left_rows(1, 3, vec![s]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn sink_panics_on_backward_row() {
        let mut s = RowShardSink::new(0..4, 3, 4);
        s.edge(2, 0);
        s.edge(1, 0);
    }

    #[test]
    fn recording_sink_round_trips() {
        let mut rec = RecordingSink::new();
        rec.edge(1, 2);
        rec.edge(1, 0);
        rec.edge(3, 1);
        assert_eq!(rec.into_edges(), vec![(1, 2), (1, 0), (3, 1)]);
    }

    #[test]
    fn dense_rows_use_bitmap_and_agree() {
        // Rows long enough to trigger the sink's bitmap path for a
        // small column universe (500 staged columns over 1 word).
        let nr = 64u32;
        let edges: Vec<(u32, u32)> = (0..1000u32).map(|i| (i % 2, (i * 7) % nr)).collect();
        let streamed = assemble_left_rows(2, nr, vec![sink_of(0..2, nr, &edges)]).unwrap();
        assert_eq!(streamed, incremental(2, nr, &edges));
        assert_eq!(streamed.edge_count(), 64);
    }
}
