//! Edge-delta batches: the epoch-to-epoch update stream.
//!
//! The paper's scenario is *recurring* disclosure of an evolving
//! association graph. [`EdgeDelta`] is the unit of evolution: one
//! epoch's worth of edge insertions and deletions, validated and applied
//! atomically by [`BipartiteGraph::apply_delta`]. The applier rebuilds
//! both CSR directions with per-row merges, bulk-copying every untouched
//! row span, so a small delta against a large graph costs `O(edges)`
//! memcpy plus `O(delta · log deg)` merge work — no re-sort, no builder
//! round trip.
//!
//! Validation is strict and total: every insert must be absent, every
//! delete present, no duplicates, no pair in both halves, all ids in
//! range. A batch either applies whole or is refused whole with a typed
//! [`GraphError`]; the source graph is never modified (the applier
//! returns a new graph).
//!
//! A delta also has a plain-text wire form (one `+ l r` / `- l r` line
//! per change, `#` comments) so epoch streams can be persisted next to
//! the edge lists `io` already reads — see `docs/epochs.md`.

use std::fmt::Write as _;

use crate::bipartite::BipartiteGraph;
use crate::error::GraphError;
use crate::node::{LeftId, RightId};
use crate::Result;

/// One epoch's worth of change to a [`BipartiteGraph`]: a batch of edge
/// insertions plus a batch of edge deletions, applied atomically.
///
/// The batch is an unordered *set* of changes — [`BipartiteGraph::
/// apply_delta`] sorts internally — but it must be consistent with the
/// graph it is applied to: inserts absent, deletes present, no pair
/// listed twice or in both halves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeDelta {
    inserts: Vec<(LeftId, RightId)>,
    deletes: Vec<(LeftId, RightId)>,
}

impl EdgeDelta {
    /// A delta from explicit insert and delete lists.
    pub fn new(inserts: Vec<(LeftId, RightId)>, deletes: Vec<(LeftId, RightId)>) -> Self {
        Self { inserts, deletes }
    }

    /// The empty delta (applying it is a structural no-op).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Associations this delta adds.
    pub fn inserts(&self) -> &[(LeftId, RightId)] {
        &self.inserts
    }

    /// Associations this delta removes.
    pub fn deletes(&self) -> &[(LeftId, RightId)] {
        &self.deletes
    }

    /// Number of insertions.
    pub fn insert_count(&self) -> usize {
        self.inserts.len()
    }

    /// Number of deletions.
    pub fn delete_count(&self) -> usize {
        self.deletes.len()
    }

    /// Total number of changes in the batch.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Whether the batch carries no changes.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Net change to the edge count when this delta applies.
    pub fn net_edge_change(&self) -> i64 {
        self.inserts.len() as i64 - self.deletes.len() as i64
    }

    /// Parses the plain-text delta form: one change per line, `+ l r`
    /// for an insert and `- l r` for a delete, with blank lines and
    /// `#`-prefixed comments ignored.
    ///
    /// # Errors
    ///
    /// Any malformed line — whatever its bytes — is a
    /// [`GraphError::Parse`] naming that line; the parser never panics.
    pub fn from_text(text: &str) -> Result<Self> {
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parse = |s: &str| -> Result<(LeftId, RightId)> {
                let mut it = s.split_whitespace();
                let (l, r) = (it.next(), it.next());
                match (l, r, it.next()) {
                    (Some(l), Some(r), None) => {
                        let l: u32 = l.parse().map_err(|_| GraphError::Parse {
                            line: i + 1,
                            message: format!("bad left id {l:?}"),
                        })?;
                        let r: u32 = r.parse().map_err(|_| GraphError::Parse {
                            line: i + 1,
                            message: format!("bad right id {r:?}"),
                        })?;
                        Ok((LeftId::new(l), RightId::new(r)))
                    }
                    _ => Err(GraphError::Parse {
                        line: i + 1,
                        message: "expected two node ids after the sign".to_string(),
                    }),
                }
            };
            // A byte-level sign check: the line may start with a
            // multi-byte character, which `split_at(1)` would panic on.
            match line.as_bytes()[0] {
                b'+' => inserts.push(parse(&line[1..])?),
                b'-' => deletes.push(parse(&line[1..])?),
                _ => {
                    return Err(GraphError::Parse {
                        line: i + 1,
                        message: format!("line must start with '+' or '-', got {line:?}"),
                    })
                }
            }
        }
        Ok(Self { inserts, deletes })
    }

    /// Renders the plain-text delta form read back by [`Self::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for &(l, r) in &self.inserts {
            let _ = writeln!(out, "+ {} {}", l.index(), r.index());
        }
        for &(l, r) in &self.deletes {
            let _ = writeln!(out, "- {} {}", l.index(), r.index());
        }
        out
    }
}

/// Reusable CSR build buffers for [`BipartiteGraph::apply_delta_in_place`].
///
/// An epoch advance rebuilds both adjacency directions; building into
/// fresh vectors would fault in megabytes of new pages on *every* epoch
/// (the freed arrays go back to the OS, so the next build pays
/// first-touch again — measured as the dominant cost of a 1M-edge
/// delta apply). Instead each thread keeps one set of buffers: the new
/// arrays are built here and swapped into the graph, and the graph's
/// previous arrays become the next build's warm scratch. Steady-state
/// epoch advances therefore allocate nothing. The retained memory is
/// bounded by one adjacency copy per thread that applied deltas.
#[derive(Default)]
struct DeltaScratch {
    left_offsets: Vec<usize>,
    left_neighbors: Vec<RightId>,
    right_offsets: Vec<usize>,
    right_neighbors: Vec<LeftId>,
}

thread_local! {
    static DELTA_SCRATCH: std::cell::RefCell<DeltaScratch> =
        std::cell::RefCell::new(DeltaScratch::default());
}

impl BipartiteGraph {
    /// Applies an [`EdgeDelta`], returning the updated graph (the
    /// receiver is untouched — epochs are immutable snapshots). A thin
    /// clone-then-mutate wrapper over [`Self::apply_delta_in_place`];
    /// callers advancing an owned graph epoch by epoch should use the
    /// in-place form, which recycles the previous epoch's arrays.
    pub fn apply_delta(&self, delta: &EdgeDelta) -> Result<BipartiteGraph> {
        let mut next = self.clone();
        next.apply_delta_in_place(delta)?;
        Ok(next)
    }

    /// Applies an [`EdgeDelta`] to this graph in place — the
    /// epoch-advance step of an incremental disclosure session (see
    /// `docs/epochs.md`).
    ///
    /// Validates the whole batch (ids in range, no duplicates, no
    /// insert∩delete overlap, inserts absent, deletes present) and
    /// refuses it whole with a typed error, leaving the graph untouched
    /// — membership is checked *during* the first rebuild, which writes
    /// only scratch memory, so atomicity costs no separate lookup pass.
    /// On success both CSR directions are rebuilt by merging only the
    /// *dirty* rows (untouched row spans copy whole) into per-thread
    /// recycled buffers, so steady-state epoch advances are
    /// allocation-free.
    pub fn apply_delta_in_place(&mut self, delta: &EdgeDelta) -> Result<()> {
        let (lc, rc) = (self.left_count(), self.right_count());
        for &(l, r) in delta.inserts().iter().chain(delta.deletes()) {
            if l.index() >= lc {
                return Err(GraphError::LeftNodeOutOfRange {
                    index: l.index(),
                    left_count: lc,
                });
            }
            if r.index() >= rc {
                return Err(GraphError::RightNodeOutOfRange {
                    index: r.index(),
                    right_count: rc,
                });
            }
        }

        // Left-direction change lists, sorted row-major.
        let mut ins: Vec<(u32, RightId)> = delta
            .inserts()
            .iter()
            .map(|&(l, r)| (l.index(), r))
            .collect();
        ins.sort_unstable();
        if let Some(w) = ins.windows(2).find(|w| w[0] == w[1]) {
            return Err(GraphError::DeltaInsertExists {
                left: w[0].0,
                right: w[0].1.index(),
            });
        }
        let mut del: Vec<(u32, RightId)> = delta
            .deletes()
            .iter()
            .map(|&(l, r)| (l.index(), r))
            .collect();
        del.sort_unstable();
        if let Some(w) = del.windows(2).find(|w| w[0] == w[1]) {
            return Err(GraphError::DeltaDeleteMissing {
                left: w[0].0,
                right: w[0].1.index(),
            });
        }
        let (mut a, mut b) = (0usize, 0usize);
        while a < ins.len() && b < del.len() {
            match ins[a].cmp(&del[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    return Err(GraphError::DeltaConflict {
                        left: ins[a].0,
                        right: ins[a].1.index(),
                    })
                }
            }
        }

        DELTA_SCRATCH.with(|scratch| {
            let mut s = scratch.borrow_mut();
            let s = &mut *s;
            // Left direction validates membership while it builds: every
            // write lands in scratch, so an error refuses the batch with
            // the graph untouched.
            let (lo, ln) = self.left_csr();
            rebuild_side_validating(
                lo,
                ln,
                &ins,
                &del,
                &mut s.left_offsets,
                &mut s.left_neighbors,
            )?;

            // Right-direction change lists, sorted column-major. The
            // left pass proved every insert absent and delete present,
            // so this rebuild cannot fail.
            let mut ins_r: Vec<(u32, LeftId)> = delta
                .inserts()
                .iter()
                .map(|&(l, r)| (r.index(), l))
                .collect();
            ins_r.sort_unstable();
            let mut del_r: Vec<(u32, LeftId)> = delta
                .deletes()
                .iter()
                .map(|&(l, r)| (r.index(), l))
                .collect();
            del_r.sort_unstable();
            let (ro, rn) = self.right_csr();
            rebuild_side_validating(
                ro,
                rn,
                &ins_r,
                &del_r,
                &mut s.right_offsets,
                &mut s.right_neighbors,
            )
            .expect("right rebuild validated by left pass");

            self.swap_csr(
                &mut s.left_offsets,
                &mut s.left_neighbors,
                &mut s.right_offsets,
                &mut s.right_neighbors,
            );
            Ok(())
        })
    }
}

/// Rebuilds one CSR direction into caller-provided buffers under sorted
/// change lists: `ins`/`del` are `(row, value)` pairs sorted ascending
/// with unique keys and no insert∩delete overlap. Untouched row spans
/// are copied whole; dirty rows copy span-wise between change points (a
/// batch touches few values per row, so per-element merging would pay a
/// branch per surviving neighbor — span copies keep the rebuild
/// memcpy-bound). Membership is validated *during* the merge: a delete
/// whose value is absent or an insert whose value is present aborts
/// with [`GraphError::DeltaDeleteMissing`] /
/// [`GraphError::DeltaInsertExists`] (field order follows the
/// `(row, value)` orientation of the change lists — the left-direction
/// call site's orientation, which is the one that can still fail).
fn rebuild_side_validating<T: Copy + Ord + crate::node::NodeIndex>(
    offsets: &[usize],
    neighbors: &[T],
    ins: &[(u32, T)],
    del: &[(u32, T)],
    new_offsets: &mut Vec<usize>,
    out: &mut Vec<T>,
) -> Result<()> {
    let rows = offsets.len() - 1;
    new_offsets.clear();
    new_offsets.reserve(rows + 1);
    new_offsets.push(0usize);
    out.clear();
    out.reserve(neighbors.len() + ins.len() - del.len().min(neighbors.len()));
    let (mut ii, mut di) = (0usize, 0usize);
    let mut row = 0usize;
    while row < rows {
        let next_dirty = ins
            .get(ii)
            .map_or(rows, |&(r, _)| r as usize)
            .min(del.get(di).map_or(rows, |&(r, _)| r as usize));
        if next_dirty > row {
            // Clean span [row, next_dirty): one bulk copy, offsets shift
            // by a constant.
            let base = out.len();
            let span_start = offsets[row];
            out.extend_from_slice(&neighbors[span_start..offsets[next_dirty]]);
            new_offsets.extend(
                offsets[row + 1..=next_dirty]
                    .iter()
                    .map(|&o| base + (o - span_start)),
            );
            row = next_dirty;
            continue;
        }
        // Dirty row: walk this row's change points in value order,
        // bulk-copying the untouched span before each one. A delete
        // skips its old element; an insert emits its new value. Insert
        // and delete values never collide — the overlap check refused
        // that batch.
        let ins_end = ii
            + ins[ii..]
                .iter()
                .take_while(|&&(r, _)| r as usize == row)
                .count();
        let del_end = di
            + del[di..]
                .iter()
                .take_while(|&&(r, _)| r as usize == row)
                .count();
        let old = &neighbors[offsets[row]..offsets[row + 1]];
        let mut pos = 0usize;
        while ii < ins_end || di < del_end {
            let take_del = match (
                (di < del_end).then(|| del[di].1),
                (ii < ins_end).then(|| ins[ii].1),
            ) {
                (Some(dv), Some(iv)) => dv < iv,
                (Some(_), None) => true,
                _ => false,
            };
            if take_del {
                let cut = pos + old[pos..].partition_point(|&x| x < del[di].1);
                if cut == old.len() || old[cut] != del[di].1 {
                    return Err(GraphError::DeltaDeleteMissing {
                        left: row as u32,
                        right: del[di].1.node_index(),
                    });
                }
                out.extend_from_slice(&old[pos..cut]);
                pos = cut + 1;
                di += 1;
            } else {
                let cut = pos + old[pos..].partition_point(|&x| x < ins[ii].1);
                if cut < old.len() && old[cut] == ins[ii].1 {
                    return Err(GraphError::DeltaInsertExists {
                        left: row as u32,
                        right: ins[ii].1.node_index(),
                    });
                }
                out.extend_from_slice(&old[pos..cut]);
                out.push(ins[ii].1);
                pos = cut;
                ii += 1;
            }
        }
        out.extend_from_slice(&old[pos..]);
        new_offsets.push(out.len());
        row += 1;
    }
    debug_assert_eq!(*new_offsets.last().unwrap(), out.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn sample() -> BipartiteGraph {
        let mut b = GraphBuilder::new(4, 3);
        for (l, r) in [(0, 0), (0, 1), (1, 0), (2, 2), (3, 1), (3, 2)] {
            b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
        }
        b.build()
    }

    fn rebuild_from_edges(g: &BipartiteGraph, delta: &EdgeDelta) -> BipartiteGraph {
        // Naive reference: edge set surgery through the builder.
        let mut edges: Vec<(LeftId, RightId)> = g.edges().collect();
        edges.retain(|e| !delta.deletes().contains(e));
        edges.extend_from_slice(delta.inserts());
        let mut b = GraphBuilder::new(g.left_count(), g.right_count());
        for (l, r) in edges {
            b.add_edge(l, r).unwrap();
        }
        b.build()
    }

    #[test]
    fn apply_matches_builder_rebuild() {
        let g = sample();
        let delta = EdgeDelta::new(
            vec![
                (LeftId::new(1), RightId::new(2)),
                (LeftId::new(0), RightId::new(2)),
            ],
            vec![
                (LeftId::new(0), RightId::new(0)),
                (LeftId::new(3), RightId::new(1)),
            ],
        );
        let applied = g.apply_delta(&delta).unwrap();
        assert_eq!(applied, rebuild_from_edges(&g, &delta));
        assert_eq!(applied.edge_count(), 6);
        // The source graph is untouched.
        assert_eq!(g, sample());
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = sample();
        assert_eq!(g.apply_delta(&EdgeDelta::empty()).unwrap(), g);
    }

    #[test]
    fn delete_to_empty_row_and_refill() {
        let g = sample();
        // Remove every edge of L0 and L3.
        let delta = EdgeDelta::new(
            Vec::new(),
            vec![
                (LeftId::new(0), RightId::new(0)),
                (LeftId::new(0), RightId::new(1)),
                (LeftId::new(3), RightId::new(1)),
                (LeftId::new(3), RightId::new(2)),
            ],
        );
        let emptied = g.apply_delta(&delta).unwrap();
        assert_eq!(emptied.left_degree(LeftId::new(0)), 0);
        assert_eq!(emptied.left_degree(LeftId::new(3)), 0);
        assert_eq!(emptied, rebuild_from_edges(&g, &delta));
        // And refill a previously-empty row.
        let refill = EdgeDelta::new(vec![(LeftId::new(0), RightId::new(2))], Vec::new());
        let refilled = emptied.apply_delta(&refill).unwrap();
        assert!(refilled.has_edge(LeftId::new(0), RightId::new(2)));
        assert_eq!(refilled, rebuild_from_edges(&emptied, &refill));
    }

    #[test]
    fn typed_refusals() {
        let g = sample();
        let exists = EdgeDelta::new(vec![(LeftId::new(0), RightId::new(0))], Vec::new());
        assert!(matches!(
            g.apply_delta(&exists),
            Err(GraphError::DeltaInsertExists { left: 0, right: 0 })
        ));
        let missing = EdgeDelta::new(Vec::new(), vec![(LeftId::new(1), RightId::new(1))]);
        assert!(matches!(
            g.apply_delta(&missing),
            Err(GraphError::DeltaDeleteMissing { left: 1, right: 1 })
        ));
        let conflict = EdgeDelta::new(
            vec![(LeftId::new(1), RightId::new(1))],
            vec![(LeftId::new(1), RightId::new(1))],
        );
        assert!(matches!(
            g.apply_delta(&conflict),
            Err(GraphError::DeltaConflict { left: 1, right: 1 })
        ));
        let dup = EdgeDelta::new(
            vec![
                (LeftId::new(1), RightId::new(1)),
                (LeftId::new(1), RightId::new(1)),
            ],
            Vec::new(),
        );
        assert!(matches!(
            g.apply_delta(&dup),
            Err(GraphError::DeltaInsertExists { .. })
        ));
        let oob = EdgeDelta::new(vec![(LeftId::new(9), RightId::new(0))], Vec::new());
        assert!(matches!(
            g.apply_delta(&oob),
            Err(GraphError::LeftNodeOutOfRange { index: 9, .. })
        ));
        let oob_r = EdgeDelta::new(Vec::new(), vec![(LeftId::new(0), RightId::new(9))]);
        assert!(matches!(
            g.apply_delta(&oob_r),
            Err(GraphError::RightNodeOutOfRange { index: 9, .. })
        ));
    }

    #[test]
    fn refusal_leaves_graph_untouched() {
        let g = sample();
        let bad = EdgeDelta::new(
            vec![(LeftId::new(1), RightId::new(2))],
            vec![(LeftId::new(1), RightId::new(1))], // missing
        );
        assert!(g.apply_delta(&bad).is_err());
        assert_eq!(g, sample());
    }

    #[test]
    fn text_round_trip() {
        let delta = EdgeDelta::new(
            vec![(LeftId::new(3), RightId::new(0))],
            vec![(LeftId::new(0), RightId::new(1))],
        );
        let text = delta.to_text();
        assert_eq!(EdgeDelta::from_text(&text).unwrap(), delta);
        let commented = format!("# epoch 7 changes\n\n{text}");
        assert_eq!(EdgeDelta::from_text(&commented).unwrap(), delta);
    }

    #[test]
    fn text_parse_errors_carry_line_numbers() {
        let err = EdgeDelta::from_text("+ 1 2\n* 3 4").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
        let err = EdgeDelta::from_text("+ 1").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
        let err = EdgeDelta::from_text("- 1 x").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
        // A line starting with a multi-byte character is refused, not a
        // panic at a char boundary.
        let err = EdgeDelta::from_text("é 1 2").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn counters() {
        let delta = EdgeDelta::new(
            vec![(LeftId::new(0), RightId::new(0))],
            vec![
                (LeftId::new(1), RightId::new(0)),
                (LeftId::new(2), RightId::new(2)),
            ],
        );
        assert_eq!(delta.insert_count(), 1);
        assert_eq!(delta.delete_count(), 2);
        assert_eq!(delta.len(), 3);
        assert_eq!(delta.net_edge_change(), -1);
        assert!(!delta.is_empty());
        assert!(EdgeDelta::empty().is_empty());
    }
}
