use serde::{Deserialize, Serialize};

use crate::bipartite::BipartiteGraph;
use crate::error::GraphError;
use crate::node::{LeftId, RightId, Side};
use crate::Result;

/// A partition of the nodes of **one side** of a bipartite graph into
/// consecutive block ids `0..block_count`.
///
/// This is the structural half of the paper's notion of *groups*: every
/// hierarchy level consists of one `SidePartition` per side, and the
/// group-level sensitivity of a query at that level is computed from each
/// block's **incident-edge count** (removing a whole group removes
/// exactly its incident associations).
///
/// Every value is validated when it is built, deserialization included
/// (it goes through [`SidePartition::new`]), and fixed afterwards. The
/// block sizes are counted then and kept, so
/// [`SidePartition::block_sizes`] and [`SidePartition::max_block_size`]
/// never rescan the assignment.
///
/// ```
/// use gdp_graph::{GraphBuilder, LeftId, RightId, Side, SidePartition};
///
/// # fn main() -> Result<(), gdp_graph::GraphError> {
/// let mut b = GraphBuilder::new(4, 2);
/// b.add_edge(LeftId::new(0), RightId::new(0))?;
/// b.add_edge(LeftId::new(1), RightId::new(0))?;
/// b.add_edge(LeftId::new(2), RightId::new(1))?;
/// let g = b.build();
/// // Blocks {0,1} and {2,3}.
/// let p = SidePartition::new(Side::Left, vec![0, 0, 1, 1], 2)?;
/// assert_eq!(p.incident_edge_counts(&g), vec![2, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "PartitionParts", into = "PartitionParts")]
pub struct SidePartition {
    side: Side,
    assignment: Vec<u32>,
    /// Members of each block, counted at construction; its length is
    /// the block count.
    block_sizes: Vec<u32>,
    /// Members of the largest block (0 for an empty partition).
    max_block_size: u32,
}

/// The serialized fields of a [`SidePartition`]; deserializing
/// promotes them through [`SidePartition::new`], so a document cannot
/// hold an out-of-range assignment or an empty block.
#[derive(Serialize, Deserialize)]
struct PartitionParts {
    side: Side,
    assignment: Vec<u32>,
    block_count: u32,
}

impl From<SidePartition> for PartitionParts {
    fn from(p: SidePartition) -> Self {
        Self {
            block_count: p.block_count(),
            side: p.side,
            assignment: p.assignment,
        }
    }
}

impl TryFrom<PartitionParts> for SidePartition {
    type Error = GraphError;

    fn try_from(p: PartitionParts) -> Result<Self> {
        Self::new(p.side, p.assignment, p.block_count)
    }
}

impl SidePartition {
    /// Creates a partition from a per-node block assignment.
    ///
    /// # Errors
    ///
    /// * [`GraphError::BlockOutOfRange`] if any assignment is
    ///   ≥ `block_count`.
    /// * [`GraphError::EmptyBlock`] if some block id in
    ///   `0..block_count` has no member (partitions must be surjective so
    ///   block statistics are well-defined).
    pub fn new(side: Side, assignment: Vec<u32>, block_count: u32) -> Result<Self> {
        let sizes = count_block_sizes(&assignment, block_count)?;
        if let Some(block) = sizes.iter().position(|&s| s == 0) {
            return Err(GraphError::EmptyBlock {
                block: block as u32,
            });
        }
        Ok(Self {
            side,
            assignment,
            max_block_size: sizes.iter().copied().max().unwrap_or(0),
            block_sizes: sizes,
        })
    }

    /// The single-block partition of `n` nodes (the top of a hierarchy).
    ///
    /// Returns `None` when `n == 0` (a partition needs at least one node
    /// to populate its one block).
    pub fn whole(side: Side, n: u32) -> Option<Self> {
        if n == 0 {
            return None;
        }
        Some(Self {
            side,
            assignment: vec![0; n as usize],
            block_sizes: vec![n],
            max_block_size: n,
        })
    }

    /// The singletons partition of `n` nodes (the bottom of a hierarchy,
    /// i.e. individual-level privacy).
    pub fn singletons(side: Side, n: u32) -> Self {
        Self {
            side,
            assignment: (0..n).collect(),
            block_sizes: vec![1; n as usize],
            max_block_size: n.min(1),
        }
    }

    /// Which side of the graph this partition applies to.
    pub fn side(&self) -> Side {
        self.side
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> u32 {
        self.assignment.len() as u32
    }

    /// Number of blocks.
    pub fn block_count(&self) -> u32 {
        self.block_sizes.len() as u32
    }

    /// The block containing node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn block_of(&self, index: u32) -> u32 {
        self.assignment[index as usize]
    }

    /// The raw assignment slice, indexed by node.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// The number of nodes in the largest block (0 when the partition
    /// covers no nodes) — the maximum of [`Self::block_sizes`].
    pub fn max_block_size(&self) -> u32 {
        self.max_block_size
    }

    /// The number of nodes in each block, counted at construction.
    pub fn block_sizes(&self) -> &[u32] {
        &self.block_sizes
    }

    /// The members of each block, in node order.
    pub fn block_members(&self) -> Vec<Vec<u32>> {
        let mut members = vec![Vec::new(); self.block_sizes.len()];
        for (node, &b) in self.assignment.iter().enumerate() {
            members[b as usize].push(node as u32);
        }
        members
    }

    /// The number of graph edges **incident** to each block, by scanning
    /// the side's degrees.
    ///
    /// For a block of left nodes this is the sum of their degrees (each
    /// edge touches exactly one left node, so no double counting); same
    /// on the right. This quantity *is* the group-level L1 sensitivity of
    /// the association-count query for that block.
    ///
    /// This is the direct (per-call edge-accounting) path. When a
    /// [`crate::PairCounts`] for the level is already available — e.g.
    /// cached in a hierarchy-statistics engine — prefer its
    /// [`crate::PairCounts::marginals`], which yield exactly these
    /// numbers for both sides in one pass over the non-empty cells
    /// without touching the graph again.
    ///
    /// # Panics
    ///
    /// Panics if the partition length does not match the graph's side
    /// size — construct partitions against the same graph you query.
    pub fn incident_edge_counts(&self, graph: &BipartiteGraph) -> Vec<u64> {
        assert_eq!(
            self.assignment.len() as u32,
            graph.side_count(self.side),
            "partition does not match graph side size"
        );
        let mut counts = vec![0u64; self.block_sizes.len()];
        match self.side {
            Side::Left => {
                for (node, &b) in self.assignment.iter().enumerate() {
                    counts[b as usize] += graph.left_degree(LeftId::new(node as u32)) as u64;
                }
            }
            Side::Right => {
                for (node, &b) in self.assignment.iter().enumerate() {
                    counts[b as usize] += graph.right_degree(RightId::new(node as u32)) as u64;
                }
            }
        }
        counts
    }

    /// The largest incident-edge count over blocks — the group-level L1
    /// sensitivity of the total association count at this partition.
    pub fn max_incident_edges(&self, graph: &BipartiteGraph) -> u64 {
        self.incident_edge_counts(graph)
            .into_iter()
            .max()
            .unwrap_or(0)
    }

    /// Maps every block of `self` (the **finer** partition) to the block
    /// of `coarser` containing it — the fold table that lets block-pair
    /// counts of a finer level aggregate to a coarser one without
    /// rescanning edges (see [`crate::PairCounts::rollup`]).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotARefinement`] when the sides or node
    /// counts differ, or some block of `self` straddles two blocks of
    /// `coarser` (i.e. `coarser` is not refined by `self`).
    pub fn block_map_to(&self, coarser: &SidePartition) -> Result<Vec<u32>> {
        if coarser.side != self.side {
            return Err(GraphError::NotARefinement {
                message: "partitions cover different sides".to_string(),
            });
        }
        if coarser.assignment.len() != self.assignment.len() {
            return Err(GraphError::NotARefinement {
                message: format!(
                    "partitions cover {} vs {} nodes",
                    self.assignment.len(),
                    coarser.assignment.len()
                ),
            });
        }
        // Every block is non-empty (validated at construction), so every
        // slot gets written; u32::MAX marks "not seen yet".
        let mut map = vec![u32::MAX; self.block_sizes.len()];
        for (node, &fb) in self.assignment.iter().enumerate() {
            let cb = coarser.assignment[node];
            let slot = &mut map[fb as usize];
            if *slot == u32::MAX {
                *slot = cb;
            } else if *slot != cb {
                return Err(GraphError::NotARefinement {
                    message: format!("finer block {fb} straddles coarser blocks"),
                });
            }
        }
        debug_assert!(map.iter().all(|&b| b != u32::MAX));
        Ok(map)
    }

    /// The coarser partition a block map describes: block `b` of `self`
    /// lands whole in block `map[b]` of the result — the inverse of
    /// [`Self::block_map_to`], which yields such maps. Block sizes are
    /// summed over the map, so no node is counted again.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NotARefinement`] when `map` does not have one
    ///   entry per block of `self`.
    /// * [`GraphError::BlockOutOfRange`] for an entry ≥ `block_count`.
    /// * [`GraphError::EmptyBlock`] when some block id in
    ///   `0..block_count` is no entry's target (the map is not
    ///   surjective).
    pub fn coarsen(&self, map: &[u32], block_count: u32) -> Result<Self> {
        if map.len() != self.block_sizes.len() {
            return Err(GraphError::NotARefinement {
                message: format!(
                    "block map has {} entries for {} blocks",
                    map.len(),
                    self.block_sizes.len()
                ),
            });
        }
        // A map with fewer entries than blocks cannot be surjective, and
        // one block past its length is enough to find the first empty
        // one: the count array stays bounded by the map, not by an
        // untrusted block count.
        let tracked = (block_count as usize).min(map.len() + 1);
        let mut sizes = vec![0u32; tracked];
        for (&to, &size) in map.iter().zip(&self.block_sizes) {
            if to >= block_count {
                return Err(GraphError::BlockOutOfRange {
                    block: to,
                    block_count,
                });
            }
            if let Some(s) = sizes.get_mut(to as usize) {
                *s += size;
            }
        }
        if let Some(block) = sizes.iter().position(|&s| s == 0) {
            return Err(GraphError::EmptyBlock {
                block: block as u32,
            });
        }
        Ok(Self {
            side: self.side,
            assignment: self.assignment.iter().map(|&b| map[b as usize]).collect(),
            max_block_size: sizes.iter().copied().max().unwrap_or(0),
            block_sizes: sizes,
        })
    }
}

/// Partitions with at most this many blocks count their block sizes in
/// [`SIZE_LANES`] counter arrays (see [`count_block_sizes`]).
const LANED_MAX_BLOCKS: usize = 1 << 14;

/// Counter arrays of a partition with few blocks.
const SIZE_LANES: usize = 8;

/// The number of nodes in each block of `assignment`, refusing a block
/// id outside `0..block_count`.
///
/// A coarse level assigns runs of consecutive nodes to its few blocks.
/// With one counter per block, each increment in a run waits on the
/// store of the one before it. Up to [`LANED_MAX_BLOCKS`] blocks, node
/// `i` counts into array `i % SIZE_LANES` and the arrays are summed at
/// the end. On a 10-level hierarchy of 433k nodes per level that makes
/// the count about 3× faster than one array, and within ~20% of the
/// non-empty check alone.
fn count_block_sizes(assignment: &[u32], block_count: u32) -> Result<Vec<u32>> {
    if block_count as usize <= LANED_MAX_BLOCKS {
        count_laned::<SIZE_LANES>(assignment, block_count)
    } else {
        count_laned::<1>(assignment, block_count)
    }
}

fn count_laned<const LANES: usize>(assignment: &[u32], block_count: u32) -> Result<Vec<u32>> {
    let n = block_count as usize;
    let mut counts = vec![0u32; LANES * n];
    let mut count = |lane: usize, block: u32| {
        if block >= block_count {
            return Err(GraphError::BlockOutOfRange { block, block_count });
        }
        counts[lane * n + block as usize] += 1;
        Ok(())
    };
    let mut chunks = assignment.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (lane, &b) in chunk.iter().enumerate() {
            count(lane, b)?;
        }
    }
    for &b in chunks.remainder() {
        count(0, b)?;
    }
    let (sizes, rest) = counts.split_at_mut(n);
    for lane in rest.chunks_exact(n.max(1)) {
        for (size, &c) in sizes.iter_mut().zip(lane) {
            *size += c;
        }
    }
    counts.truncate(n);
    // The sizes are kept for the partition's lifetime: drop the lanes.
    counts.shrink_to_fit();
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn sample_graph() -> BipartiteGraph {
        // 4 left, 3 right.
        let mut b = GraphBuilder::new(4, 3);
        let edges = [(0, 0), (0, 1), (1, 0), (2, 2), (3, 2), (3, 1)];
        for (l, r) in edges {
            b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
        }
        b.build()
    }

    #[test]
    fn validation_rejects_bad_assignments() {
        assert!(matches!(
            SidePartition::new(Side::Left, vec![0, 2, 0], 2),
            Err(GraphError::BlockOutOfRange { block: 2, .. })
        ));
        assert!(matches!(
            SidePartition::new(Side::Left, vec![0, 0, 0], 2),
            Err(GraphError::EmptyBlock { block: 1 })
        ));
    }

    #[test]
    fn json_holds_the_constructor_fields_only_and_loads_through_it() {
        let p = SidePartition::new(Side::Left, vec![1, 0, 1], 2).unwrap();
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(
            json,
            r#"{"side":"Left","assignment":[1,0,1],"block_count":2}"#
        );
        assert_eq!(serde_json::from_str::<SidePartition>(&json).unwrap(), p);
        for (bad, why) in [
            (
                r#"{"side":"Left","assignment":[0,4000000000],"block_count":2}"#,
                "out of range",
            ),
            (
                r#"{"side":"Left","assignment":[0,0],"block_count":2}"#,
                "block 1 is empty",
            ),
        ] {
            let err = serde_json::from_str::<SidePartition>(bad).unwrap_err();
            assert!(err.to_string().contains(why), "{bad}: {err}");
        }
    }

    #[test]
    fn both_counting_paths_validate_and_count() {
        // One partition under the laned threshold, one over it.
        for blocks in [3u32, LANED_MAX_BLOCKS as u32 + 1] {
            let assignment: Vec<u32> = (0..blocks * 3).map(|i| (i / 3 + i % 2) % blocks).collect();
            let p = SidePartition::new(Side::Left, assignment.clone(), blocks).unwrap();
            let mut expected = vec![0u32; blocks as usize];
            for &b in &assignment {
                expected[b as usize] += 1;
            }
            assert_eq!(p.block_sizes(), expected);
            assert_eq!(p.max_block_size(), *expected.iter().max().unwrap());

            let mut bad = assignment;
            let last = bad.len() - 1;
            bad[last] = blocks;
            assert!(matches!(
                SidePartition::new(Side::Left, bad, blocks),
                Err(GraphError::BlockOutOfRange { block, .. }) if block == blocks
            ));
        }
    }

    #[test]
    fn whole_and_singletons() {
        let w = SidePartition::whole(Side::Left, 5).unwrap();
        assert_eq!(w.block_count(), 1);
        assert_eq!(w.block_sizes(), vec![5]);
        assert!(SidePartition::whole(Side::Left, 0).is_none());

        let s = SidePartition::singletons(Side::Right, 4);
        assert_eq!(s.block_count(), 4);
        assert_eq!(s.block_sizes(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn block_sizes_and_members() {
        let p = SidePartition::new(Side::Left, vec![1, 0, 1, 1], 2).unwrap();
        assert_eq!(p.block_sizes(), vec![1, 3]);
        assert_eq!(p.block_members(), vec![vec![1], vec![0, 2, 3]]);
        assert_eq!(p.block_of(0), 1);
    }

    #[test]
    fn incident_edges_sum_to_edge_count_on_each_side() {
        let g = sample_graph();
        let pl = SidePartition::new(Side::Left, vec![0, 0, 1, 1], 2).unwrap();
        let counts = pl.incident_edge_counts(&g);
        assert_eq!(counts.iter().sum::<u64>(), g.edge_count());
        assert_eq!(counts, vec![3, 3]); // degrees: L0=2,L1=1 | L2=1,L3=2

        let pr = SidePartition::new(Side::Right, vec![0, 0, 1], 2).unwrap();
        let counts = pr.incident_edge_counts(&g);
        assert_eq!(counts.iter().sum::<u64>(), g.edge_count());
        assert_eq!(counts, vec![4, 2]); // degrees: R0=2,R1=2 | R2=2
    }

    #[test]
    fn max_incident_edges_is_sensitivity() {
        let g = sample_graph();
        let whole = SidePartition::whole(Side::Left, 4).unwrap();
        assert_eq!(whole.max_incident_edges(&g), g.edge_count());
        let singles = SidePartition::singletons(Side::Left, 4);
        assert_eq!(singles.max_incident_edges(&g), 2); // max left degree
    }

    #[test]
    fn refinement_relation() {
        let refines =
            |coarse: &SidePartition, fine: &SidePartition| fine.block_map_to(coarse).is_ok();
        let coarse = SidePartition::new(Side::Left, vec![0, 0, 1, 1], 2).unwrap();
        let fine = SidePartition::new(Side::Left, vec![0, 1, 2, 2], 3).unwrap();
        assert!(refines(&coarse, &fine));
        assert!(!refines(&fine, &coarse));
        // A partition refines itself.
        assert!(refines(&coarse, &coarse));
        // Crossing partition does not refine.
        let crossing = SidePartition::new(Side::Left, vec![0, 1, 0, 1], 2).unwrap();
        assert!(!refines(&coarse, &crossing));
        // Side mismatch is not refinement.
        let other_side = SidePartition::new(Side::Right, vec![0, 1, 2, 2], 3).unwrap();
        assert!(!refines(&coarse, &other_side));
    }

    #[test]
    fn coarsen_inverts_block_map_to() {
        let fine = SidePartition::new(Side::Left, vec![0, 1, 2, 2, 3], 4).unwrap();
        let coarse = SidePartition::new(Side::Left, vec![1, 0, 1, 1, 0], 2).unwrap();
        let map = fine.block_map_to(&coarse).unwrap();
        assert_eq!(fine.coarsen(&map, 2).unwrap(), coarse);
        assert_eq!(fine.coarsen(&map, 2).unwrap().block_sizes(), [2, 3]);
        let singles = SidePartition::singletons(Side::Left, 5);
        assert_eq!(singles.coarsen(fine.assignment(), 4).unwrap(), fine);
    }

    #[test]
    fn coarsen_refuses_bad_maps() {
        let fine = SidePartition::new(Side::Left, vec![0, 1, 2, 2], 3).unwrap();
        assert!(matches!(
            fine.coarsen(&[0, 0], 1),
            Err(GraphError::NotARefinement { .. })
        ));
        assert!(matches!(
            fine.coarsen(&[0, 5, 1], 2),
            Err(GraphError::BlockOutOfRange { block: 5, .. })
        ));
        assert!(matches!(
            fine.coarsen(&[0, 0, 2], 3),
            Err(GraphError::EmptyBlock { block: 1 })
        ));
        // More blocks than entries: the first empty block is still found.
        assert!(matches!(
            fine.coarsen(&[0, 1, 2], u32::MAX),
            Err(GraphError::EmptyBlock { block: 3 })
        ));
        assert!(matches!(
            fine.coarsen(&[1, 2, 3], u32::MAX),
            Err(GraphError::EmptyBlock { block: 0 })
        ));
    }

    #[test]
    fn block_map_to_follows_refinement() {
        let fine = SidePartition::new(Side::Left, vec![0, 1, 2, 2], 3).unwrap();
        let coarse = SidePartition::new(Side::Left, vec![0, 0, 1, 1], 2).unwrap();
        assert_eq!(fine.block_map_to(&coarse).unwrap(), vec![0, 0, 1]);
        // Self-map is the identity.
        assert_eq!(fine.block_map_to(&fine).unwrap(), vec![0, 1, 2]);
        // Everything maps into `whole`.
        let whole = SidePartition::whole(Side::Left, 4).unwrap();
        assert_eq!(fine.block_map_to(&whole).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn block_map_to_rejects_non_refinements() {
        let crossing = SidePartition::new(Side::Left, vec![0, 1, 0, 1], 2).unwrap();
        let coarse = SidePartition::new(Side::Left, vec![0, 0, 1, 1], 2).unwrap();
        assert!(matches!(
            crossing.block_map_to(&coarse),
            Err(GraphError::NotARefinement { .. })
        ));
        // Side mismatch.
        let right = SidePartition::new(Side::Right, vec![0, 0, 1, 1], 2).unwrap();
        assert!(coarse.block_map_to(&right).is_err());
        // Length mismatch.
        let short = SidePartition::new(Side::Left, vec![0, 1], 2).unwrap();
        assert!(coarse.block_map_to(&short).is_err());
    }

    #[test]
    #[should_panic(expected = "partition does not match graph side size")]
    fn mismatched_partition_panics() {
        let g = sample_graph();
        let p = SidePartition::new(Side::Left, vec![0, 0], 1).unwrap();
        let _ = p.incident_edge_counts(&g);
    }
}
