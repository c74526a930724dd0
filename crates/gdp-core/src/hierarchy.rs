use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use gdp_graph::io::Xxh64Writer;
use gdp_graph::{BipartiteGraph, Side, SidePartition};

use crate::error::CoreError;
use crate::Result;

/// One level of the group hierarchy: a partition of the left nodes and a
/// partition of the right nodes. The level's *groups* are the union of
/// both sides' blocks (a group never mixes sides, matching the paper's
/// "two sub groups correspond to the left side nodes … the other two …
/// the right side").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "LevelParts")]
pub struct GroupLevel {
    left: SidePartition,
    right: SidePartition,
}

/// The deserialized fields of a [`GroupLevel`], promoted through
/// [`GroupLevel::new`] so a document cannot swap the sides.
#[derive(Deserialize)]
struct LevelParts {
    left: SidePartition,
    right: SidePartition,
}

impl TryFrom<LevelParts> for GroupLevel {
    type Error = CoreError;

    fn try_from(p: LevelParts) -> Result<Self> {
        Self::new(p.left, p.right)
    }
}

impl GroupLevel {
    /// Creates a level from one partition per side.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidHierarchy`] if the partitions' sides
    /// are wrong.
    pub fn new(left: SidePartition, right: SidePartition) -> Result<Self> {
        if left.side() != Side::Left {
            return Err(CoreError::InvalidHierarchy(
                "left partition is not Side::Left".to_string(),
            ));
        }
        if right.side() != Side::Right {
            return Err(CoreError::InvalidHierarchy(
                "right partition is not Side::Right".to_string(),
            ));
        }
        Ok(Self { left, right })
    }

    /// The left-side partition.
    pub fn left(&self) -> &SidePartition {
        &self.left
    }

    /// The right-side partition.
    pub fn right(&self) -> &SidePartition {
        &self.right
    }

    /// Total number of groups at this level (left blocks + right blocks).
    pub fn group_count(&self) -> u64 {
        self.left.block_count() as u64 + self.right.block_count() as u64
    }

    /// Largest group size (in nodes) across both sides, counted when
    /// the partitions were built.
    pub fn max_group_size(&self) -> u32 {
        self.left.max_block_size().max(self.right.max_block_size())
    }

    /// Incident-edge count of every group: left blocks first, then right
    /// blocks. Removing a group removes exactly its incident edges, so
    /// these are the per-group count-query sensitivities.
    pub fn incident_edges(&self, graph: &BipartiteGraph) -> Vec<u64> {
        let mut out = self.left.incident_edge_counts(graph);
        out.extend(self.right.incident_edge_counts(graph));
        out
    }

    /// The largest incident-edge count over all groups — the group-level
    /// L1 sensitivity of the total association count at this level.
    pub fn max_incident_edges(&self, graph: &BipartiteGraph) -> u64 {
        self.incident_edges(graph).into_iter().max().unwrap_or(0)
    }
}

/// A multi-level group hierarchy over a bipartite graph's nodes.
///
/// `levels[0]` is the **finest** level (in the paper's experiment, the
/// individual level: every node its own group) and
/// `levels[level_count − 1]` the **coarsest** (one group per side — "the
/// entire dataset"). Every level must be refined by the level below it.
///
/// Index semantics follow the paper: the release `I_{L,i}` protects the
/// groups of `hierarchy.level(i)`.
///
/// A hierarchy is fixed once built (deserialization re-runs
/// [`GroupHierarchy::new`]). It keeps the block maps between
/// neighbouring levels that validation yields, and memoizes the
/// content-digest state after its own section bytes: every artifact
/// sealed over it hashes only its release. Equality compares the
/// levels alone.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "HierarchyParts", into = "HierarchyParts")]
pub struct GroupHierarchy {
    levels: Vec<GroupLevel>,
    /// `block_maps[i]` maps level `i`'s left and right blocks to the
    /// blocks of level `i + 1` holding them.
    block_maps: Vec<[Vec<u32>; 2]>,
    /// Whether the finest level's `[left, right]` partitions are the
    /// identity (node `i` in block `i`), which the `.gda` hierarchy
    /// section stores as a flag instead of an assignment.
    finest_singletons: [bool; 2],
    /// XXH64 state after the hierarchy section payload and the zero
    /// separator byte of [`crate::artifact::content_digest`], filled on first use.
    digest_prefix: OnceLock<Xxh64Writer>,
}

impl PartialEq for GroupHierarchy {
    fn eq(&self, other: &Self) -> bool {
        self.levels == other.levels
    }
}

impl Eq for GroupHierarchy {}

/// The serialized fields of a [`GroupHierarchy`]; deserializing
/// promotes them through [`GroupHierarchy::new`].
#[derive(Serialize, Deserialize)]
struct HierarchyParts {
    levels: Vec<GroupLevel>,
}

impl From<GroupHierarchy> for HierarchyParts {
    fn from(h: GroupHierarchy) -> Self {
        Self { levels: h.levels }
    }
}

impl TryFrom<HierarchyParts> for GroupHierarchy {
    type Error = CoreError;

    fn try_from(p: HierarchyParts) -> Result<Self> {
        Self::new(p.levels)
    }
}

impl GroupHierarchy {
    /// Creates a hierarchy from levels ordered finest → coarsest,
    /// validating side sizes and the refinement chain; the block maps
    /// the validation yields ([`SidePartition::block_map_to`]) are kept.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidHierarchy`] when `levels` is empty,
    /// the levels disagree on node counts, or some level is not refined
    /// by its finer neighbour.
    pub fn new(levels: Vec<GroupLevel>) -> Result<Self> {
        if levels.is_empty() {
            return Err(CoreError::InvalidHierarchy(
                "hierarchy needs at least one level".to_string(),
            ));
        }
        let (nl, nr) = (
            levels[0].left().node_count(),
            levels[0].right().node_count(),
        );
        for (i, level) in levels.iter().enumerate() {
            if level.left().node_count() != nl || level.right().node_count() != nr {
                return Err(CoreError::InvalidHierarchy(format!(
                    "level {i} covers a different node set"
                )));
            }
        }
        let mut block_maps = Vec::with_capacity(levels.len() - 1);
        for (i, pair) in levels.windows(2).enumerate() {
            let (finer, coarser) = (&pair[0], &pair[1]);
            let not_refined = |e| {
                CoreError::InvalidHierarchy(format!(
                    "level {} is not refined by level {i}: {e}",
                    i + 1
                ))
            };
            block_maps.push([
                finer
                    .left()
                    .block_map_to(coarser.left())
                    .map_err(not_refined)?,
                finer
                    .right()
                    .block_map_to(coarser.right())
                    .map_err(not_refined)?,
            ]);
        }
        Ok(Self::from_parts(levels, block_maps))
    }

    /// Builds a hierarchy from its finest level and, per coarser level,
    /// each side's block map from the level below with its block count
    /// (`[left, right]`) — the refinement chain the `.gda` hierarchy
    /// section stores and the [`crate::Specializer`] builds. Every
    /// coarser level is composed through [`SidePartition::coarsen`], so
    /// refinement holds by construction.
    ///
    /// # Errors
    ///
    /// [`CoreError::Graph`] with what [`SidePartition::coarsen`]
    /// refuses: a map of the wrong length, an entry out of range, or a
    /// map that leaves a block empty.
    pub(crate) fn from_block_maps(
        finest: GroupLevel,
        coarser: Vec<[(Vec<u32>, u32); 2]>,
    ) -> Result<Self> {
        let mut levels = Vec::with_capacity(coarser.len() + 1);
        levels.push(finest);
        let mut block_maps = Vec::with_capacity(coarser.len());
        for [(left_map, left_blocks), (right_map, right_blocks)] in coarser {
            let below = &levels[levels.len() - 1];
            let level = GroupLevel::new(
                below.left().coarsen(&left_map, left_blocks)?,
                below.right().coarsen(&right_map, right_blocks)?,
            )?;
            levels.push(level);
            block_maps.push([left_map, right_map]);
        }
        Ok(Self::from_parts(levels, block_maps))
    }

    fn from_parts(levels: Vec<GroupLevel>, block_maps: Vec<[Vec<u32>; 2]>) -> Self {
        let identity = |p: &SidePartition| {
            p.block_count() == p.node_count()
                && p.assignment()
                    .iter()
                    .enumerate()
                    .all(|(node, &block)| block as usize == node)
        };
        let finest_singletons = [identity(levels[0].left()), identity(levels[0].right())];
        Self {
            levels,
            block_maps,
            finest_singletons,
            digest_prefix: OnceLock::new(),
        }
    }

    /// Whether the finest level's `[left, right]` partitions are the
    /// identity, read from their assignments once at construction.
    pub(crate) fn finest_singletons(&self) -> [bool; 2] {
        self.finest_singletons
    }

    /// The block maps between neighbouring levels, finest first: entry
    /// `i` maps level `i`'s `[left, right]` blocks to the blocks of
    /// level `i + 1` holding them, as [`SidePartition::block_map_to`]
    /// yields them. A hierarchy of `n` levels has `n − 1` entries.
    pub fn block_maps(&self) -> &[[Vec<u32>; 2]] {
        &self.block_maps
    }

    /// The memo cell of the content-digest state after this hierarchy's
    /// section bytes (see [`crate::artifact::content_digest`]).
    pub(crate) fn digest_prefix(&self) -> &OnceLock<Xxh64Writer> {
        &self.digest_prefix
    }

    /// Number of levels.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The level at index `i` (0 = finest).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LevelOutOfRange`] for `i ≥ level_count`.
    pub fn level(&self, i: usize) -> Result<&GroupLevel> {
        self.levels.get(i).ok_or(CoreError::LevelOutOfRange {
            level: i,
            level_count: self.levels.len(),
        })
    }

    /// All levels, finest first.
    pub fn levels(&self) -> &[GroupLevel] {
        &self.levels
    }

    /// The finest level.
    pub fn finest(&self) -> &GroupLevel {
        &self.levels[0]
    }

    /// The coarsest level.
    pub fn coarsest(&self) -> &GroupLevel {
        &self.levels[self.levels.len() - 1]
    }

    /// Group counts per level, finest first — the paper's
    /// `4^{L−i}`-style fanout numbers when built by the specializer.
    pub fn group_counts(&self) -> Vec<u64> {
        self.levels.iter().map(GroupLevel::group_count).collect()
    }

    /// Count-query sensitivity (max incident edges over groups) at every
    /// level, finest first. Monotone non-decreasing by construction —
    /// merging groups can only grow incident-edge mass.
    pub fn sensitivities(&self, graph: &BipartiteGraph) -> Vec<u64> {
        self.levels
            .iter()
            .map(|l| l.max_incident_edges(graph))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_graph::{GraphBuilder, LeftId, RightId};

    fn graph() -> BipartiteGraph {
        // 4 left, 4 right, 6 edges.
        let mut b = GraphBuilder::new(4, 4);
        for (l, r) in [(0, 0), (0, 1), (1, 1), (2, 2), (3, 3), (3, 2)] {
            b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
        }
        b.build()
    }

    fn two_level_hierarchy() -> GroupHierarchy {
        let fine = GroupLevel::new(
            SidePartition::new(Side::Left, vec![0, 0, 1, 1], 2).unwrap(),
            SidePartition::new(Side::Right, vec![0, 0, 1, 1], 2).unwrap(),
        )
        .unwrap();
        let coarse = GroupLevel::new(
            SidePartition::whole(Side::Left, 4).unwrap(),
            SidePartition::whole(Side::Right, 4).unwrap(),
        )
        .unwrap();
        GroupHierarchy::new(vec![fine, coarse]).unwrap()
    }

    #[test]
    fn level_construction_checks_sides() {
        let wrong = GroupLevel::new(
            SidePartition::new(Side::Right, vec![0], 1).unwrap(),
            SidePartition::new(Side::Right, vec![0], 1).unwrap(),
        );
        assert!(matches!(wrong, Err(CoreError::InvalidHierarchy(_))));
    }

    #[test]
    fn group_count_sums_both_sides() {
        let h = two_level_hierarchy();
        assert_eq!(h.level(0).unwrap().group_count(), 4);
        assert_eq!(h.level(1).unwrap().group_count(), 2);
        assert_eq!(h.group_counts(), vec![4, 2]);
    }

    #[test]
    fn refinement_validation_rejects_crossers() {
        let fine = GroupLevel::new(
            SidePartition::new(Side::Left, vec![0, 1, 0, 1], 2).unwrap(),
            SidePartition::new(Side::Right, vec![0, 0, 1, 1], 2).unwrap(),
        )
        .unwrap();
        let coarse = GroupLevel::new(
            SidePartition::new(Side::Left, vec![0, 0, 1, 1], 2).unwrap(),
            SidePartition::whole(Side::Right, 4).unwrap(),
        )
        .unwrap();
        // fine's left crosses coarse's left blocks → invalid.
        let err = GroupHierarchy::new(vec![fine, coarse]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidHierarchy(_)));
    }

    #[test]
    fn node_count_mismatch_rejected() {
        let a = GroupLevel::new(
            SidePartition::whole(Side::Left, 4).unwrap(),
            SidePartition::whole(Side::Right, 4).unwrap(),
        )
        .unwrap();
        let b = GroupLevel::new(
            SidePartition::whole(Side::Left, 3).unwrap(),
            SidePartition::whole(Side::Right, 4).unwrap(),
        )
        .unwrap();
        assert!(GroupHierarchy::new(vec![a, b]).is_err());
    }

    #[test]
    fn sensitivities_monotone_with_level() {
        let g = graph();
        let h = two_level_hierarchy();
        let sens = h.sensitivities(&g);
        assert_eq!(sens.len(), 2);
        assert!(sens[0] <= sens[1]);
        // Coarsest: one group holds all 6 edges.
        assert_eq!(sens[1], 6);
        // Finest here: left blocks {0,1} (deg 2+1=3), {2,3} (1+2=3);
        // right blocks {0,1} (1+2=3), {2,3} (2+1=3).
        assert_eq!(sens[0], 3);
    }

    #[test]
    fn incident_edges_lists_left_then_right() {
        let g = graph();
        let h = two_level_hierarchy();
        let inc = h.level(0).unwrap().incident_edges(&g);
        assert_eq!(inc, vec![3, 3, 3, 3]);
        let total_left: u64 = inc[..2].iter().sum();
        assert_eq!(total_left, g.edge_count());
    }

    #[test]
    fn level_out_of_range() {
        let h = two_level_hierarchy();
        assert!(matches!(
            h.level(2),
            Err(CoreError::LevelOutOfRange {
                level: 2,
                level_count: 2
            })
        ));
    }

    #[test]
    fn accessors() {
        let h = two_level_hierarchy();
        assert_eq!(h.level_count(), 2);
        assert_eq!(h.finest().group_count(), 4);
        assert_eq!(h.coarsest().group_count(), 2);
        assert_eq!(h.levels().len(), 2);
    }

    #[test]
    fn max_group_size() {
        let h = two_level_hierarchy();
        assert_eq!(h.finest().max_group_size(), 2);
        assert_eq!(h.coarsest().max_group_size(), 4);
    }

    #[test]
    fn empty_hierarchy_rejected() {
        assert!(GroupHierarchy::new(vec![]).is_err());
    }
}
