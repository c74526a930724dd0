//! Hierarchy-aware level statistics: every level's block-pair counts
//! from **one** edge sweep plus refinement-chain rollups.
//!
//! # Why this exists
//!
//! Phase 2 of the paper's pipeline releases queries at every hierarchy
//! level, and each level's noise is calibrated to that level's group
//! sensitivity. Computed naively, every level pays its own full edge
//! scan (`PairCounts::compute` + per-side incident-edge scans), so an
//! `L`-level disclosure costs `O(L × edges)` — the measured bottleneck
//! of the 1M-edge pipeline run.
//!
//! A [`crate::GroupHierarchy`] validates that each level **refines** the
//! next coarser one, and block-pair counts are plain sums: if coarse
//! block `G` is the union of fine blocks `g₁…g_k`, then
//! `count(G, H) = Σᵢⱼ count(gᵢ, hⱼ)`. So the finest level's counts (one
//! edge sweep) determine every coarser level's counts by
//! an `O(non-empty cells)` fold along the refinement chain
//! ([`gdp_graph::PairCounts::rollup`]), and each level's marginals,
//! total and max-incidence fall out of its CSR arrays in one more pass.
//! A full multi-level disclosure therefore touches the edge list exactly
//! once. When the finest level is the singletons on both sides, as in
//! every specialized hierarchy, that one touch is a copy: the finest
//! table is the left adjacency with every count 1
//! ([`gdp_graph::PairCounts::from_adjacency`]). The graph holds that
//! table already, so only its marginals are kept, and an epoch's delta
//! moves those marginals without rebuilding the table.
//!
//! # Privacy is unchanged
//!
//! Caching sufficient statistics changes *where* the exact per-level
//! answers and sensitivities are computed, not *what* they are: the
//! rolled-up counts are integer sums, bit-identical to a direct
//! per-level scan (pinned by property tests), so the noise each level
//! receives is calibrated to exactly the same sensitivities as before.
//! No release ever exposes the cache itself — only noised query answers
//! leave the pipeline.

use gdp_graph::{BipartiteGraph, EdgeDelta, GraphError, PairCounts, PairMarginals};

use crate::error::CoreError;
use crate::hierarchy::GroupHierarchy;
use crate::Result;

/// Cached sufficient statistics of **one** hierarchy level: its
/// block-pair counts plus the marginal quantities the Phase-2 stack
/// needs (per-block incident-edge counts, total, max incidence).
#[derive(Debug, Clone, PartialEq)]
pub struct LevelStats {
    /// `None` for a level of singletons on both sides: its table is the
    /// graph's left adjacency, which the graph already holds.
    pair_counts: Option<PairCounts>,
    marginals: PairMarginals,
}

impl LevelStats {
    /// Wraps a level's pair counts, deriving its marginals in one pass.
    pub fn from_pair_counts(pair_counts: PairCounts) -> Self {
        let marginals = pair_counts.marginals();
        Self {
            pair_counts: Some(pair_counts),
            marginals,
        }
    }

    /// The marginals of the singleton level's table
    /// ([`PairCounts::from_adjacency`]), without keeping the table.
    fn from_adjacency_table(table: &PairCounts) -> Self {
        Self {
            pair_counts: None,
            marginals: table.marginals(),
        }
    }

    /// The level's block-pair association counts, or `None` for a level
    /// of singletons on both sides, whose table is the graph's left
    /// adjacency ([`PairCounts::from_adjacency`]) and is not kept.
    pub fn pair_counts(&self) -> Option<&PairCounts> {
        self.pair_counts.as_ref()
    }

    /// The level's cached marginals.
    pub fn marginals(&self) -> &PairMarginals {
        &self.marginals
    }

    /// Incident-edge count of every group — left blocks first, then
    /// right blocks, matching [`crate::GroupLevel::incident_edges`] exactly.
    pub fn incident_edges(&self) -> Vec<u64> {
        let mut out = self.marginals.left.clone();
        out.extend_from_slice(&self.marginals.right);
        out
    }

    /// The largest incident-edge count over all groups — equal to
    /// [`crate::GroupLevel::max_incident_edges`] without an edge scan.
    pub fn max_incident_edges(&self) -> u64 {
        self.marginals.max_incident()
    }

    /// Total association count (the graph's edge count).
    pub fn total(&self) -> u64 {
        self.marginals.total
    }

    /// Applies one level's aggregated cell deltas: the pair-count table
    /// updates through [`PairCounts::apply_cell_deltas_recording`]
    /// (dirty rows only, recording each cell's pre-update count) and
    /// the cached marginals follow by exact integer adjustments plus an
    /// `O(blocks)` max rescan — bit-identical to rederiving them from
    /// the updated counts. `old_counts` is a recycled scratch buffer.
    ///
    /// A singleton level keeps no table: each of its cells is 1 exactly
    /// when its pair is an edge, so an insert finds 0 and a delete
    /// finds 1, and only the marginals change. Whether the pair was an
    /// edge is the graph's to check; here a change other than ±1, or
    /// one that takes a marginal below zero, is refused.
    fn apply_cell_deltas(
        &mut self,
        deltas: &[((u32, u32), i64)],
        old_counts: &mut Vec<u64>,
    ) -> Result<()> {
        match &mut self.pair_counts {
            Some(table) => table
                .apply_cell_deltas_recording(deltas, old_counts)
                .map_err(CoreError::Graph)?,
            None => {
                old_counts.clear();
                for &((l, r), d) in deltas {
                    if d.abs() != 1 {
                        return Err(CoreError::Graph(GraphError::DeltaInvalid {
                            message: format!(
                                "change {d} for singleton cell ({l}, {r}), which holds 0 or 1"
                            ),
                        }));
                    }
                    old_counts.push(u64::from(d < 0));
                }
            }
        }
        let mut total = self.marginals.total as i128;
        for (&((l, r), d), &have) in deltas.iter().zip(old_counts.iter()) {
            let left = self.marginals.left[l as usize] as i128 + d as i128;
            let right = self.marginals.right[r as usize] as i128 + d as i128;
            if left < 0 || right < 0 {
                // Only a singleton level gets here (a kept table refuses
                // first): a delete whose node has no edge left, so its
                // cell held 0.
                return Err(CoreError::Graph(GraphError::DeltaCellUnderflow {
                    left_block: l,
                    right_block: r,
                    have: 0,
                    change: d,
                }));
            }
            self.marginals.left[l as usize] = left as u64;
            self.marginals.right[r as usize] = right as u64;
            total += d as i128;
            // Squared-count marginals move by new² − old²; both squares
            // are exact integers, so the adjustment is order-free.
            let old = have as i128;
            let new = old + d as i128;
            let sq_change = new * new - old * old;
            let left_sq = &mut self.marginals.left_sq[l as usize];
            *left_sq = (*left_sq as i128 + sq_change) as u64;
            let right_sq = &mut self.marginals.right_sq[r as usize];
            *right_sq = (*right_sq as i128 + sq_change) as u64;
        }
        self.marginals.total = total as u64;
        self.marginals.max_left = self.marginals.left.iter().copied().max().unwrap_or(0);
        self.marginals.max_right = self.marginals.right.iter().copied().max().unwrap_or(0);
        Ok(())
    }
}

/// Per-level cached statistics for a whole hierarchy, built from **one**
/// edge sweep at the finest level plus `O(cells)` rollups up the
/// refinement chain (see the `stats` module docs in the source).
///
/// ```
/// use gdp_core::{HierarchyStats, SpecializationConfig, Specializer};
/// use gdp_datagen::{DblpConfig, DblpGenerator};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), gdp_core::CoreError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
/// let hierarchy = Specializer::new(SpecializationConfig::median(3)?)
///     .specialize(&graph, &mut rng)?;
/// let stats = HierarchyStats::compute(&graph, &hierarchy)?;
/// // Rolled-up statistics agree with direct per-level computation.
/// for (i, level) in hierarchy.levels().iter().enumerate() {
///     assert_eq!(
///         stats.level(i).unwrap().max_incident_edges(),
///         level.max_incident_edges(&graph),
///     );
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyStats {
    levels: Vec<LevelStats>,
}

impl HierarchyStats {
    /// Computes every level's statistics: the finest level's table,
    /// then a rollup per coarser level through the hierarchy's block
    /// maps ([`GroupHierarchy::block_maps`]).
    ///
    /// When the finest level is the singletons on both sides, as in
    /// every hierarchy the [`crate::Specializer`] builds, its table is
    /// the left adjacency ([`PairCounts::from_adjacency`]): it is copied
    /// for the first rollup and its marginals, then dropped, since the
    /// graph holds it already ([`LevelStats::pair_counts`] is `None`).
    /// Otherwise it comes from one edge sweep ([`PairCounts::compute`])
    /// and is kept.
    ///
    /// # Errors
    ///
    /// Never fails: the hierarchy's block maps were validated when it
    /// was built. The `Result` is kept for the callers that propagate
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy's node counts do not match the graph's
    /// side sizes (same contract as [`gdp_graph::PairCounts::compute`]).
    pub fn compute(graph: &BipartiteGraph, hierarchy: &GroupHierarchy) -> Result<Self> {
        let finest = hierarchy.finest();
        let singletons = hierarchy.finest_singletons() == [true, true];
        let mut pair_counts = Vec::with_capacity(hierarchy.level_count());
        pair_counts.push(if singletons {
            // `compute`'s side-size contract, which the copy skips.
            assert_eq!(finest.left().node_count(), graph.left_count());
            assert_eq!(finest.right().node_count(), graph.right_count());
            PairCounts::from_adjacency(graph)
        } else {
            PairCounts::compute(graph, finest.left(), finest.right())
        });
        for ([left_map, right_map], coarser) in
            hierarchy.block_maps().iter().zip(&hierarchy.levels()[1..])
        {
            let rolled = pair_counts[pair_counts.len() - 1].rollup(
                left_map,
                coarser.left().block_count(),
                right_map,
                coarser.right().block_count(),
            );
            pair_counts.push(rolled);
        }
        Ok(Self {
            levels: pair_counts
                .into_iter()
                .enumerate()
                .map(|(i, table)| {
                    if i == 0 && singletons {
                        LevelStats::from_adjacency_table(&table)
                    } else {
                        LevelStats::from_pair_counts(table)
                    }
                })
                .collect(),
        })
    }

    /// Number of levels covered (equals the hierarchy's level count).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The statistics of level `i` (0 = finest).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LevelOutOfRange`] for `i ≥ level_count`.
    pub fn level(&self, i: usize) -> Result<&LevelStats> {
        self.levels.get(i).ok_or(CoreError::LevelOutOfRange {
            level: i,
            level_count: self.levels.len(),
        })
    }

    /// All levels' statistics, finest first.
    pub fn levels(&self) -> &[LevelStats] {
        &self.levels
    }

    /// Count-query sensitivity (max incident edges over groups) at every
    /// level, finest first — the cached counterpart of
    /// [`GroupHierarchy::sensitivities`].
    pub fn sensitivities(&self) -> Vec<u64> {
        self.levels
            .iter()
            .map(LevelStats::max_incident_edges)
            .collect()
    }

    /// Updates every level's statistics under an [`EdgeDelta`] without
    /// touching the edge list: the delta's endpoints map through the
    /// finest level's assignments into aggregated cell deltas, those
    /// apply to the finest table (dirty rows only), and the *cell
    /// deltas themselves* roll up the refinement chain via the
    /// hierarchy's block maps — so each coarser level
    /// re-merges only its dirty rows too, and no level's partition is
    /// rescanned. A finest level of singletons keeps no table, so there
    /// only the marginals move: no table is rebuilt at the level whose
    /// table is largest.
    ///
    /// All arithmetic is integer, so the result is **bit-identical** to
    /// `HierarchyStats::compute(&graph.apply_delta(delta)?, hierarchy)`
    /// — pinned across random graphs and batches by the
    /// `delta_equivalence` property suite.
    ///
    /// The delta must already be consistent with the graph these stats
    /// were computed from (the caller applies it to the graph first,
    /// which validates membership); here node ranges are checked, and
    /// the counts each level holds (at a singleton level, only its
    /// marginals).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidHierarchy`] when `hierarchy`'s level
    /// count or some level's block counts differ from the ones these
    /// statistics were computed over, or when these statistics keep no
    /// finest table and `hierarchy`'s finest level is not the
    /// singletons (nothing is updated then), and
    /// [`CoreError::Graph`] for out-of-range endpoints or a batch that
    /// disagrees with the stored counts (e.g. deleting from an empty
    /// cell). A refused delta may leave *this* value partially updated
    /// — treat it as poisoned and recompute.
    pub fn apply_delta(&mut self, hierarchy: &GroupHierarchy, delta: &EdgeDelta) -> Result<()> {
        self.check_shape(hierarchy)?;
        let finest = hierarchy.finest();
        let left_assignment = finest.left().assignment();
        let right_assignment = finest.right().assignment();
        let mut keyed: Vec<(u64, i64)> = Vec::with_capacity(delta.len());
        for (sign, edges) in [(1i64, delta.inserts()), (-1i64, delta.deletes())] {
            for &(l, r) in edges {
                let li = l.as_usize();
                let ri = r.as_usize();
                if li >= left_assignment.len() {
                    return Err(CoreError::Graph(GraphError::LeftNodeOutOfRange {
                        index: l.index(),
                        left_count: left_assignment.len() as u32,
                    }));
                }
                if ri >= right_assignment.len() {
                    return Err(CoreError::Graph(GraphError::RightNodeOutOfRange {
                        index: r.index(),
                        right_count: right_assignment.len() as u32,
                    }));
                }
                let key = ((left_assignment[li] as u64) << 32) | right_assignment[ri] as u64;
                keyed.push((key, sign));
            }
        }
        let mut cells = Vec::with_capacity(keyed.len());
        let mut folded = Vec::with_capacity(keyed.len());
        let mut old_counts = Vec::with_capacity(keyed.len());
        fold_cell_deltas(&mut keyed, &mut cells);
        self.levels[0].apply_cell_deltas(&cells, &mut old_counts)?;
        for (i, [left_map, right_map]) in hierarchy.block_maps().iter().enumerate() {
            let coarser = &mut self.levels[i + 1];
            let cols = coarser.marginals.right.len();
            let grid_cells = coarser.marginals.left.len() * cols;
            if grid_cells <= DENSE_FOLD_MAX_CELLS {
                // Coarse level: scatter into a recycled dense grid and
                // collect nonzero entries in one row-major scan (zeroing
                // behind it, so the grid stays clean for reuse) — no
                // per-level sort.
                FOLD_GRID.with(|g| {
                    let mut grid = g.borrow_mut();
                    if grid.len() < grid_cells {
                        grid.resize(grid_cells, 0);
                    }
                    for &((l, r), d) in &cells {
                        grid[left_map[l as usize] as usize * cols
                            + right_map[r as usize] as usize] += d;
                    }
                    folded.clear();
                    for (idx, v) in grid[..grid_cells].iter_mut().enumerate() {
                        if *v != 0 {
                            folded.push((((idx / cols) as u32, (idx % cols) as u32), *v));
                            *v = 0;
                        }
                    }
                });
                std::mem::swap(&mut cells, &mut folded);
            } else {
                keyed.clear();
                keyed.extend(cells.iter().map(|&((l, r), d)| {
                    let key = ((left_map[l as usize] as u64) << 32) | right_map[r as usize] as u64;
                    (key, d)
                }));
                fold_cell_deltas(&mut keyed, &mut cells);
            }
            coarser.apply_cell_deltas(&cells, &mut old_counts)?;
        }
        Ok(())
    }

    /// Refuses a hierarchy whose level count or per-level block counts
    /// differ from the tables these statistics hold, or whose finest
    /// level is not the singletons when these statistics keep no finest
    /// table (its cells would not be the adjacency's).
    fn check_shape(&self, hierarchy: &GroupHierarchy) -> Result<()> {
        if hierarchy.level_count() != self.levels.len() {
            return Err(CoreError::InvalidHierarchy(format!(
                "hierarchy has {} levels but stats cover {}",
                hierarchy.level_count(),
                self.levels.len()
            )));
        }
        for (i, (level, stats)) in hierarchy.levels().iter().zip(&self.levels).enumerate() {
            let shape = (level.left().block_count(), level.right().block_count());
            let held = (
                stats.marginals.left.len() as u32,
                stats.marginals.right.len() as u32,
            );
            if shape != held {
                return Err(CoreError::InvalidHierarchy(format!(
                    "hierarchy level {i} has {shape:?} blocks but stats hold {held:?}"
                )));
            }
        }
        let no_finest_table = self.levels.first().is_some_and(|l| l.pair_counts.is_none());
        if no_finest_table && hierarchy.finest_singletons() != [true, true] {
            return Err(CoreError::InvalidHierarchy(
                "stats keep no finest table, but the hierarchy's finest level is not the singletons"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// Coarse levels whose full block grid fits under this many cells fold
/// their deltas by dense scatter-add instead of sort-and-fold (the scan
/// that collects nonzero entries also re-zeroes the recycled grid).
const DENSE_FOLD_MAX_CELLS: usize = 1 << 17;

thread_local! {
    // Recycled dense fold grid — kept zeroed between uses so the delta
    // rollup never re-allocates (and never re-faults) at steady state.
    static FOLD_GRID: std::cell::RefCell<Vec<i64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Sorts (in place) and folds keyed signed cell changes into
/// strictly-sorted `((left_block, right_block), change)` cells, dropping
/// cancellations — the delta-side analogue of the keyed rollup fold in
/// [`PairCounts::rollup`]. `cells` is cleared first; both buffers are
/// caller-recycled across the rollup chain so the per-epoch delta path
/// stays allocation-free at steady state.
fn fold_cell_deltas(keyed: &mut [(u64, i64)], cells: &mut Vec<((u32, u32), i64)>) {
    keyed.sort_unstable_by_key(|&(k, _)| k);
    cells.clear();
    for &(k, d) in keyed.iter() {
        let key = ((k >> 32) as u32, k as u32);
        match cells.last_mut() {
            Some((prev, sum)) if *prev == key => *sum += d,
            _ => cells.push((key, d)),
        }
    }
    cells.retain(|&(_, d)| d != 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specialize::{SpecializationConfig, Specializer};
    use gdp_graph::{GraphBuilder, LeftId, RightId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph() -> BipartiteGraph {
        let mut b = GraphBuilder::new(24, 24);
        for l in 0..24u32 {
            for k in 0..3u32 {
                b.add_edge(LeftId::new(l), RightId::new((l * 7 + k * 5) % 24))
                    .unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn rollup_levels_match_direct_per_level_compute() {
        let g = graph();
        let h = Specializer::new(SpecializationConfig::median(3).unwrap())
            .specialize(&g, &mut StdRng::seed_from_u64(11))
            .unwrap();
        let stats = HierarchyStats::compute(&g, &h).unwrap();
        assert_eq!(stats.level_count(), h.level_count());
        for (i, level) in h.levels().iter().enumerate() {
            let direct = PairCounts::compute(&g, level.left(), level.right());
            let cached = stats.level(i).unwrap();
            match cached.pair_counts() {
                Some(table) => assert_eq!(table, &direct, "level {i}"),
                // The singleton level's table is the adjacency.
                None => {
                    assert_eq!(i, 0);
                    assert_eq!(PairCounts::from_adjacency(&g), direct);
                }
            }
            assert_eq!(cached.incident_edges(), level.incident_edges(&g));
            assert_eq!(cached.max_incident_edges(), level.max_incident_edges(&g));
            assert_eq!(cached.total(), g.edge_count());
        }
        assert_eq!(stats.sensitivities(), h.sensitivities(&g));
    }

    #[test]
    fn apply_delta_matches_full_recompute() {
        use gdp_graph::{EdgeDelta, LeftId, RightId};
        let g = graph();
        let h = Specializer::new(SpecializationConfig::median(3).unwrap())
            .specialize(&g, &mut StdRng::seed_from_u64(11))
            .unwrap();
        let mut stats = HierarchyStats::compute(&g, &h).unwrap();
        // Delete two existing edges, insert two absent ones.
        let delta = EdgeDelta::new(
            vec![
                (LeftId::new(0), RightId::new(1)),
                (LeftId::new(23), RightId::new(0)),
            ],
            vec![
                (LeftId::new(0), RightId::new(0)),
                (LeftId::new(1), RightId::new(7)),
            ],
        );
        let g2 = g.apply_delta(&delta).unwrap();
        stats.apply_delta(&h, &delta).unwrap();
        assert_eq!(stats, HierarchyStats::compute(&g2, &h).unwrap());
        // Empty delta is an exact no-op.
        let before = stats.clone();
        stats.apply_delta(&h, &EdgeDelta::empty()).unwrap();
        assert_eq!(stats, before);
    }

    #[test]
    fn apply_delta_range_and_level_mismatch_errors() {
        use gdp_graph::{EdgeDelta, LeftId, RightId};
        let g = graph();
        let h = Specializer::new(SpecializationConfig::median(2).unwrap())
            .specialize(&g, &mut StdRng::seed_from_u64(3))
            .unwrap();
        let mut stats = HierarchyStats::compute(&g, &h).unwrap();
        let oob = EdgeDelta::new(vec![(LeftId::new(99), RightId::new(0))], Vec::new());
        assert!(matches!(
            stats.apply_delta(&h, &oob),
            Err(CoreError::Graph(
                gdp_graph::GraphError::LeftNodeOutOfRange { index: 99, .. }
            ))
        ));
        let other = Specializer::new(SpecializationConfig::median(3).unwrap())
            .specialize(&g, &mut StdRng::seed_from_u64(3))
            .unwrap();
        if other.level_count() != h.level_count() {
            assert!(matches!(
                stats.apply_delta(&other, &EdgeDelta::empty()),
                Err(CoreError::InvalidHierarchy(_))
            ));
        }
    }

    #[test]
    fn apply_delta_refuses_a_hierarchy_of_another_shape() {
        use crate::hierarchy::GroupLevel;
        use gdp_graph::{EdgeDelta, Side, SidePartition};
        let g = graph();
        let h = Specializer::new(SpecializationConfig::median(2).unwrap())
            .specialize(&g, &mut StdRng::seed_from_u64(3))
            .unwrap();
        let mut stats = HierarchyStats::compute(&g, &h).unwrap();
        let before = stats.clone();
        let singletons = GroupLevel::new(
            SidePartition::singletons(Side::Left, 24),
            SidePartition::singletons(Side::Right, 24),
        )
        .unwrap();
        // Same level count, other block counts; then one level more.
        let same_depth = GroupHierarchy::new(vec![singletons.clone(); h.level_count()]).unwrap();
        let deeper = GroupHierarchy::new(vec![singletons; h.level_count() + 1]).unwrap();
        for other in [same_depth, deeper] {
            assert!(matches!(
                stats.apply_delta(&other, &EdgeDelta::empty()),
                Err(CoreError::InvalidHierarchy(_))
            ));
            assert_eq!(stats, before, "a refused hierarchy changes nothing");
        }
    }

    /// A two-level hierarchy over [`graph`]'s 24 + 24 nodes: the finest
    /// level assigns node `i` to block `finest(i)` on both sides, the
    /// coarser level is one block per side.
    fn two_level(finest: impl Fn(u32) -> u32, blocks: u32) -> GroupHierarchy {
        use crate::hierarchy::GroupLevel;
        use gdp_graph::{Side, SidePartition};
        let level = |assign: Vec<u32>, blocks| {
            GroupLevel::new(
                SidePartition::new(Side::Left, assign.clone(), blocks).unwrap(),
                SidePartition::new(Side::Right, assign, blocks).unwrap(),
            )
            .unwrap()
        };
        GroupHierarchy::new(vec![
            level((0..24).map(&finest).collect(), blocks),
            level(vec![0; 24], 1),
        ])
        .unwrap()
    }

    #[test]
    fn a_finest_level_of_singletons_keeps_no_table() {
        use gdp_graph::{EdgeDelta, LeftId, RightId};
        let g = graph();
        let pairs = two_level(|i| i / 2, 12);
        let singletons = two_level(|i| i, 24);
        let delta = EdgeDelta::new(
            vec![(LeftId::new(0), RightId::new(1))],
            vec![(LeftId::new(0), RightId::new(0))],
        );
        let g2 = g.apply_delta(&delta).unwrap();
        for h in [pairs, singletons] {
            let mut stats = HierarchyStats::compute(&g, &h).unwrap();
            let kept = stats.level(0).unwrap().pair_counts().is_some();
            assert_eq!(kept, h.finest_singletons() != [true, true]);
            // Both paths land where a full recompute does.
            stats.apply_delta(&h, &delta).unwrap();
            assert_eq!(stats, HierarchyStats::compute(&g2, &h).unwrap());
        }
    }

    #[test]
    fn a_singleton_level_refuses_a_delta_its_marginals_disprove() {
        use gdp_graph::{EdgeDelta, GraphError, LeftId, RightId};
        let mut b = GraphBuilder::new(4, 4);
        b.add_edge(LeftId::new(0), RightId::new(0)).unwrap();
        b.add_edge(LeftId::new(1), RightId::new(1)).unwrap();
        let g = b.build();
        let h = Specializer::new(SpecializationConfig::median(1).unwrap())
            .specialize(&g, &mut StdRng::seed_from_u64(2))
            .unwrap();
        let stats = HierarchyStats::compute(&g, &h).unwrap();
        // Left node 3 has no edge, so no delete there can hold.
        let isolated = EdgeDelta::new(Vec::new(), vec![(LeftId::new(3), RightId::new(0))]);
        assert!(matches!(
            stats.clone().apply_delta(&h, &isolated),
            Err(CoreError::Graph(GraphError::DeltaCellUnderflow {
                left_block: 3,
                right_block: 0,
                have: 0,
                change: -1,
            }))
        ));
        // An edge inserted twice would make a singleton cell 2.
        let twice = EdgeDelta::new(vec![(LeftId::new(2), RightId::new(2)); 2], Vec::new());
        assert!(matches!(
            stats.clone().apply_delta(&h, &twice),
            Err(CoreError::Graph(GraphError::DeltaInvalid { .. }))
        ));
    }

    #[test]
    fn stats_without_a_finest_table_refuse_a_permuted_finest_level() {
        use gdp_graph::EdgeDelta;
        let g = graph();
        let mut stats = HierarchyStats::compute(&g, &two_level(|i| i, 24)).unwrap();
        let before = stats.clone();
        // Same block counts, but block `i` is node `23 − i`.
        let permuted = two_level(|i| 23 - i, 24);
        assert!(matches!(
            stats.apply_delta(&permuted, &EdgeDelta::empty()),
            Err(CoreError::InvalidHierarchy(_))
        ));
        assert_eq!(stats, before);
    }

    #[test]
    fn level_out_of_range_is_reported() {
        let g = graph();
        let h = Specializer::new(SpecializationConfig::median(2).unwrap())
            .specialize(&g, &mut StdRng::seed_from_u64(1))
            .unwrap();
        let stats = HierarchyStats::compute(&g, &h).unwrap();
        assert!(matches!(
            stats.level(h.level_count()),
            Err(CoreError::LevelOutOfRange { .. })
        ));
    }
}
