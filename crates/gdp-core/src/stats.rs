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
//! once.
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
    pair_counts: PairCounts,
    marginals: PairMarginals,
}

impl LevelStats {
    /// Wraps a level's pair counts, deriving its marginals in one pass.
    pub fn from_pair_counts(pair_counts: PairCounts) -> Self {
        let marginals = pair_counts.marginals();
        Self {
            pair_counts,
            marginals,
        }
    }

    /// The level's block-pair association counts.
    pub fn pair_counts(&self) -> &PairCounts {
        &self.pair_counts
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
    fn apply_cell_deltas(
        &mut self,
        deltas: &[((u32, u32), i64)],
        old_counts: &mut Vec<u64>,
    ) -> Result<()> {
        self.pair_counts
            .apply_cell_deltas_recording(deltas, old_counts)
            .map_err(CoreError::Graph)?;
        let mut total = self.marginals.total as i128;
        for (&((l, r), d), &have) in deltas.iter().zip(old_counts.iter()) {
            let left = &mut self.marginals.left[l as usize];
            *left = (*left as i128 + d as i128) as u64;
            let right = &mut self.marginals.right[r as usize];
            *right = (*right as i128 + d as i128) as u64;
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
    /// Computes every level's statistics: one edge sweep for the finest
    /// level, then a rollup per coarser level through the hierarchy's
    /// block maps ([`GroupHierarchy::block_maps`]).
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
        let mut pair_counts = Vec::with_capacity(hierarchy.level_count());
        pair_counts.push(PairCounts::compute(graph, finest.left(), finest.right()));
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
                .map(LevelStats::from_pair_counts)
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
    /// rescanned.
    ///
    /// All arithmetic is integer, so the result is **bit-identical** to
    /// `HierarchyStats::compute(&graph.apply_delta(delta)?, hierarchy)`
    /// — pinned across random graphs and batches by the
    /// `delta_equivalence` property suite.
    ///
    /// The delta must already be consistent with the graph these stats
    /// were computed from (the caller applies it to the graph first,
    /// which validates membership); here only node ranges are checked.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidHierarchy`] when `hierarchy`'s level
    /// count or some level's block counts differ from the ones these
    /// statistics were computed over (nothing is updated then), and
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
            let cols = coarser.pair_counts.right_blocks() as usize;
            let grid_cells = coarser.pair_counts.left_blocks() as usize * cols;
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
    /// differ from the tables these statistics hold.
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
                stats.pair_counts.left_blocks(),
                stats.pair_counts.right_blocks(),
            );
            if shape != held {
                return Err(CoreError::InvalidHierarchy(format!(
                    "hierarchy level {i} has {shape:?} blocks but stats hold {held:?}"
                )));
            }
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
            assert_eq!(cached.pair_counts(), &direct, "level {i}");
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
