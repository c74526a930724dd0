use serde::{Deserialize, Serialize};

use gdp_graph::{BipartiteGraph, PairCounts};

use crate::hierarchy::GroupLevel;
use crate::stats::LevelStats;

/// The **group-level sensitivity** of a query at one hierarchy level:
/// the largest L1/L2 change of the query answer when one whole group of
/// that level is added to or removed from the dataset (Definition 3's
/// adjacency).
///
/// This is the quantity that separates group privacy from individual
/// privacy: at the individual level the count query has sensitivity
/// `max degree`, while at the coarsest level removing "the" group removes
/// every association — sensitivity `m`. The per-level noise in Figure 1
/// scales with exactly these numbers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LevelSensitivity {
    /// Worst-case L1 change (calibrates Laplace/geometric noise).
    pub l1: f64,
    /// Worst-case L2 change (calibrates Gaussian noise).
    pub l2: f64,
}

impl LevelSensitivity {
    /// Sensitivity of the **total association count** at `level`.
    ///
    /// Removing group `G` removes exactly the edges incident to `G`
    /// (groups are one-sided, so each edge is incident to exactly one
    /// left group and one right group), hence
    /// `Δ = max_G incident_edges(G)` and `L1 = L2` for a scalar query.
    pub fn total_count(level: &GroupLevel, graph: &BipartiteGraph) -> Self {
        let max_inc = level.max_incident_edges(graph) as f64;
        Self {
            l1: max_inc,
            l2: max_inc,
        }
    }

    /// [`Self::total_count`] from cached level statistics — the max
    /// incidence comes from the cached CSR marginals instead of an edge
    /// scan. Bit-identical to the direct path (integer max, same cast).
    pub fn total_count_cached(stats: &LevelStats) -> Self {
        let max_inc = stats.max_incident_edges() as f64;
        Self {
            l1: max_inc,
            l2: max_inc,
        }
    }

    /// Sensitivity of the **per-group incident-count vector** (left
    /// groups then right groups) at `level`, computed *exactly* from the
    /// level's block-pair counts.
    ///
    /// Removing left group `g` zeroes its own entry (change
    /// `incident(g)`) and reduces every right group `r`'s entry by the
    /// pair count `c(g, r)`; symmetrically for right groups. Hence for a
    /// left group:
    ///
    /// * `L1 = incident(g) + Σ_r c(g,r) = 2·incident(g)`
    /// * `L2 = √(incident(g)² + Σ_r c(g,r)²)`
    pub fn per_group_counts(level: &GroupLevel, graph: &BipartiteGraph) -> Self {
        let pc = PairCounts::compute(graph, level.left(), level.right());
        Self::per_group_counts_from_marginals(&pc.marginals())
    }

    /// [`Self::per_group_counts`] from cached level statistics — reads
    /// the level's cached `Σ c` / `Σ c²` block marginals instead of
    /// rescanning edges or refolding cells. Both paths consume the same
    /// integer marginals (exact, order-free), so the result is
    /// bit-identical to the direct path — including for marginals that
    /// were delta-maintained across epochs rather than recomputed.
    pub fn per_group_counts_cached(stats: &LevelStats) -> Self {
        Self::per_group_counts_from_marginals(stats.marginals())
    }

    /// The shared exact `O(blocks)` fold both [`Self::per_group_counts`]
    /// paths use: the per-block `Σ c` and `Σ c²` sums are cached integer
    /// marginals, so only the final max scan runs here.
    fn per_group_counts_from_marginals(m: &gdp_graph::PairMarginals) -> Self {
        let mut l1: f64 = 0.0;
        let mut l2: f64 = 0.0;
        for (&sum, &sq) in m.left.iter().zip(&m.left_sq) {
            let inc = sum as f64;
            l1 = l1.max(2.0 * inc);
            l2 = l2.max((inc * inc + sq as f64).sqrt());
        }
        for (&sum, &sq) in m.right.iter().zip(&m.right_sq) {
            let inc = sum as f64;
            l1 = l1.max(2.0 * inc);
            l2 = l2.max((inc * inc + sq as f64).sqrt());
        }
        Self { l1, l2 }
    }

    /// Conservative sensitivity of the **left-side degree histogram** at
    /// `level`.
    ///
    /// Removing a left group of size `s` deletes `s` nodes — one unit
    /// leaves one bin per node (`L1 ≤ s`, `L2 ≤ s` when they share a
    /// bin). Removing a right group with `incident(g)` edges decrements
    /// the degree of affected left nodes, moving each across bins
    /// (`L1 ≤ 2·incident(g)`, `L2 ≤ √2·incident(g)`).
    pub fn left_degree_histogram(level: &GroupLevel, graph: &BipartiteGraph) -> Self {
        let max_right_inc = level
            .right()
            .incident_edge_counts(graph)
            .into_iter()
            .max()
            .unwrap_or(0);
        Self::left_degree_histogram_from_parts(level, max_right_inc)
    }

    /// [`Self::left_degree_histogram`] from cached level statistics —
    /// the max right-block incidence comes from the cached CSR column
    /// marginals (identical integers) instead of a degree scan.
    pub fn left_degree_histogram_cached(level: &GroupLevel, stats: &LevelStats) -> Self {
        Self::left_degree_histogram_from_parts(level, stats.marginals().max_right)
    }

    fn left_degree_histogram_from_parts(level: &GroupLevel, max_right_inc: u64) -> Self {
        let max_left_size = level.left().max_block_size() as f64;
        let max_right_inc = max_right_inc as f64;
        Self {
            l1: max_left_size.max(2.0 * max_right_inc),
            l2: max_left_size.max(std::f64::consts::SQRT_2 * max_right_inc),
        }
    }

    /// Noise mechanisms reject zero sensitivity; queries whose answer a
    /// group removal cannot change (e.g. on an edgeless graph) still get
    /// a unit floor so a release can be produced.
    pub fn floored(self) -> Self {
        Self {
            l1: self.l1.max(1.0),
            l2: self.l2.max(1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_graph::{GraphBuilder, LeftId, RightId, Side, SidePartition};

    fn graph() -> BipartiteGraph {
        // 4 left, 4 right; degrees L = [2,1,1,2], R = [1,2,2,1].
        let mut b = GraphBuilder::new(4, 4);
        for (l, r) in [(0, 0), (0, 1), (1, 1), (2, 2), (3, 3), (3, 2)] {
            b.add_edge(LeftId::new(l), RightId::new(r)).unwrap();
        }
        b.build()
    }

    fn level_2x2() -> GroupLevel {
        GroupLevel::new(
            SidePartition::new(Side::Left, vec![0, 0, 1, 1], 2).unwrap(),
            SidePartition::new(Side::Right, vec![0, 0, 1, 1], 2).unwrap(),
        )
        .unwrap()
    }

    fn level_whole() -> GroupLevel {
        GroupLevel::new(
            SidePartition::whole(Side::Left, 4).unwrap(),
            SidePartition::whole(Side::Right, 4).unwrap(),
        )
        .unwrap()
    }

    fn level_singletons() -> GroupLevel {
        GroupLevel::new(
            SidePartition::singletons(Side::Left, 4),
            SidePartition::singletons(Side::Right, 4),
        )
        .unwrap()
    }

    #[test]
    fn total_count_sensitivity_by_level() {
        let g = graph();
        // Individual level: max degree = 2.
        let s = LevelSensitivity::total_count(&level_singletons(), &g);
        assert_eq!(s.l1, 2.0);
        assert_eq!(s.l2, 2.0);
        // Mid level: each block carries 3 incident edges.
        let s = LevelSensitivity::total_count(&level_2x2(), &g);
        assert_eq!(s.l1, 3.0);
        // Whole level: all 6 edges.
        let s = LevelSensitivity::total_count(&level_whole(), &g);
        assert_eq!(s.l1, 6.0);
    }

    #[test]
    fn per_group_counts_exact_at_mid_level() {
        let g = graph();
        let level = level_2x2();
        // Pair counts: (0,0)=3 [(0,0),(0,1),(1,1)], (1,1)=3 [(2,2),(3,3),(3,2)].
        let s = LevelSensitivity::per_group_counts(&level, &g);
        // Worst group: incident 3, single partner cell 3 →
        // L1 = 6, L2 = √(9+9) = √18.
        assert_eq!(s.l1, 6.0);
        assert!((s.l2 - 18f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn per_group_l2_never_exceeds_l1() {
        let g = graph();
        for level in [level_singletons(), level_2x2(), level_whole()] {
            let s = LevelSensitivity::per_group_counts(&level, &g);
            assert!(s.l2 <= s.l1 + 1e-12, "l2 {} > l1 {}", s.l2, s.l1);
        }
    }

    #[test]
    fn degree_histogram_bounds() {
        let g = graph();
        let s = LevelSensitivity::left_degree_histogram(&level_2x2(), &g);
        // max left block size 2; max right block incidence 3.
        assert_eq!(s.l1, 6.0);
        assert!((s.l2 - 3.0 * std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn floor_lifts_zero() {
        let s = LevelSensitivity { l1: 0.0, l2: 0.0 }.floored();
        assert_eq!(s.l1, 1.0);
        assert_eq!(s.l2, 1.0);
        let s = LevelSensitivity { l1: 5.0, l2: 3.0 }.floored();
        assert_eq!(s.l1, 5.0);
        assert_eq!(s.l2, 3.0);
    }

    #[test]
    fn sensitivity_grows_with_coarseness() {
        let g = graph();
        let fine = LevelSensitivity::total_count(&level_singletons(), &g);
        let mid = LevelSensitivity::total_count(&level_2x2(), &g);
        let coarse = LevelSensitivity::total_count(&level_whole(), &g);
        assert!(fine.l1 <= mid.l1 && mid.l1 <= coarse.l1);
    }
}
