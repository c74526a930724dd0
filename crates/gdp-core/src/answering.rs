//! Consumer-side query answering over published releases.
//!
//! The disclosure pipeline publishes per-group aggregates; real
//! consumers ask ad-hoc questions ("how many associations touch *these*
//! authors?"). [`SubsetCountEstimator`] answers subset-count queries
//! from a level's noisy per-group counts plus the public group
//! structure — pure post-processing, so no additional privacy cost.

use gdp_graph::Side;

#[cfg(test)]
use crate::queries::Query;

use crate::error::CoreError;
use crate::hierarchy::GroupLevel;
use crate::release::LevelRelease;
use crate::Result;

/// Answers **subset-count queries** from a published level release —
/// the consumer-side estimator a real deployment pairs with the
/// disclosure pipeline.
///
/// A subset query asks for the number of associations incident to a set
/// of nodes on one side. The consumer holds the level's noisy per-group
/// counts plus the (public) group structure; the estimator spreads each
/// group's noisy mass uniformly over its members and sums the fractions
/// covered by the query:
///
/// `estimate(S) = Σ_{v ∈ S} noisy(g(v)) / |g(v)|`
///
/// (the per-node *pre-mass* form, accumulated in subset order — exactly
/// the value `gdp_serve::IndexedRelease` precomputes per group and
/// gathers per node, so the scan path here and the indexed gather
/// produce bit-identical estimates).
///
/// The estimate is unbiased when node masses within a group are
/// homogeneous — which is exactly what the Phase-1 balance objective
/// drives toward — and degrades gracefully otherwise; the `workload`
/// experiment quantifies the error versus subset size and level.
///
/// ```
/// # use gdp_core::{DisclosureConfig, MultiLevelDiscloser, Query, SpecializationConfig,
/// #     Specializer};
/// # use gdp_core::answering::SubsetCountEstimator;
/// # use gdp_datagen::{DblpConfig, DblpGenerator};
/// # use gdp_graph::Side;
/// # use rand::SeedableRng;
/// # fn main() -> Result<(), gdp_core::CoreError> {
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(8);
/// # let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
/// # let hierarchy = Specializer::new(SpecializationConfig::median(3)?)
/// #     .specialize(&graph, &mut rng)?;
/// # let release = MultiLevelDiscloser::new(
/// #     DisclosureConfig::count_only(0.9, 1e-6)?
/// #         .with_queries(vec![Query::PerGroupCounts]))
/// #     .disclose(&graph, &hierarchy, &mut rng)?;
/// let estimator = SubsetCountEstimator::new(
///     release.level(1)?, hierarchy.level(1)?)?;
/// let estimate = estimator.estimate(Side::Left, &[0, 1, 2])?;
/// assert!(estimate.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SubsetCountEstimator<'a> {
    level: &'a GroupLevel,
    left_noisy: Vec<f64>,
    right_noisy: Vec<f64>,
}

impl<'a> SubsetCountEstimator<'a> {
    /// Builds an estimator from a level release (which must contain the
    /// [`Query::PerGroupCounts`](crate::Query::PerGroupCounts) release)
    /// and its public group level.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the release lacks the
    /// per-group query or does not match the level's group count.
    pub fn new(release: &LevelRelease, level: &'a GroupLevel) -> Result<Self> {
        let (left_noisy, right_noisy) = per_group_slices(release, level)?;
        Ok(Self {
            level,
            left_noisy: left_noisy.to_vec(),
            right_noisy: right_noisy.to_vec(),
        })
    }

    /// Estimates the association count incident to `nodes` on `side`.
    ///
    /// The subset must be well-formed: every node in range for the side
    /// and **no node listed twice**. Both defects are rejected with a
    /// typed error naming the first offending node (in `nodes` order)
    /// rather than silently merged or double-counted — a malformed
    /// subset almost always means the caller built the query wrong, and
    /// a quietly "fixed" answer would hide that. The contract lives in
    /// [`validate_subset`], which `gdp_serve`'s indexed fast path also
    /// routes its errors through, so the two paths agree on every
    /// input by construction.
    ///
    /// Terms are accumulated **per node in subset order**, each term
    /// evaluated as `noisy(g(v)) / |g(v)|`; the indexed path gathers
    /// its precomputed per-group value with the same expression in the
    /// same order, which is what makes the two estimates bit-identical.
    ///
    /// # Errors
    ///
    /// * [`CoreError::SubsetNodeOutOfRange`] if a node index is out of
    ///   range for the side.
    /// * [`CoreError::DuplicateSubsetNode`] if a node appears more than
    ///   once.
    pub fn estimate(&self, side: Side, nodes: &[u32]) -> Result<f64> {
        let (partition, noisy) = match side {
            Side::Left => (self.level.left(), &self.left_noisy),
            Side::Right => (self.level.right(), &self.right_noisy),
        };
        let sizes = partition.block_sizes();
        validate_subset(side, nodes, partition.node_count())?;
        let mut total = 0.0;
        for &node in nodes {
            let g = partition.block_of(node) as usize;
            total += noisy[g] / sizes[g] as f64;
        }
        Ok(total)
    }

    /// The whole-side estimate — sums every group's noisy count; useful
    /// as a consistency check against the released total.
    pub fn estimate_side_total(&self, side: Side) -> f64 {
        match side {
            Side::Left => self.left_noisy.iter().sum(),
            Side::Right => self.right_noisy.iter().sum(),
        }
    }
}

/// Splits a level's per-group release into its `(left, right)` noisy
/// slices, validating the vector length — the shared entry point of
/// [`SubsetCountEstimator::new`] and the scan-path baselines below, so
/// the per-group presence/shape contract (and its error text) has one
/// definition.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] when the release lacks the
/// per-group query or its length disagrees with the level's group
/// count.
fn per_group_slices<'a>(
    release: &'a LevelRelease,
    level: &GroupLevel,
) -> Result<(&'a [f64], &'a [f64])> {
    let per_group = release.per_group_counts().ok_or_else(|| {
        CoreError::InvalidConfig("release does not contain per-group counts".to_string())
    })?;
    let lb = level.left().block_count() as usize;
    let rb = level.right().block_count() as usize;
    if per_group.noisy_values.len() != lb + rb {
        return Err(CoreError::InvalidConfig(format!(
            "per-group vector length {} does not match level group count {}",
            per_group.noisy_values.len(),
            lb + rb
        )));
    }
    Ok((&per_group.noisy_values[..lb], &per_group.noisy_values[lb..]))
}

/// Scan-path baseline for a **group-mass** query: the raw noisy
/// incident-association mass of one group, read straight out of the
/// level's per-group release. `gdp_serve`'s indexed path answers the
/// same query from its prebuilt tables and is pinned bit-identical to
/// this function (values and typed errors) by conformance proptests.
///
/// # Errors
///
/// * [`CoreError::InvalidConfig`] when the release lacks per-group
///   counts (checked **before** the group index, the same precedence
///   the estimator applies to its inputs).
/// * [`CoreError::GroupOutOfRange`] when `group` exceeds the side's
///   group count.
pub fn scan_group_mass(
    release: &LevelRelease,
    level: &GroupLevel,
    side: Side,
    group: u32,
) -> Result<f64> {
    let (left, right) = per_group_slices(release, level)?;
    let noisy = match side {
        Side::Left => left,
        Side::Right => right,
    };
    let group_count = noisy.len() as u32;
    if group >= group_count {
        return Err(CoreError::GroupOutOfRange {
            side,
            group,
            group_count,
        });
    }
    Ok(noisy[group as usize])
}

/// Scan-path baseline for a **side-total** query: the sum of every
/// group's noisy mass on one side, accumulated in group order — exactly
/// [`SubsetCountEstimator::estimate_side_total`] evaluated from the raw
/// release. The indexed path is pinned bit-identical to this.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] when the release lacks
/// per-group counts.
pub fn scan_side_total(release: &LevelRelease, level: &GroupLevel, side: Side) -> Result<f64> {
    let (left, right) = per_group_slices(release, level)?;
    let noisy = match side {
        Side::Left => left,
        Side::Right => right,
    };
    Ok(noisy.iter().sum())
}

/// Scan-path baseline for a **degree-histogram** query: the noisy
/// left-degree histogram released at the level (bins `0..=max_degree`),
/// found by query kind regardless of the cap. Only the left side is
/// released by the disclosure pipeline, so the right side is a typed
/// refusal — the serving layer surfaces the same distinction as
/// `ServeError::StatisticNotReleased`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] when `side` is
/// [`Side::Right`] or the release carries no histogram.
pub fn scan_degree_histogram(release: &LevelRelease, side: Side) -> Result<&[f64]> {
    if side == Side::Right {
        return Err(CoreError::InvalidConfig(
            "no right-side degree histogram is released".to_string(),
        ));
    }
    let hist = release.left_degree_histogram().ok_or_else(|| {
        CoreError::InvalidConfig("release does not contain a left-degree histogram".to_string())
    })?;
    Ok(&hist.noisy_values)
}

/// The canonical subset well-formedness check: every node in range for
/// a side of `node_count` nodes and no node listed twice, with the
/// **first offending node in subset order** reported. This is the
/// single source of truth for subset-query error semantics — the
/// scan-path estimator above and `gdp_serve::IndexedRelease`'s indexed
/// gather both route their error reporting through it, which is what
/// keeps the two paths error-identical by construction.
///
/// # Errors
///
/// * [`CoreError::SubsetNodeOutOfRange`] for the first node `≥ node_count`.
/// * [`CoreError::DuplicateSubsetNode`] for the first repeated node.
pub fn validate_subset(side: Side, nodes: &[u32], node_count: u32) -> Result<()> {
    let mut seen = std::collections::HashSet::with_capacity(nodes.len());
    for &node in nodes {
        if node >= node_count {
            return Err(CoreError::SubsetNodeOutOfRange {
                side,
                node,
                node_count,
            });
        }
        if !seen.insert(node) {
            return Err(CoreError::DuplicateSubsetNode { side, node });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disclosure::{DisclosureConfig, MultiLevelDiscloser};
    use crate::release::MultiLevelRelease;
    use crate::specialize::{SpecializationConfig, Specializer};
    use crate::GroupHierarchy;
    use gdp_datagen::{DblpConfig, DblpGenerator};
    use gdp_graph::{BipartiteGraph, LeftId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(eps: f64) -> (BipartiteGraph, GroupHierarchy, MultiLevelRelease) {
        let mut rng = StdRng::seed_from_u64(50);
        let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
        let hierarchy = Specializer::new(SpecializationConfig::median(3).unwrap())
            .specialize(&graph, &mut rng)
            .unwrap();
        let release = MultiLevelDiscloser::new(
            DisclosureConfig::count_only(eps, 1e-6)
                .unwrap()
                .with_queries(vec![Query::PerGroupCounts]),
        )
        .disclose(&graph, &hierarchy, &mut rng)
        .unwrap();
        (graph, hierarchy, release)
    }

    #[test]
    fn whole_side_subset_recovers_side_total() {
        let (graph, hierarchy, release) = setup(0.9);
        let level_idx = 1;
        let est = SubsetCountEstimator::new(
            release.level(level_idx).unwrap(),
            hierarchy.level(level_idx).unwrap(),
        )
        .unwrap();
        let all: Vec<u32> = (0..graph.left_count()).collect();
        let whole = est.estimate(Side::Left, &all).unwrap();
        let side_total = est.estimate_side_total(Side::Left);
        assert!((whole - side_total).abs() < 1e-6);
    }

    #[test]
    fn estimates_track_truth_at_tight_budget() {
        // With singleton groups (level 0) the estimator is exact up to
        // the injected noise: compare to true degree sums.
        let (graph, hierarchy, release) = setup(0.9);
        let est = SubsetCountEstimator::new(release.level(0).unwrap(), hierarchy.level(0).unwrap())
            .unwrap();
        let nodes: Vec<u32> = (0..40).collect();
        let truth: f64 = nodes
            .iter()
            .map(|&l| graph.left_degree(LeftId::new(l)) as f64)
            .sum();
        let got = est.estimate(Side::Left, &nodes).unwrap();
        // Noise per singleton is bounded; 40 groups add up — just check
        // the estimate lands within a plausible band of the truth.
        let sigma = release.level(0).unwrap().queries[0].noise_scale;
        let band = 6.0 * sigma * (nodes.len() as f64).sqrt();
        assert!(
            (got - truth).abs() < band,
            "estimate {got} vs truth {truth} (band {band})"
        );
    }

    #[test]
    fn duplicates_rejected_with_typed_error() {
        let (_, hierarchy, release) = setup(0.9);
        let est = SubsetCountEstimator::new(release.level(1).unwrap(), hierarchy.level(1).unwrap())
            .unwrap();
        assert!(est.estimate(Side::Left, &[3, 4]).is_ok());
        let err = est.estimate(Side::Left, &[3, 4, 3]).unwrap_err();
        assert!(matches!(
            err,
            CoreError::DuplicateSubsetNode {
                side: Side::Left,
                node: 3
            }
        ));
    }

    #[test]
    fn out_of_range_node_rejected() {
        let (graph, hierarchy, release) = setup(0.9);
        let est = SubsetCountEstimator::new(release.level(1).unwrap(), hierarchy.level(1).unwrap())
            .unwrap();
        let bad = graph.left_count() + 5;
        let err = est.estimate(Side::Left, &[bad]).unwrap_err();
        assert!(matches!(
            err,
            CoreError::SubsetNodeOutOfRange {
                side: Side::Left,
                node,
                ..
            } if node == bad
        ));
    }

    #[test]
    fn error_precedence_follows_subset_order() {
        // The first offending node in subset order wins, whichever kind
        // of defect it is — the indexed path mirrors this exactly.
        let (graph, hierarchy, release) = setup(0.9);
        let est = SubsetCountEstimator::new(release.level(1).unwrap(), hierarchy.level(1).unwrap())
            .unwrap();
        let bad = graph.left_count() + 1;
        // Duplicate occurs before the out-of-range node.
        assert!(matches!(
            est.estimate(Side::Left, &[2, 2, bad]).unwrap_err(),
            CoreError::DuplicateSubsetNode { node: 2, .. }
        ));
        // Out-of-range occurs before the duplicate.
        assert!(matches!(
            est.estimate(Side::Left, &[2, bad, 2]).unwrap_err(),
            CoreError::SubsetNodeOutOfRange { node, .. } if node == bad
        ));
    }

    #[test]
    fn missing_per_group_release_rejected() {
        let mut rng = StdRng::seed_from_u64(51);
        let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
        let hierarchy = Specializer::new(SpecializationConfig::median(2).unwrap())
            .specialize(&graph, &mut rng)
            .unwrap();
        // Only the total count released — no per-group vector.
        let release = MultiLevelDiscloser::new(DisclosureConfig::count_only(0.5, 1e-6).unwrap())
            .disclose(&graph, &hierarchy, &mut rng)
            .unwrap();
        let err = SubsetCountEstimator::new(release.level(0).unwrap(), hierarchy.level(0).unwrap())
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)));
    }

    #[test]
    fn scan_baselines_read_the_release_directly() {
        let (_, hierarchy, release) = setup(0.9);
        let level = 1;
        let rel = release.level(level).unwrap();
        let lvl = hierarchy.level(level).unwrap();
        let per_group = rel.per_group_counts().unwrap();
        let lb = lvl.left().block_count() as usize;
        // Group mass is the raw noisy value, side-offset for the right.
        assert_eq!(
            scan_group_mass(rel, lvl, Side::Left, 0).unwrap().to_bits(),
            per_group.noisy_values[0].to_bits()
        );
        assert_eq!(
            scan_group_mass(rel, lvl, Side::Right, 1).unwrap().to_bits(),
            per_group.noisy_values[lb + 1].to_bits()
        );
        let err = scan_group_mass(rel, lvl, Side::Left, lb as u32).unwrap_err();
        assert!(matches!(
            err,
            CoreError::GroupOutOfRange { side: Side::Left, group, group_count }
                if group == lb as u32 && group_count == lb as u32
        ));
        // Side totals equal the estimator's.
        let est = SubsetCountEstimator::new(rel, lvl).unwrap();
        for side in [Side::Left, Side::Right] {
            assert_eq!(
                scan_side_total(rel, lvl, side).unwrap().to_bits(),
                est.estimate_side_total(side).to_bits()
            );
        }
        // No histogram released in this setup: typed refusal either way.
        assert!(matches!(
            scan_degree_histogram(rel, Side::Left).unwrap_err(),
            CoreError::InvalidConfig(_)
        ));
        assert!(matches!(
            scan_degree_histogram(rel, Side::Right).unwrap_err(),
            CoreError::InvalidConfig(_)
        ));
    }

    #[test]
    fn scan_degree_histogram_finds_release_by_kind() {
        let mut rng = StdRng::seed_from_u64(52);
        let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
        let hierarchy = Specializer::new(SpecializationConfig::median(2).unwrap())
            .specialize(&graph, &mut rng)
            .unwrap();
        let release = MultiLevelDiscloser::new(
            DisclosureConfig::count_only(0.5, 1e-6)
                .unwrap()
                .with_queries(vec![Query::LeftDegreeHistogram { max_degree: 8 }]),
        )
        .disclose(&graph, &hierarchy, &mut rng)
        .unwrap();
        let rel = release.level(0).unwrap();
        let hist = scan_degree_histogram(rel, Side::Left).unwrap();
        assert_eq!(hist.len(), 9);
        assert_eq!(
            hist,
            rel.left_degree_histogram().unwrap().noisy_values.as_slice()
        );
    }

    #[test]
    fn empty_subset_estimates_zero() {
        let (_, hierarchy, release) = setup(0.9);
        let est = SubsetCountEstimator::new(release.level(1).unwrap(), hierarchy.level(1).unwrap())
            .unwrap();
        assert_eq!(est.estimate(Side::Right, &[]).unwrap(), 0.0);
    }
}
