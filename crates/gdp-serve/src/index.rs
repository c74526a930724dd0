//! Query-optimized view of a sealed release artifact.

use std::sync::Arc;

use gdp_core::{AccessPolicy, CoreError, Query as CoreQuery, ReleaseArtifact};
use gdp_graph::{Side, SidePartition};

use crate::error::ServeError;
use crate::query::{Query, TypedAnswer};
use crate::Result;

/// What one side of one level keeps beyond the artifact: the values a
/// lookup cannot read in place.
#[derive(Debug, Clone)]
struct IndexedSide {
    /// `premass[g] = noisy(g) / |g|` — the exact float the scan-path
    /// estimator computes per touched group, hoisted to build time.
    premass: Vec<f64>,
    /// `Σ noisy(g)` in group order, folded once at build time — the
    /// side-total answer as an O(1) load.
    total: f64,
}

impl IndexedSide {
    fn new(partition: &SidePartition, noisy: &[f64]) -> Self {
        Self {
            premass: noisy
                .iter()
                .zip(partition.block_sizes())
                .map(|(&mass, &size)| mass / size as f64)
                .collect(),
            total: noisy.iter().sum(),
        }
    }
}

/// The group tables of one level — present when the level released
/// [`gdp_core::Query::PerGroupCounts`].
#[derive(Debug, Clone)]
struct IndexedGroups {
    /// Position of the per-group release in the level's query list.
    query: usize,
    left: IndexedSide,
    right: IndexedSide,
}

/// One hierarchy level's precomputed tables. Either half may be absent
/// when the corresponding statistic was not released at the level.
#[derive(Debug, Clone)]
struct IndexedLevel {
    /// Subset gathers, group-mass lookups and side totals need these.
    groups: Option<IndexedGroups>,
    /// The released left-degree histogram, materialized **once** at
    /// index build and served by reference (`Arc` clone) forever after.
    histogram: Option<Arc<[f64]>>,
}

/// A [`ReleaseArtifact`] plus the few precomputed values that turn
/// every [`Query`] variant into a table lookup.
///
/// The index is a view: node→group assignments and released per-group
/// masses are read from the artifact it owns, never copied. For every
/// level that released [`gdp_core::Query::PerGroupCounts`] it keeps
/// only each side's per-group mass pre-divided by `|g|` (for subset
/// gathers) and the side's folded total. A subset estimate then visits
/// exactly the queried nodes — an `O(|S|)` gather — instead of
/// scanning all groups behind a freshly built estimator; a group mass
/// or side total never rescans the release's query list. Levels that
/// released a left-degree histogram additionally carry it
/// materialized, served by `Arc` reference. Every variant's answer is
/// **bit-identical** to its core-path rescan baseline
/// ([`SubsetCountEstimator::estimate`](gdp_core::answering::SubsetCountEstimator::estimate),
/// [`scan_group_mass`](gdp_core::answering::scan_group_mass),
/// [`scan_degree_histogram`](gdp_core::answering::scan_degree_histogram),
/// [`scan_side_total`](gdp_core::answering::scan_side_total)), errors
/// included; conformance proptests pin the equivalences.
///
/// Everything here is post-processing of an already-released bundle:
/// building the index, and answering any number of queries from it,
/// consumes no privacy budget.
#[derive(Debug, Clone)]
pub struct IndexedRelease {
    artifact: ReleaseArtifact,
    policy: AccessPolicy,
    levels: Vec<IndexedLevel>,
}

impl IndexedRelease {
    /// Indexes an artifact. Levels without a per-group release are kept
    /// (their metadata stays served from the artifact) but cannot answer
    /// subset, group-mass or side-total queries; levels without a
    /// histogram release cannot answer degree-histogram queries.
    ///
    /// Sealing has already checked every released vector's length
    /// against its level, so building reads the artifact without
    /// re-checking it.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Core`] when the artifact has no levels (no
    /// access policy covers it).
    pub fn new(artifact: ReleaseArtifact) -> Result<Self> {
        let policy = AccessPolicy::new(artifact.level_count()).map_err(ServeError::Core)?;
        let levels = artifact
            .release()
            .levels()
            .iter()
            .zip(artifact.hierarchy().levels())
            .map(|(level_release, level)| IndexedLevel {
                groups: level_release
                    .queries
                    .iter()
                    .position(|q| q.query == CoreQuery::PerGroupCounts)
                    .map(|query| {
                        let noisy = &level_release.queries[query].noisy_values;
                        let (left, right) = noisy.split_at(level.left().block_count() as usize);
                        IndexedGroups {
                            query,
                            left: IndexedSide::new(level.left(), left),
                            right: IndexedSide::new(level.right(), right),
                        }
                    }),
                histogram: level_release
                    .left_degree_histogram()
                    .map(|q| Arc::from(q.noisy_values.as_slice())),
            })
            .collect();
        Ok(Self {
            artifact,
            policy,
            levels,
        })
    }

    /// The underlying sealed artifact.
    pub fn artifact(&self) -> &ReleaseArtifact {
        &self.artifact
    }

    /// The monotone access policy over this artifact's levels.
    pub fn policy(&self) -> &AccessPolicy {
        &self.policy
    }

    /// Number of hierarchy levels in the artifact.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Resolves a level once for any number of lookups: its tables,
    /// and — when it released per-group counts — each side's partition
    /// and released masses, read in place from the artifact.
    ///
    /// The lookups here and in [`LevelView`] build their errors only on
    /// the failing branch: an error value built eagerly (`ok_or`) is
    /// dropped through a call on every successful lookup.
    fn view(&self, level: usize) -> Result<LevelView<'_>> {
        let Some(tables) = self.levels.get(level) else {
            return Err(ServeError::Core(CoreError::LevelOutOfRange {
                level,
                level_count: self.levels.len(),
            }));
        };
        let sides = tables.groups.as_ref().map(|groups| {
            let group_level = &self.artifact.hierarchy().levels()[level];
            let noisy = &self.artifact.release().levels()[level].queries[groups.query].noisy_values;
            let (left, right) = noisy.split_at(group_level.left().block_count() as usize);
            [
                SideView {
                    partition: group_level.left(),
                    mass: left,
                    tables: &groups.left,
                },
                SideView {
                    partition: group_level.right(),
                    mass: right,
                    tables: &groups.right,
                },
            ]
        });
        Ok(LevelView {
            level,
            histogram: tables.histogram.as_ref(),
            sides,
        })
    }

    /// Answers one typed [`Query`] at a level — the entry point
    /// [`AnswerService`](crate::AnswerService) routes through. Each
    /// variant is bit-identical, values and errors, to its core rescan
    /// baseline in [`gdp_core::answering`]:
    ///
    /// * [`Query::SubsetCount`] — the `O(|S|)` gather, with the
    ///   semantics of
    ///   [`SubsetCountEstimator::estimate`](gdp_core::answering::SubsetCountEstimator::estimate):
    ///   nodes must be in range and free of duplicates (first offender
    ///   in subset order wins), and terms accumulate per node in subset
    ///   order as `premass(g(v))`.
    /// * [`Query::GroupMass`] — the raw noisy mass the release published
    ///   for one group, read in place
    ///   ([`scan_group_mass`](gdp_core::answering::scan_group_mass)).
    /// * [`Query::SideTotal`] — every group's raw noisy mass summed in
    ///   group order, folded **once** at index build
    ///   ([`scan_side_total`](gdp_core::answering::scan_side_total)).
    /// * [`Query::DegreeHistogram`] — the released left-degree bins,
    ///   materialized once at index build; every answer clones the
    ///   `Arc`, never the data
    ///   ([`scan_degree_histogram`](gdp_core::answering::scan_degree_histogram)).
    ///
    /// # Errors
    ///
    /// In precedence order:
    /// * [`ServeError::Core`] with [`CoreError::LevelOutOfRange`] for an
    ///   unknown level.
    /// * [`ServeError::LevelNotIndexed`] when a subset, group-mass or
    ///   side-total query meets a level that released no per-group
    ///   counts; [`ServeError::StatisticNotReleased`] when a histogram
    ///   query asks for [`Side::Right`] (the pipeline releases left
    ///   histograms only) or a level that released none.
    /// * [`ServeError::Core`] with [`CoreError::SubsetNodeOutOfRange`] /
    ///   [`CoreError::DuplicateSubsetNode`] /
    ///   [`CoreError::GroupOutOfRange`] for the query's own parameters.
    pub fn answer(&self, level: usize, query: &Query) -> Result<TypedAnswer> {
        self.view(level)?.answer(query)
    }

    /// Answers a batch of typed queries at one level, in input order,
    /// resolving the level once for the whole batch.
    ///
    /// # Errors
    ///
    /// Same as [`IndexedRelease::answer`]: the error of the first
    /// failing query in input order (the queries after it are not
    /// answered). An empty batch answers nothing, whatever the level.
    pub fn answer_batch(&self, level: usize, queries: &[Query]) -> Result<Vec<TypedAnswer>> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let view = self.view(level)?;
        // Pre-sized slots, filled in input order: unlike `push`, the
        // loop carries no capacity check per answer.
        let mut answers = vec![TypedAnswer::Scalar(0.0); queries.len()];
        for (slot, query) in answers.iter_mut().zip(queries) {
            *slot = view.answer(query)?;
        }
        Ok(answers)
    }
}

/// One side of a level that released per-group counts: the artifact's
/// partition and released masses, read in place, next to the index's
/// own tables.
struct SideView<'a> {
    partition: &'a SidePartition,
    mass: &'a [f64],
    tables: &'a IndexedSide,
}

/// One level of an [`IndexedRelease`], resolved for lookups.
struct LevelView<'a> {
    level: usize,
    histogram: Option<&'a Arc<[f64]>>,
    /// Left then right, when the level released per-group counts.
    sides: Option<[SideView<'a>; 2]>,
}

impl LevelView<'_> {
    fn side(&self, side: Side) -> Result<&SideView<'_>> {
        let Some(sides) = &self.sides else {
            return Err(ServeError::LevelNotIndexed { level: self.level });
        };
        Ok(match side {
            Side::Left => &sides[0],
            Side::Right => &sides[1],
        })
    }

    fn estimate(&self, side: Side, nodes: &[u32]) -> Result<f64> {
        let view = self.side(side)?;
        // Hot path: the gather kernel — a validation pass over a
        // reusable scratch bitmap, then a check-free double gather in
        // subset order (see `crate::kernels` for the structure and the
        // reference algorithm it is tested against).
        let group_of = view.partition.assignment();
        match crate::kernels::gather_subset(group_of, &view.tables.premass, nodes) {
            Some(total) => Ok(total),
            None => {
                // Cold path: the canonical validation walk — shared with
                // the scan estimator — reports the error, so precedence
                // (first offender in subset order) is identical to the
                // baseline's by construction.
                let n = view.partition.node_count();
                Err(match gdp_core::answering::validate_subset(side, nodes, n) {
                    Err(err) => ServeError::Core(err),
                    // The gather and the canonical walk disagreeing on
                    // defectiveness would be a serving-layer bug; report it
                    // typed rather than killing the worker.
                    Ok(()) => ServeError::Internal(
                        "subset gather flagged a defect the canonical validation walk did not"
                            .to_string(),
                    ),
                })
            }
        }
    }

    fn group_mass(&self, side: Side, group: u32) -> Result<f64> {
        let mass = self.side(side)?.mass;
        match mass.get(group as usize) {
            Some(&value) => Ok(value),
            None => Err(ServeError::Core(CoreError::GroupOutOfRange {
                side,
                group,
                group_count: mass.len() as u32,
            })),
        }
    }

    fn side_total(&self, side: Side) -> Result<f64> {
        Ok(self.side(side)?.tables.total)
    }

    fn degree_histogram(&self, side: Side) -> Result<Arc<[f64]>> {
        let level = self.level;
        if side == Side::Right {
            return Err(ServeError::StatisticNotReleased {
                level,
                statistic: "right degree histogram".to_string(),
            });
        }
        self.histogram
            .cloned()
            .ok_or_else(|| ServeError::StatisticNotReleased {
                level,
                statistic: "degree histogram".to_string(),
            })
    }

    // Inlined into `answer_batch`'s loop: returning the `Result`
    // through memory per query otherwise costs more than the lookup.
    #[inline(always)]
    fn answer(&self, query: &Query) -> Result<TypedAnswer> {
        match query {
            Query::SubsetCount(q) => self.estimate(q.side, &q.nodes).map(TypedAnswer::Scalar),
            Query::GroupMass { side, group } => {
                self.group_mass(*side, *group).map(TypedAnswer::Scalar)
            }
            Query::DegreeHistogram { side } => {
                self.degree_histogram(*side).map(TypedAnswer::Histogram)
            }
            Query::SideTotal { side } => self.side_total(*side).map(TypedAnswer::Scalar),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdp_core::answering::{
        scan_degree_histogram, scan_group_mass, scan_side_total, SubsetCountEstimator,
    };
    use gdp_core::{
        DisclosureConfig, MultiLevelDiscloser, Query as CoreQuery, SpecializationConfig,
        Specializer,
    };
    use gdp_datagen::{DblpConfig, DblpGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Per-variant lookups, so each test names the variant it checks.
    impl IndexedRelease {
        fn estimate(&self, level: usize, side: Side, nodes: &[u32]) -> Result<f64> {
            self.view(level)?.estimate(side, nodes)
        }

        fn group_mass(&self, level: usize, side: Side, group: u32) -> Result<f64> {
            self.view(level)?.group_mass(side, group)
        }

        fn side_total(&self, level: usize, side: Side) -> Result<f64> {
            self.view(level)?.side_total(side)
        }

        fn degree_histogram(&self, level: usize, side: Side) -> Result<Arc<[f64]>> {
            self.view(level)?.degree_histogram(side)
        }
    }

    fn artifact() -> ReleaseArtifact {
        let mut rng = StdRng::seed_from_u64(80);
        let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
        let hierarchy = Specializer::new(SpecializationConfig::median(3).unwrap())
            .specialize(&graph, &mut rng)
            .unwrap();
        let release = MultiLevelDiscloser::new(
            DisclosureConfig::count_only(0.9, 1e-6)
                .unwrap()
                .with_queries(vec![
                    CoreQuery::TotalAssociations,
                    CoreQuery::PerGroupCounts,
                    CoreQuery::LeftDegreeHistogram { max_degree: 16 },
                ]),
        )
        .disclose(&graph, &hierarchy, &mut rng)
        .unwrap();
        ReleaseArtifact::seal("dblp", 1, hierarchy, release).unwrap()
    }

    #[test]
    fn gather_matches_scan_estimator_bitwise() {
        let artifact = artifact();
        let indexed = IndexedRelease::new(artifact.clone()).unwrap();
        for level in 0..artifact.level_count() {
            let scan = SubsetCountEstimator::new(
                artifact.release().level(level).unwrap(),
                artifact.hierarchy().level(level).unwrap(),
            )
            .unwrap();
            for subset in [
                vec![0u32],
                vec![0, 1, 2, 3, 4],
                (0..40).collect::<Vec<u32>>(),
                vec![7, 3, 19, 2],
            ] {
                for side in [Side::Left, Side::Right] {
                    let a = scan.estimate(side, &subset).unwrap();
                    let b = indexed.estimate(level, side, &subset).unwrap();
                    assert_eq!(a.to_bits(), b.to_bits(), "level {level} {side} {subset:?}");
                }
            }
        }
    }

    #[test]
    fn errors_mirror_scan_estimator() {
        let indexed = IndexedRelease::new(artifact()).unwrap();
        let n = indexed.artifact().manifest().left_nodes;
        assert!(matches!(
            indexed.estimate(1, Side::Left, &[n + 2]).unwrap_err(),
            ServeError::Core(CoreError::SubsetNodeOutOfRange { node, .. }) if node == n + 2
        ));
        assert!(matches!(
            indexed.estimate(1, Side::Left, &[4, 4]).unwrap_err(),
            ServeError::Core(CoreError::DuplicateSubsetNode { node: 4, .. })
        ));
        assert!(matches!(
            indexed.estimate(99, Side::Left, &[0]).unwrap_err(),
            ServeError::Core(CoreError::LevelOutOfRange { level: 99, .. })
        ));
    }

    #[test]
    fn level_without_per_group_counts_is_unindexed() {
        let mut rng = StdRng::seed_from_u64(81);
        let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
        let hierarchy = Specializer::new(SpecializationConfig::median(2).unwrap())
            .specialize(&graph, &mut rng)
            .unwrap();
        let release = MultiLevelDiscloser::new(DisclosureConfig::count_only(0.5, 1e-6).unwrap())
            .disclose(&graph, &hierarchy, &mut rng)
            .unwrap();
        let artifact = ReleaseArtifact::seal("dblp", 1, hierarchy, release).unwrap();
        let indexed = IndexedRelease::new(artifact).unwrap();
        assert!(matches!(
            indexed.estimate(0, Side::Left, &[0]).unwrap_err(),
            ServeError::LevelNotIndexed { level: 0 }
        ));
        assert!(matches!(
            indexed.group_mass(0, Side::Left, 0).unwrap_err(),
            ServeError::LevelNotIndexed { level: 0 }
        ));
        assert!(matches!(
            indexed.side_total(0, Side::Right).unwrap_err(),
            ServeError::LevelNotIndexed { level: 0 }
        ));
        // No histogram was released either: a typed refusal, not a panic.
        assert!(matches!(
            indexed.degree_histogram(0, Side::Left).unwrap_err(),
            ServeError::StatisticNotReleased { level: 0, .. }
        ));
    }

    #[test]
    fn batch_matches_sequential() {
        let indexed = IndexedRelease::new(artifact()).unwrap();
        let queries: Vec<Query> = (0..30u32)
            .map(|k| {
                Query::SubsetCount(crate::SubsetQuery {
                    side: Side::Left,
                    nodes: (0..=k).collect(),
                })
            })
            .collect();
        let batch = indexed.answer_batch(1, &queries).unwrap();
        for (query, got) in queries.iter().zip(&batch) {
            let Query::SubsetCount(subset) = query else {
                unreachable!("every query is a subset count")
            };
            assert_eq!(
                indexed
                    .estimate(1, Side::Left, &subset.nodes)
                    .unwrap()
                    .to_bits(),
                got.scalar().unwrap().to_bits()
            );
        }
    }

    #[test]
    fn typed_variants_match_scan_baselines_bitwise() {
        let artifact = artifact();
        let indexed = IndexedRelease::new(artifact.clone()).unwrap();
        for level in 0..artifact.level_count() {
            let rel = artifact.release().level(level).unwrap();
            let lvl = artifact.hierarchy().level(level).unwrap();
            for side in [Side::Left, Side::Right] {
                // Group masses.
                let groups = match side {
                    Side::Left => lvl.left().block_count(),
                    Side::Right => lvl.right().block_count(),
                };
                for group in 0..groups.min(8) {
                    let a = scan_group_mass(rel, lvl, side, group).unwrap();
                    let b = indexed.group_mass(level, side, group).unwrap();
                    assert_eq!(a.to_bits(), b.to_bits(), "level {level} {side} g{group}");
                }
                // Side totals.
                let a = scan_side_total(rel, lvl, side).unwrap();
                let b = indexed.side_total(level, side).unwrap();
                assert_eq!(a.to_bits(), b.to_bits(), "level {level} {side} total");
            }
            // Histograms: identical bins, and repeated serves share one
            // allocation.
            let a = scan_degree_histogram(rel, Side::Left).unwrap();
            let b = indexed.degree_histogram(level, Side::Left).unwrap();
            assert_eq!(a, &b[..]);
            let again = indexed.degree_histogram(level, Side::Left).unwrap();
            assert!(
                Arc::ptr_eq(&b, &again),
                "histogram must be served by reference"
            );
        }
    }

    #[test]
    fn typed_dispatch_routes_every_variant() {
        let indexed = IndexedRelease::new(artifact()).unwrap();
        let level = 1;
        let subset = crate::SubsetQuery {
            side: Side::Left,
            nodes: vec![0, 1, 2],
        };
        assert_eq!(
            indexed
                .answer(level, &Query::SubsetCount(subset.clone()))
                .unwrap()
                .scalar()
                .unwrap(),
            indexed.estimate(level, Side::Left, &subset.nodes).unwrap()
        );
        assert_eq!(
            indexed
                .answer(
                    level,
                    &Query::GroupMass {
                        side: Side::Right,
                        group: 1
                    }
                )
                .unwrap()
                .scalar()
                .unwrap(),
            indexed.group_mass(level, Side::Right, 1).unwrap()
        );
        assert_eq!(
            indexed
                .answer(level, &Query::SideTotal { side: Side::Left })
                .unwrap()
                .scalar()
                .unwrap(),
            indexed.side_total(level, Side::Left).unwrap()
        );
        let hist = indexed
            .answer(level, &Query::DegreeHistogram { side: Side::Left })
            .unwrap();
        assert_eq!(
            hist.histogram().unwrap(),
            &indexed.degree_histogram(level, Side::Left).unwrap()[..]
        );
        // Typed batch equals the sequential dispatch loop.
        let queries = vec![
            Query::SubsetCount(subset),
            Query::GroupMass {
                side: Side::Left,
                group: 0,
            },
            Query::DegreeHistogram { side: Side::Left },
            Query::SideTotal { side: Side::Right },
        ];
        let batch = indexed.answer_batch(level, &queries).unwrap();
        for (q, got) in queries.iter().zip(&batch) {
            assert_eq!(&indexed.answer(level, q).unwrap(), got);
        }
    }

    #[test]
    fn group_mass_rejects_out_of_range_group() {
        let indexed = IndexedRelease::new(artifact()).unwrap();
        let err = indexed.group_mass(2, Side::Left, 10_000).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Core(CoreError::GroupOutOfRange {
                side: Side::Left,
                group: 10_000,
                ..
            })
        ));
    }

    #[test]
    fn right_histogram_is_a_typed_refusal() {
        let indexed = IndexedRelease::new(artifact()).unwrap();
        assert!(matches!(
            indexed.degree_histogram(1, Side::Right).unwrap_err(),
            ServeError::StatisticNotReleased { level: 1, .. }
        ));
        // Level precedence beats side precedence, like the scan path
        // composed with `release.level(i)`.
        assert!(matches!(
            indexed.degree_histogram(99, Side::Right).unwrap_err(),
            ServeError::Core(CoreError::LevelOutOfRange { level: 99, .. })
        ));
    }

    #[test]
    fn side_total_is_bit_identical_to_estimator() {
        let artifact = artifact();
        let indexed = IndexedRelease::new(artifact.clone()).unwrap();
        let scan = SubsetCountEstimator::new(
            artifact.release().level(2).unwrap(),
            artifact.hierarchy().level(2).unwrap(),
        )
        .unwrap();
        for side in [Side::Left, Side::Right] {
            let a = indexed.side_total(2, side).unwrap();
            let b = scan.estimate_side_total(side);
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
