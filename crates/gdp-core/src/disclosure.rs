use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use gdp_graph::{BipartiteGraph, DegreeHistogram};
use gdp_mechanisms::{
    Delta, Epsilon, GaussianMechanism, GeometricMechanism, L1Sensitivity, L2Sensitivity,
    LaplaceMechanism, PrivacyBudget,
};

use crate::error::CoreError;
use crate::hierarchy::{GroupHierarchy, GroupLevel};
use crate::queries::{AnswerContext, Query};
use crate::release::{LevelRelease, MultiLevelRelease, QueryRelease};
use crate::stats::HierarchyStats;
use crate::Result;

/// Which noise primitive Phase 2 injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NoiseMechanism {
    /// Gaussian noise with the classic `σ = Δ₂√(2 ln(1.25/δ))/ε`
    /// calibration — the mechanism the paper cites. Requires `εg < 1`.
    GaussianClassic,
    /// Gaussian noise with the analytic (Balle–Wang) calibration; valid
    /// for every `εg > 0` and never noisier than the classic rule.
    GaussianAnalytic,
    /// Laplace noise calibrated to the L1 group sensitivity (`δ` unused).
    Laplace,
    /// Two-sided geometric noise calibrated to ⌈L1⌉ (integer outputs,
    /// `δ` unused).
    Geometric,
}

impl NoiseMechanism {
    /// Whether the mechanism consumes the `δ` part of the budget.
    pub fn uses_delta(self) -> bool {
        matches!(self, Self::GaussianClassic | Self::GaussianAnalytic)
    }
}

/// Configuration of Phase 2 (per-level noise injection).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisclosureConfig {
    /// The per-level group-privacy budget `εg`: **each** level release
    /// individually satisfies `(εg, δ)`-group-DP at its own level (the
    /// releases target different audiences and are not composed, matching
    /// the paper's multi-privilege model).
    pub epsilon_g: Epsilon,
    /// The per-level `δ` (used by the Gaussian mechanisms).
    pub delta: Delta,
    /// The noise primitive.
    pub mechanism: NoiseMechanism,
    /// The queries released at every level.
    pub queries: Vec<Query>,
}

impl DisclosureConfig {
    /// The paper's evaluation setup: the total-association count,
    /// Gaussian (classic) noise.
    ///
    /// # Errors
    ///
    /// Propagates invalid `ε`/`δ` values.
    pub fn count_only(epsilon_g: f64, delta: f64) -> Result<Self> {
        Ok(Self {
            epsilon_g: Epsilon::new(epsilon_g)?,
            delta: Delta::new(delta)?,
            mechanism: NoiseMechanism::GaussianClassic,
            queries: vec![Query::TotalAssociations],
        })
    }

    /// Replaces the mechanism.
    pub fn with_mechanism(mut self, mechanism: NoiseMechanism) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// Replaces the query list.
    pub fn with_queries(mut self, queries: Vec<Query>) -> Self {
        self.queries = queries;
        self
    }
}

/// Phase 2 of the paper's pipeline: walks every hierarchy level and
/// releases the configured queries with noise calibrated to that level's
/// group sensitivity.
///
/// ```
/// use gdp_core::{DisclosureConfig, MultiLevelDiscloser, SpecializationConfig, Specializer};
/// use gdp_datagen::{DblpConfig, DblpGenerator};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), gdp_core::CoreError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
/// let hierarchy = Specializer::new(SpecializationConfig::median(3)?)
///     .specialize(&graph, &mut rng)?;
/// let release = MultiLevelDiscloser::new(DisclosureConfig::count_only(0.5, 1e-6)?)
///     .disclose(&graph, &hierarchy, &mut rng)?;
/// // Coarser levels carry more noise: scales grow monotonically.
/// let scales: Vec<f64> = release
///     .levels()
///     .iter()
///     .map(|l| l.queries[0].noise_scale)
///     .collect();
/// assert!(scales.windows(2).all(|w| w[0] <= w[1] + 1e-9));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiLevelDiscloser {
    config: DisclosureConfig,
}

impl MultiLevelDiscloser {
    /// Creates a discloser from a configuration.
    pub fn new(config: DisclosureConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DisclosureConfig {
        &self.config
    }

    /// Releases every hierarchy level (finest first).
    ///
    /// The edge list is touched exactly **once**: all per-level answers
    /// and sensitivities come from a [`HierarchyStats`] cache (one edge
    /// sweep at the finest level, `O(cells)` rollups above it) plus a
    /// left-degree histogram hoisted out of the per-level loop. The
    /// released values and noise calibration are bit-identical to the
    /// per-level rescan path ([`Self::disclose_level`]); only where the
    /// exact statistics are computed changes, so the privacy analysis is
    /// untouched.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfig`] when no queries are configured.
    /// * Mechanism construction errors (e.g. classic Gaussian with
    ///   `εg ≥ 1`).
    pub fn disclose<R: Rng + ?Sized>(
        &self,
        graph: &BipartiteGraph,
        hierarchy: &GroupHierarchy,
        rng: &mut R,
    ) -> Result<MultiLevelRelease> {
        // One edge sweep for the whole disclosure: every level's answers
        // and sensitivities are served from this cache.
        let stats = HierarchyStats::compute(graph, hierarchy)?;
        let left_degree_hist = DegreeHistogram::from_degrees(&graph.left_degrees());
        self.disclose_from_stats(hierarchy, &stats, &left_degree_hist, rng)
    }

    /// Releases every hierarchy level from **pre-computed** statistics —
    /// the entry point of epoch-incremental disclosure, where
    /// [`HierarchyStats::apply_delta`] keeps the cache current across
    /// epochs and no edge sweep happens at all.
    ///
    /// Statistics computation consumes no randomness, so this draws the
    /// exact RNG stream [`Self::disclose`] draws: given equal stats and
    /// histogram, the two produce bit-identical releases from the same
    /// seed.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfig`] when no queries are configured.
    /// * [`CoreError::LevelOutOfRange`] when `stats` covers fewer levels
    ///   than the hierarchy.
    /// * Mechanism construction errors (e.g. classic Gaussian with
    ///   `εg ≥ 1`).
    pub fn disclose_from_stats<R: Rng + ?Sized>(
        &self,
        hierarchy: &GroupHierarchy,
        stats: &HierarchyStats,
        left_degree_hist: &DegreeHistogram,
        rng: &mut R,
    ) -> Result<MultiLevelRelease> {
        if self.config.queries.is_empty() {
            return Err(CoreError::InvalidConfig(
                "disclosure needs at least one query".to_string(),
            ));
        }
        // Levels are released to disjoint audiences, each calibrated to
        // its own sensitivity. Each level draws from its own stream,
        // seeded in level order from the master RNG.
        let levels = hierarchy
            .levels()
            .iter()
            .enumerate()
            .map(|(i, level)| {
                let mut level_rng = StdRng::seed_from_u64(rng.gen::<u64>());
                let ctx = AnswerContext {
                    level,
                    stats: stats.level(i)?,
                    left_degree_hist,
                };
                self.disclose_level_cached(&ctx, i, &mut level_rng)
            })
            .collect::<Result<Vec<LevelRelease>>>()?;
        MultiLevelRelease::new(
            self.config.mechanism,
            self.config.epsilon_g.get(),
            self.config.delta.get(),
            levels,
        )
    }

    /// Releases a single level `I_{L, level_index}` by scanning the
    /// graph directly (the per-level rescan path).
    ///
    /// [`Self::disclose`] does **not** call this — it serves answers
    /// from cached statistics via [`Self::disclose_level_cached`] — but
    /// the two produce bit-identical releases from the same RNG stream,
    /// which the equivalence tests pin.
    ///
    /// # Errors
    ///
    /// Mechanism construction errors (invalid parameters for the chosen
    /// mechanism).
    pub fn disclose_level<R: Rng + ?Sized>(
        &self,
        graph: &BipartiteGraph,
        level: &GroupLevel,
        level_index: usize,
        rng: &mut R,
    ) -> Result<LevelRelease> {
        let answers: Vec<_> = self
            .config
            .queries
            .iter()
            .map(|q| q.answer(graph, level))
            .collect();
        self.release_level(level, level_index, &answers, rng)
    }

    /// Releases a single level from **cached** statistics — no edge
    /// scans; see [`Query::answer_cached`].
    ///
    /// # Errors
    ///
    /// Mechanism construction errors (invalid parameters for the chosen
    /// mechanism).
    pub fn disclose_level_cached<R: Rng + ?Sized>(
        &self,
        ctx: &AnswerContext<'_>,
        level_index: usize,
        rng: &mut R,
    ) -> Result<LevelRelease> {
        let answers: Vec<_> = self
            .config
            .queries
            .iter()
            .map(|q| q.answer_cached(ctx))
            .collect();
        self.release_level(ctx.level, level_index, &answers, rng)
    }

    /// Noises pre-computed answers into a [`LevelRelease`] — the shared
    /// tail of both per-level paths, so they stay bitwise equivalent.
    fn release_level<R: Rng + ?Sized>(
        &self,
        level: &GroupLevel,
        level_index: usize,
        answers: &[crate::queries::QueryAnswer],
        rng: &mut R,
    ) -> Result<LevelRelease> {
        let mut queries = Vec::with_capacity(self.config.queries.len());
        for (query, answer) in self.config.queries.iter().zip(answers) {
            let sensitivity = answer.sensitivity.floored();
            let (noisy_values, noise_scale) =
                self.randomize(&answer.values, sensitivity.l1, sensitivity.l2, rng)?;
            queries.push(QueryRelease {
                query: *query,
                noisy_values,
                noise_scale,
                sensitivity,
            });
        }
        Ok(LevelRelease {
            level: level_index,
            group_count: level.group_count(),
            max_group_size: level.max_group_size(),
            budget: PrivacyBudget {
                epsilon: self.config.epsilon_g,
                delta: if self.config.mechanism.uses_delta() {
                    self.config.delta
                } else {
                    Delta::ZERO
                },
            },
            queries,
        })
    }

    /// Applies the configured mechanism to one answer vector; returns the
    /// noisy vector and the noise scale used.
    ///
    /// Routed through the mechanisms' batched slice APIs: the mechanism
    /// is calibrated **once** per answer vector and the whole vector is
    /// perturbed in one `randomize_slice` pass.
    fn randomize<R: Rng + ?Sized>(
        &self,
        values: &[f64],
        l1: f64,
        l2: f64,
        rng: &mut R,
    ) -> Result<(Vec<f64>, f64)> {
        let eps = self.config.epsilon_g;
        match self.config.mechanism {
            NoiseMechanism::GaussianClassic => {
                let mech =
                    GaussianMechanism::classic(eps, self.config.delta, L2Sensitivity::new(l2)?)?;
                Ok((mech.randomize_vec(values, rng), mech.sigma()))
            }
            NoiseMechanism::GaussianAnalytic => {
                let mech =
                    GaussianMechanism::analytic(eps, self.config.delta, L2Sensitivity::new(l2)?)?;
                Ok((mech.randomize_vec(values, rng), mech.sigma()))
            }
            NoiseMechanism::Laplace => {
                let mech = LaplaceMechanism::new(eps, L1Sensitivity::new(l1)?)?;
                Ok((mech.randomize_vec(values, rng), mech.scale()))
            }
            NoiseMechanism::Geometric => {
                let mech = GeometricMechanism::new(eps, L1Sensitivity::new(l1.ceil())?)?;
                let mut ints: Vec<i64> = values.iter().map(|v| v.round() as i64).collect();
                mech.randomize_slice(&mut ints, rng);
                Ok((ints.into_iter().map(|v| v as f64).collect(), mech.alpha()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specialize::{SpecializationConfig, Specializer};
    use gdp_graph::{GraphBuilder, LeftId, RightId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph() -> BipartiteGraph {
        let mut b = GraphBuilder::new(32, 32);
        for l in 0..32u32 {
            for k in 0..3u32 {
                b.add_edge(LeftId::new(l), RightId::new((l * 5 + k * 11) % 32))
                    .unwrap();
            }
        }
        b.build()
    }

    fn hierarchy(g: &BipartiteGraph) -> GroupHierarchy {
        Specializer::new(SpecializationConfig::median(3).unwrap())
            .specialize(g, &mut StdRng::seed_from_u64(1))
            .unwrap()
    }

    #[test]
    fn releases_every_level_with_growing_noise() {
        let g = graph();
        let h = hierarchy(&g);
        let release = MultiLevelDiscloser::new(DisclosureConfig::count_only(0.5, 1e-6).unwrap())
            .disclose(&g, &h, &mut StdRng::seed_from_u64(2))
            .unwrap();
        assert_eq!(release.levels().len(), h.level_count());
        let scales: Vec<f64> = release
            .levels()
            .iter()
            .map(|l| l.queries[0].noise_scale)
            .collect();
        for w in scales.windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "scales not monotone: {scales:?}");
        }
        // Budget metadata matches config.
        for l in release.levels() {
            assert_eq!(l.budget.epsilon.get(), 0.5);
            assert_eq!(l.budget.delta.get(), 1e-6);
        }
    }

    #[test]
    fn every_mechanism_produces_finite_output() {
        let g = graph();
        let h = hierarchy(&g);
        for mech in [
            NoiseMechanism::GaussianClassic,
            NoiseMechanism::GaussianAnalytic,
            NoiseMechanism::Laplace,
            NoiseMechanism::Geometric,
        ] {
            let config = DisclosureConfig::count_only(0.5, 1e-6)
                .unwrap()
                .with_mechanism(mech)
                .with_queries(vec![
                    Query::TotalAssociations,
                    Query::PerGroupCounts,
                    Query::LeftDegreeHistogram { max_degree: 8 },
                ]);
            let release = MultiLevelDiscloser::new(config)
                .disclose(&g, &h, &mut StdRng::seed_from_u64(3))
                .unwrap();
            for level in release.levels() {
                assert_eq!(level.queries.len(), 3);
                for q in &level.queries {
                    assert!(q.noisy_values.iter().all(|v| v.is_finite()), "{mech:?}");
                    assert!(q.noise_scale.is_finite());
                }
            }
        }
    }

    #[test]
    fn laplace_budget_reports_pure_epsilon() {
        let g = graph();
        let h = hierarchy(&g);
        let config = DisclosureConfig::count_only(0.5, 1e-6)
            .unwrap()
            .with_mechanism(NoiseMechanism::Laplace);
        let release = MultiLevelDiscloser::new(config)
            .disclose(&g, &h, &mut StdRng::seed_from_u64(4))
            .unwrap();
        for l in release.levels() {
            assert!(l.budget.delta.is_pure());
        }
    }

    #[test]
    fn classic_gaussian_rejects_epsilon_ge_one() {
        let g = graph();
        let h = hierarchy(&g);
        let config = DisclosureConfig::count_only(1.5, 1e-6).unwrap();
        let err = MultiLevelDiscloser::new(config)
            .disclose(&g, &h, &mut StdRng::seed_from_u64(5))
            .unwrap_err();
        assert!(matches!(err, CoreError::Mechanism(_)));
        // The analytic calibration accepts the same εg.
        let config = DisclosureConfig::count_only(1.5, 1e-6)
            .unwrap()
            .with_mechanism(NoiseMechanism::GaussianAnalytic);
        assert!(MultiLevelDiscloser::new(config)
            .disclose(&g, &h, &mut StdRng::seed_from_u64(5))
            .is_ok());
    }

    #[test]
    fn empty_query_list_rejected() {
        let g = graph();
        let h = hierarchy(&g);
        let config = DisclosureConfig::count_only(0.5, 1e-6)
            .unwrap()
            .with_queries(vec![]);
        assert!(matches!(
            MultiLevelDiscloser::new(config).disclose(&g, &h, &mut StdRng::seed_from_u64(6)),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn geometric_outputs_are_integers() {
        let g = graph();
        let h = hierarchy(&g);
        let config = DisclosureConfig::count_only(0.5, 1e-6)
            .unwrap()
            .with_mechanism(NoiseMechanism::Geometric);
        let release = MultiLevelDiscloser::new(config)
            .disclose(&g, &h, &mut StdRng::seed_from_u64(7))
            .unwrap();
        for l in release.levels() {
            for q in &l.queries {
                for v in &q.noisy_values {
                    assert_eq!(v.fract(), 0.0, "geometric released non-integer {v}");
                }
            }
        }
    }

    #[test]
    fn disclosure_is_deterministic_under_seed() {
        let g = graph();
        let h = hierarchy(&g);
        let discloser = MultiLevelDiscloser::new(DisclosureConfig::count_only(0.5, 1e-6).unwrap());
        let a = discloser
            .disclose(&g, &h, &mut StdRng::seed_from_u64(8))
            .unwrap();
        let b = discloser
            .disclose(&g, &h, &mut StdRng::seed_from_u64(8))
            .unwrap();
        assert_eq!(a, b);
    }
}
