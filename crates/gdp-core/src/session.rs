use std::sync::Arc;

use rand::Rng;

use gdp_graph::{BipartiteGraph, DegreeHistogram, EdgeDelta};
use gdp_mechanisms::{Delta, PrivacyAccountant, PrivacyBudget};

use crate::artifact::{ArtifactFormat, ManifestLedger, ReleaseArtifact};
use crate::disclosure::{DisclosureConfig, MultiLevelDiscloser};
use crate::error::CoreError;
use crate::hierarchy::GroupHierarchy;
use crate::release::MultiLevelRelease;
use crate::stats::HierarchyStats;
use crate::Result;

/// A budget-enforced, repeatable disclosure session — the "weekly
/// release" deployment story.
///
/// The paper's pipeline publishes once; a real service re-publishes as
/// data or audiences change, and the cumulative privacy loss **to the
/// same audience** must stay within an authorized total. `DisclosureSession`
/// owns that accounting: every disclosure is charged to one
/// [`PrivacyAccountant`] under sequential composition, and every sealed
/// artifact carries the ledger's state after its charge
/// ([`ManifestLedger`]).
///
/// One disclosure of the multi-level bundle charges `εg` **once**, not
/// once per level: the levels partition their audiences in the paper's
/// model, and within a release each level is a separate output of the
/// same mechanism run (see `release` docs). Sessions model the repeated
/// exposure of the *whole bundle* over time.
///
/// ```
/// use gdp_core::{DisclosureConfig, DisclosureSession, SpecializationConfig, Specializer};
/// use gdp_datagen::{DblpConfig, DblpGenerator};
/// use gdp_mechanisms::PrivacyBudget;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), gdp_core::CoreError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
/// let hierarchy = Specializer::new(SpecializationConfig::median(2)?)
///     .specialize(&graph, &mut rng)?;
///
/// let total = PrivacyBudget::new(1.0, 1e-5)?;
/// let config = DisclosureConfig::count_only(0.4, 1e-6)?;
/// let mut session = DisclosureSession::new(graph, hierarchy, total);
/// session.disclose(&config, &mut rng)?; // spends (0.4, 1e-6)
/// session.disclose(&config, &mut rng)?; // spends (0.8, 2e-6) total
/// // A third disclosure would exceed ε = 1.0 and is refused.
/// assert!(session.disclose(&config, &mut rng).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DisclosureSession {
    graph: BipartiteGraph,
    /// Fixed for the session's life and shared with every artifact it
    /// publishes: an epoch never copies it.
    hierarchy: Arc<GroupHierarchy>,
    accountant: PrivacyAccountant,
    releases_made: usize,
    /// Edge-sweep statistics cache, filled on first disclosure and kept
    /// current incrementally by [`DisclosureSession::publish_next`] —
    /// the reason an epoch-N+1 publish never re-sweeps the whole graph.
    stats: Option<HierarchyStats>,
    /// `(dataset, epoch)` of the most recent successful publish — the
    /// base [`DisclosureSession::publish_next`] extends.
    last_published: Option<(String, u64)>,
}

impl DisclosureSession {
    /// Opens a session over a fixed graph and hierarchy with an
    /// authorized total budget. The hierarchy may come by value or as a
    /// shared [`Arc`].
    pub fn new(
        graph: BipartiteGraph,
        hierarchy: impl Into<Arc<GroupHierarchy>>,
        total: PrivacyBudget,
    ) -> Self {
        Self {
            graph,
            hierarchy: hierarchy.into(),
            accountant: PrivacyAccountant::new(total),
            releases_made: 0,
            stats: None,
            last_published: None,
        }
    }

    /// The sequential-composition ledger.
    pub fn accountant(&self) -> &PrivacyAccountant {
        &self.accountant
    }

    /// Number of successful disclosures so far.
    pub fn releases_made(&self) -> usize {
        self.releases_made
    }

    /// Budget still spendable under sequential composition.
    pub fn remaining(&self) -> Option<PrivacyBudget> {
        self.accountant.remaining()
    }

    /// Runs one multi-level disclosure, charging the session first.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Mechanism`] with `BudgetExhausted` if the charge
    ///   would exceed the authorized total (nothing is released).
    /// * Any disclosure error (the charge **is** recorded in that case —
    ///   a failed randomized release must still be assumed observed).
    pub fn disclose<R: Rng + ?Sized>(
        &mut self,
        config: &DisclosureConfig,
        rng: &mut R,
    ) -> Result<MultiLevelRelease> {
        self.accountant.charge(Self::epoch_charge(config))?;
        self.disclose_charged(config, rng)
    }

    /// What one disclosure of `config` costs the ledger.
    fn epoch_charge(config: &DisclosureConfig) -> PrivacyBudget {
        PrivacyBudget {
            epsilon: config.epsilon_g,
            delta: if config.mechanism.uses_delta() {
                config.delta
            } else {
                Delta::ZERO
            },
        }
    }

    /// Fills the statistics cache from the current graph if absent.
    fn ensure_stats(&mut self) -> Result<()> {
        if self.stats.is_none() {
            self.stats = Some(HierarchyStats::compute(&self.graph, &self.hierarchy)?);
        }
        Ok(())
    }

    /// The post-charge half of a disclosure: release from the (cached)
    /// statistics. The budget charge has already been taken — a failure
    /// here must still be assumed observed, so the charge stands.
    fn disclose_charged<R: Rng + ?Sized>(
        &mut self,
        config: &DisclosureConfig,
        rng: &mut R,
    ) -> Result<MultiLevelRelease> {
        self.ensure_stats()?;
        let stats = self.stats.as_ref().expect("stats just ensured");
        let left_degree_hist = DegreeHistogram::from_degrees(&self.graph.left_degrees());
        let release = MultiLevelDiscloser::new(config.clone()).disclose_from_stats(
            &self.hierarchy,
            stats,
            &left_degree_hist,
            rng,
        )?;
        self.releases_made += 1;
        Ok(release)
    }

    /// The cross-epoch accounting record stamped into a sealed
    /// manifest, reflecting the ledger **after** this epoch's charge.
    fn ledger_snapshot(&self, charge: PrivacyBudget) -> ManifestLedger {
        let total = self.accountant.total();
        ManifestLedger {
            epoch_epsilon: charge.epsilon.get(),
            epoch_delta: charge.delta.get(),
            cumulative_epsilon: self.accountant.spent_epsilon(),
            cumulative_delta: self.accountant.spent_delta(),
            total_epsilon: total.epsilon.get(),
            total_delta: total.delta.get(),
            releases: self.releases_made as u64,
        }
    }

    /// The hierarchy the session discloses over (the public structure a
    /// published artifact ships alongside the noisy releases).
    pub fn hierarchy(&self) -> &GroupHierarchy {
        &self.hierarchy
    }

    /// The association graph as of the last accepted epoch — what the
    /// next [`DisclosureSession::publish_next`] delta must be expressed
    /// against (epoch ingest tooling diffs incoming data with this).
    pub fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// Runs one disclosure and seals it into a publishable
    /// [`ReleaseArtifact`] for `dataset` at `epoch` — the serving-side
    /// entry point: the artifact is what gets written to disk, loaded
    /// by `gdp-serve` stores, and answered from under graded
    /// privileges. The session is charged exactly as by
    /// [`DisclosureSession::disclose`]; everything downstream of the
    /// sealed artifact is budget-free post-processing.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Artifact`] when `dataset` is empty — checked
    ///   **before** anything is charged or randomized, so a malformed
    ///   publish request never burns budget.
    /// * Everything [`DisclosureSession::disclose`] can return
    ///   (including `BudgetExhausted`).
    pub fn publish<R: Rng + ?Sized>(
        &mut self,
        config: &DisclosureConfig,
        dataset: &str,
        epoch: u64,
        rng: &mut R,
    ) -> Result<ReleaseArtifact> {
        if dataset.is_empty() {
            return Err(CoreError::Artifact(
                "dataset name must be non-empty".to_string(),
            ));
        }
        let charge = Self::epoch_charge(config);
        let release = self.disclose(config, rng)?;
        let artifact = ReleaseArtifact::seal_with_ledger(
            dataset,
            epoch,
            Arc::clone(&self.hierarchy),
            release,
            self.ledger_snapshot(charge),
        )?;
        self.last_published = Some((dataset.to_string(), epoch));
        Ok(artifact)
    }

    /// The `(dataset, epoch)` of the most recent successful publish —
    /// the base epoch [`DisclosureSession::publish_next`] extends.
    pub fn last_published(&self) -> Option<(&str, u64)> {
        self.last_published.as_ref().map(|(d, e)| (d.as_str(), *e))
    }

    /// Publishes epoch `N+1` of `dataset` from epoch `N` plus an edge
    /// delta — the epoch-incremental path. The delta is applied to the
    /// session's graph and, crucially, to the cached
    /// [`HierarchyStats`] via dirty-row rollup
    /// ([`HierarchyStats::apply_delta`]), so no full edge sweep
    /// happens; the release drawn is **bit-identical** to what a full
    /// recompute over the post-delta graph would produce with the same
    /// RNG (statistics consume no randomness — see
    /// [`MultiLevelDiscloser::disclose_from_stats`]).
    ///
    /// Order of operations protects both the budget and the session:
    ///
    /// 1. the epoch's charge is **prechecked** against the ledger
    ///    without recording — an over-budget epoch is refused with
    ///    [`gdp_mechanisms::MechanismError::BudgetExhausted`] (wrapped
    ///    in [`CoreError::Mechanism`]) and the session is left exactly
    ///    as it was, delta **not** applied;
    /// 2. the delta is applied to the graph **in place**
    ///    ([`BipartiteGraph::apply_delta_in_place`] is atomic: a
    ///    refused batch leaves the adjacency untouched) — a malformed
    ///    batch never burns budget;
    /// 3. only then is the charge recorded (guaranteed to fit by the
    ///    precheck), the statistics cache advanced, and the release
    ///    drawn and sealed, with the chain's cumulative spend stamped
    ///    into the manifest's [`ManifestLedger`].
    ///
    /// # Errors
    ///
    /// * [`CoreError::Artifact`] when `dataset` is empty.
    /// * [`CoreError::NoBaseEpoch`] when nothing has been published for
    ///   `dataset` in this session — publish epoch 0 with
    ///   [`DisclosureSession::publish`] first.
    /// * [`CoreError::Graph`] for an invalid delta (out-of-range
    ///   endpoint, duplicate, insert of a present edge, delete of an
    ///   absent one) — nothing charged.
    /// * [`CoreError::Mechanism`] (`BudgetExhausted`) when the chain's
    ///   cumulative spend cannot absorb another epoch — nothing
    ///   changed.
    /// * Any disclosure error (the charge **is** recorded in that
    ///   case, as for [`DisclosureSession::disclose`]).
    pub fn publish_next<R: Rng + ?Sized>(
        &mut self,
        config: &DisclosureConfig,
        dataset: &str,
        delta: &EdgeDelta,
        rng: &mut R,
    ) -> Result<ReleaseArtifact> {
        if dataset.is_empty() {
            return Err(CoreError::Artifact(
                "dataset name must be non-empty".to_string(),
            ));
        }
        let base = match &self.last_published {
            Some((d, e)) if d == dataset => *e,
            _ => {
                return Err(CoreError::NoBaseEpoch {
                    dataset: dataset.to_string(),
                })
            }
        };
        let epoch = base + 1;
        // Refuse an over-budget epoch before touching anything; the
        // recorded charge below then cannot fail.
        let charge = Self::epoch_charge(config);
        self.accountant.check(charge)?;
        // Validate-and-apply in one pass: `apply_delta_in_place` builds
        // into recycled scratch and swaps on success, so a refused
        // batch leaves the adjacency untouched and nothing is charged.
        self.graph.apply_delta_in_place(delta)?;
        self.accountant.charge(charge)?;
        // Committed: advance the statistics cache incrementally. A
        // cache that fails to advance (it cannot, for a delta the graph
        // just accepted, but defend anyway) is dropped and rebuilt from
        // the updated graph instead of serving poisoned rows.
        if let Some(stats) = self.stats.as_mut() {
            if stats.apply_delta(&self.hierarchy, delta).is_err() {
                self.stats = None;
            }
        }
        let release = self.disclose_charged(config, rng)?;
        let artifact = ReleaseArtifact::seal_with_ledger(
            dataset,
            epoch,
            Arc::clone(&self.hierarchy),
            release,
            self.ledger_snapshot(charge),
        )?;
        self.last_published = Some((dataset.to_string(), epoch));
        Ok(artifact)
    }

    /// [`DisclosureSession::publish_next`], then durably write the
    /// sealed artifact into `dir` under its canonical file name in
    /// `format`, exactly as [`DisclosureSession::publish_to_dir_as`]
    /// does for a base epoch. Returns the artifact and its path.
    ///
    /// # Errors
    ///
    /// * Everything [`DisclosureSession::publish_next`] can return.
    /// * [`CoreError::Graph`] (`GraphError::Io`) when the directory
    ///   cannot be created or the atomic write fails (the charge
    ///   stands; the caller still holds the artifact to retry).
    pub fn publish_next_to_dir_as<R: Rng + ?Sized>(
        &mut self,
        config: &DisclosureConfig,
        dataset: &str,
        delta: &EdgeDelta,
        dir: impl AsRef<std::path::Path>,
        format: ArtifactFormat,
        rng: &mut R,
    ) -> Result<(ReleaseArtifact, std::path::PathBuf)> {
        let artifact = self.publish_next(config, dataset, delta, rng)?;
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(gdp_graph::GraphError::from)?;
        let path = dir.join(ReleaseArtifact::canonical_file_name_as(
            dataset,
            artifact.epoch(),
            format,
        ));
        artifact.save_atomic(&path)?;
        Ok((artifact, path))
    }

    /// [`DisclosureSession::publish`], then durably write the sealed
    /// artifact into `dir` under its canonical file name
    /// ([`ReleaseArtifact::canonical_file_name_as`]) via the crash-safe
    /// atomic-write discipline ([`ReleaseArtifact::save_atomic`]).
    /// Returns the artifact and the path it now lives at. `format` is
    /// always [`ArtifactFormat::Binary`], the one format there is.
    ///
    /// The budget is charged by the disclosure itself; if the *write*
    /// fails afterwards the charge stands (noise was already drawn and
    /// the caller still holds the artifact to retry persisting).
    ///
    /// # Errors
    ///
    /// * Everything [`DisclosureSession::publish`] can return.
    /// * [`CoreError::Graph`] (`GraphError::Io`) when the directory
    ///   cannot be created or the atomic write fails.
    pub fn publish_to_dir_as<R: Rng + ?Sized>(
        &mut self,
        config: &DisclosureConfig,
        dataset: &str,
        epoch: u64,
        dir: impl AsRef<std::path::Path>,
        format: ArtifactFormat,
        rng: &mut R,
    ) -> Result<(ReleaseArtifact, std::path::PathBuf)> {
        let artifact = self.publish(config, dataset, epoch, rng)?;
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(gdp_graph::GraphError::from)?;
        let path = dir.join(ReleaseArtifact::canonical_file_name_as(
            dataset, epoch, format,
        ));
        artifact.save_atomic(&path)?;
        Ok((artifact, path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disclosure::NoiseMechanism;
    use crate::specialize::{SpecializationConfig, Specializer};
    use gdp_datagen::{DblpConfig, DblpGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn session(total_eps: f64) -> DisclosureSession {
        let mut rng = StdRng::seed_from_u64(60);
        let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
        let hierarchy = Specializer::new(SpecializationConfig::median(2).unwrap())
            .specialize(&graph, &mut rng)
            .unwrap();
        DisclosureSession::new(
            graph,
            hierarchy,
            PrivacyBudget::new(total_eps, 1e-4).unwrap(),
        )
    }

    #[test]
    fn budget_enforced_across_disclosures() {
        let mut s = session(1.0);
        let config = DisclosureConfig::count_only(0.4, 1e-6).unwrap();
        let mut rng = StdRng::seed_from_u64(61);
        assert!(s.disclose(&config, &mut rng).is_ok());
        assert!(s.disclose(&config, &mut rng).is_ok());
        let err = s.disclose(&config, &mut rng).unwrap_err();
        assert!(matches!(err, CoreError::Mechanism(_)));
        assert_eq!(s.releases_made(), 2);
        assert!((s.accountant().spent_epsilon() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn remaining_shrinks_per_release() {
        let mut s = session(1.0);
        let config = DisclosureConfig::count_only(0.3, 1e-6).unwrap();
        let mut rng = StdRng::seed_from_u64(62);
        let before = s.remaining().unwrap().epsilon.get();
        s.disclose(&config, &mut rng).unwrap();
        let after = s.remaining().unwrap().epsilon.get();
        assert!((before - after - 0.3).abs() < 1e-9);
    }

    #[test]
    fn laplace_releases_do_not_touch_rdp_ledger() {
        let mut s = session(2.0);
        let config = DisclosureConfig::count_only(0.5, 1e-6)
            .unwrap()
            .with_mechanism(NoiseMechanism::Laplace);
        let mut rng = StdRng::seed_from_u64(64);
        s.disclose(&config, &mut rng).unwrap();
        // Laplace charges pure ε: the δ ledger stays at zero.
        assert!((s.accountant().spent_epsilon() - 0.5).abs() < 1e-12);
        assert_eq!(s.accountant().spent_delta(), 0.0);
    }

    #[test]
    fn publish_charges_and_seals() {
        let mut s = session(1.0);
        let config = DisclosureConfig::count_only(0.4, 1e-6).unwrap();
        let mut rng = StdRng::seed_from_u64(66);
        let artifact = s.publish(&config, "dblp", 12, &mut rng).unwrap();
        assert_eq!(artifact.dataset(), "dblp");
        assert_eq!(artifact.epoch(), 12);
        assert_eq!(artifact.level_count(), s.hierarchy().level_count());
        assert_eq!(s.releases_made(), 1);
        assert!((s.accountant().spent_epsilon() - 0.4).abs() < 1e-12);
        // Empty dataset names are refused up front: nothing is
        // disclosed and nothing is charged.
        assert!(s.publish(&config, "", 13, &mut rng).is_err());
        assert_eq!(s.releases_made(), 1);
        assert!((s.accountant().spent_epsilon() - 0.4).abs() < 1e-12);
    }

    fn graph_and_hierarchy() -> (BipartiteGraph, GroupHierarchy) {
        let mut rng = StdRng::seed_from_u64(60);
        let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
        let hierarchy = Specializer::new(SpecializationConfig::median(2).unwrap())
            .specialize(&graph, &mut rng)
            .unwrap();
        (graph, hierarchy)
    }

    /// A small mixed batch valid against `graph`: delete three present
    /// edges, insert two absent ones.
    fn sample_delta(graph: &BipartiteGraph) -> EdgeDelta {
        use gdp_graph::{LeftId, RightId};
        let deletes: Vec<_> = graph.edges().take(3).collect();
        let mut inserts = Vec::new();
        'outer: for l in 0..graph.left_count() {
            for r in 0..graph.right_count() {
                let (l, r) = (LeftId::new(l), RightId::new(r));
                if !graph.has_edge(l, r) {
                    inserts.push((l, r));
                    if inserts.len() == 2 {
                        break 'outer;
                    }
                }
            }
        }
        assert_eq!(inserts.len(), 2, "tiny graph is not complete");
        EdgeDelta::new(inserts, deletes)
    }

    #[test]
    fn publish_next_is_bit_identical_to_full_recompute() {
        let (graph, hierarchy) = graph_and_hierarchy();
        let total = PrivacyBudget::new(2.0, 1e-4).unwrap();
        let config = DisclosureConfig::count_only(0.4, 1e-6).unwrap();
        let delta = sample_delta(&graph);

        // Incremental chain: epoch 7, then epoch 8 via the delta.
        let mut incremental = DisclosureSession::new(graph.clone(), hierarchy.clone(), total);
        incremental
            .publish(&config, "dblp", 7, &mut StdRng::seed_from_u64(91))
            .unwrap();
        let next = incremental
            .publish_next(&config, "dblp", &delta, &mut StdRng::seed_from_u64(92))
            .unwrap();
        assert_eq!(next.epoch(), 8);
        assert_eq!(incremental.last_published(), Some(("dblp", 8)));

        // Full-recompute baseline over the post-delta graph, same seed.
        let post = graph.apply_delta(&delta).unwrap();
        let mut full = DisclosureSession::new(post, hierarchy, total);
        let base = full
            .publish(&config, "dblp", 8, &mut StdRng::seed_from_u64(92))
            .unwrap();
        assert_eq!(next.release(), base.release(), "bit-identical releases");
        assert_eq!(next.hierarchy(), base.hierarchy());

        // The incremental manifest carries the two-epoch ledger.
        let ledger = next.manifest().ledger.as_ref().unwrap();
        assert_eq!(ledger.releases, 2);
        assert!((ledger.epoch_epsilon - 0.4).abs() < 1e-12);
        assert!((ledger.cumulative_epsilon - 0.8).abs() < 1e-12);
        assert!((ledger.total_epsilon - 2.0).abs() < 1e-12);
        assert!(!ledger.exhausted());
    }

    #[test]
    fn publish_next_requires_a_base_epoch() {
        let (graph, hierarchy) = graph_and_hierarchy();
        let config = DisclosureConfig::count_only(0.4, 1e-6).unwrap();
        let delta = sample_delta(&graph);
        let mut s =
            DisclosureSession::new(graph, hierarchy, PrivacyBudget::new(2.0, 1e-4).unwrap());
        let mut rng = StdRng::seed_from_u64(93);
        // No publish yet: refused, nothing charged.
        let err = s
            .publish_next(&config, "dblp", &delta, &mut rng)
            .unwrap_err();
        assert!(matches!(err, CoreError::NoBaseEpoch { ref dataset } if dataset == "dblp"));
        assert_eq!(s.accountant().spent_epsilon(), 0.0);
        assert_eq!(s.releases_made(), 0);
        // A publish for a *different* dataset is not a base either.
        s.publish(&config, "other", 0, &mut rng).unwrap();
        let err = s
            .publish_next(&config, "dblp", &delta, &mut rng)
            .unwrap_err();
        assert!(matches!(err, CoreError::NoBaseEpoch { .. }));
    }

    #[test]
    fn epochs_share_the_session_hierarchy() {
        let (graph, hierarchy) = graph_and_hierarchy();
        let config = DisclosureConfig::count_only(0.4, 1e-6).unwrap();
        let delta = sample_delta(&graph);
        let mut s =
            DisclosureSession::new(graph, hierarchy, PrivacyBudget::new(2.0, 1e-4).unwrap());
        let mut rng = StdRng::seed_from_u64(94);
        s.publish(&config, "dblp", 0, &mut rng).unwrap();
        let a = s.publish_next(&config, "dblp", &delta, &mut rng).unwrap();
        // The second epoch undoes the first.
        let undo = EdgeDelta::new(delta.deletes().to_vec(), delta.inserts().to_vec());
        let b = s.publish_next(&config, "dblp", &undo, &mut rng).unwrap();
        // One hierarchy in memory: no epoch copied it.
        assert!(std::ptr::eq(a.hierarchy(), b.hierarchy()));
        assert!(std::ptr::eq(a.hierarchy(), s.hierarchy()));
    }

    #[test]
    fn publish_next_refuses_over_budget_epoch_without_side_effects() {
        let (graph, hierarchy) = graph_and_hierarchy();
        // Room for exactly one epoch.
        let config = DisclosureConfig::count_only(0.4, 1e-6).unwrap();
        let delta = sample_delta(&graph);
        let mut s = DisclosureSession::new(
            graph.clone(),
            hierarchy,
            PrivacyBudget::new(0.5, 1e-4).unwrap(),
        );
        let mut rng = StdRng::seed_from_u64(94);
        s.publish(&config, "dblp", 0, &mut rng).unwrap();
        let err = s
            .publish_next(&config, "dblp", &delta, &mut rng)
            .unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Mechanism(gdp_mechanisms::MechanismError::BudgetExhausted { .. })
            ),
            "{err}"
        );
        // Refusal left the session unchanged: base epoch still 0, one
        // charge on the ledger, and the graph still pre-delta (its
        // first edge is one the delta would have deleted).
        assert_eq!(s.last_published(), Some(("dblp", 0)));
        assert!((s.accountant().spent_epsilon() - 0.4).abs() < 1e-12);
        assert_eq!(s.releases_made(), 1);
        let (l, r) = graph.edges().next().unwrap();
        assert!(s.graph.has_edge(l, r));
    }

    #[test]
    fn publish_next_rejects_bad_delta_before_charging() {
        let (graph, hierarchy) = graph_and_hierarchy();
        let config = DisclosureConfig::count_only(0.4, 1e-6).unwrap();
        let (l, r) = graph.edges().next().unwrap();
        // Inserting an edge that already exists is invalid.
        let bad = EdgeDelta::new(vec![(l, r)], Vec::new());
        let mut s =
            DisclosureSession::new(graph, hierarchy, PrivacyBudget::new(2.0, 1e-4).unwrap());
        let mut rng = StdRng::seed_from_u64(95);
        s.publish(&config, "dblp", 0, &mut rng).unwrap();
        let before = s.accountant().spent_epsilon();
        let err = s.publish_next(&config, "dblp", &bad, &mut rng).unwrap_err();
        assert!(matches!(err, CoreError::Graph(_)), "{err}");
        assert_eq!(s.accountant().spent_epsilon(), before, "no budget burned");
        assert_eq!(s.last_published(), Some(("dblp", 0)));
    }

    #[test]
    fn publish_stamps_ledger_and_empty_delta_chain_works() {
        let (graph, hierarchy) = graph_and_hierarchy();
        let config = DisclosureConfig::count_only(0.3, 1e-6).unwrap();
        let mut s =
            DisclosureSession::new(graph, hierarchy, PrivacyBudget::new(1.0, 1e-4).unwrap());
        let mut rng = StdRng::seed_from_u64(96);
        let a0 = s.publish(&config, "dblp", 0, &mut rng).unwrap();
        let l0 = a0.manifest().ledger.as_ref().unwrap();
        assert_eq!(l0.releases, 1);
        assert!((l0.cumulative_epsilon - 0.3).abs() < 1e-12);
        // An empty delta publishes a fresh epoch of the same data
        // (fresh noise, new charge).
        let a1 = s
            .publish_next(&config, "dblp", &EdgeDelta::empty(), &mut rng)
            .unwrap();
        assert_eq!(a1.epoch(), 1);
        let l1 = a1.manifest().ledger.as_ref().unwrap();
        assert_eq!(l1.releases, 2);
        assert!((l1.cumulative_epsilon - 0.6).abs() < 1e-12);
        assert_ne!(a0.release(), a1.release(), "fresh noise per epoch");
    }
}
