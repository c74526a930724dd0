//! **Serving subsystem** for published multi-level releases — the
//! consumer half of the group-DP pipeline, behind `gdp answer` and
//! `gdp serve`.
//!
//! The paper's long-lived product is the published bundle `{I_{L,i}}`
//! consumed under graded privileges, not the pipeline run that produced
//! it; and because differential privacy is closed under
//! post-processing, anything a server does with a sealed
//! [`ReleaseArtifact`](gdp_core::ReleaseArtifact) — indexing, caching,
//! batching, re-answering the same query a million times — costs zero
//! additional privacy budget. That freedom is what this crate exploits:
//!
//! * [`Query`] / [`TypedAnswer`] — the typed query surface: subset
//!   counts, per-group noisy masses, released degree histograms and
//!   side totals, every variant answered on the indexed path and
//!   pinned **bit-identical** (values and typed-error precedence) to a
//!   core rescan baseline in [`gdp_core::answering`].
//! * [`IndexedRelease`] — a query-optimized view of one artifact: it
//!   reads each level's node→group assignment and noisy per-group mass
//!   in place and keeps only the mass pre-divided by `|g|` and each
//!   side's total, turning a subset-count estimate into an
//!   `O(|S|)` gather (bit-identical to
//!   [`gdp_core::answering::SubsetCountEstimator`], which remains the
//!   equivalence baseline) instead of an `O(groups)` scan behind a
//!   per-query estimator rebuild; histograms are materialized once per
//!   level and served by `Arc` reference.
//! * [`ReleaseStore`] — artifacts keyed by `(dataset, epoch)` in one
//!   map behind one `RwLock`: readers share the read lock for a probe
//!   and an `Arc` clone, a republisher takes the write lock briefly to
//!   insert; [`ReleaseStore::open_dir`] scans a directory of artifact
//!   files (`.gda` containers) and indexes each file as it loads it.
//! * Store **lifecycle** ([`lifecycle`]) — degraded opens that
//!   quarantine damage instead of failing
//!   ([`ReleaseStore::open_dir_report`] → [`OpenReport`]), live
//!   re-scans that pick up freshly published epochs and retire deleted
//!   ones ([`ReleaseStore::merge_dir`]), and retention GC
//!   ([`RetentionPolicy`], [`ReleaseStore::gc`]) that durably deletes
//!   only fully-superseded epochs.
//! * [`AnswerService`] — the front door: enforces
//!   [`AccessPolicy`](gdp_core::AccessPolicy)/[`Privilege`](gdp_core::Privilege)
//!   on **every** request and variant, answers a batch as a plain loop
//!   in input order (answering is RNG-free pure post-processing; the
//!   server's worker pool is where requests run concurrently), and
//!   memoizes repeated queries under variant-aware keys. Its one entry
//!   point is [`AnswerService::answer_typed`], with
//!   [`AnswerService::answer_typed_batch`] for batches.
//! * [`workload`] — the plain-text typed-query file format the CLI's
//!   `gdp answer` consumes, following `gdp_graph::io` conventions.
//!
//! ```
//! use gdp_core::{DisclosureConfig, DisclosureSession, Privilege, Query,
//!     SpecializationConfig, Specializer};
//! use gdp_datagen::{DblpConfig, DblpGenerator};
//! use gdp_mechanisms::PrivacyBudget;
//! use gdp_graph::Side;
//! use gdp_serve::{AnswerService, IndexedRelease, Query as ServeQuery, ReleaseStore,
//!     SubsetQuery};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let mut rng = rand::rngs::StdRng::seed_from_u64(11);
//! # let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
//! # let hierarchy = Specializer::new(SpecializationConfig::median(3)?)
//! #     .specialize(&graph, &mut rng)?;
//! // Publisher side: a budget-enforced session seals an artifact…
//! let mut session = DisclosureSession::new(graph, hierarchy, PrivacyBudget::new(1.0, 1e-5)?);
//! let config = DisclosureConfig::count_only(0.5, 1e-6)?
//!     .with_queries(vec![Query::PerGroupCounts]);
//! let artifact = session.publish(&config, "dblp", 1, &mut rng)?;
//!
//! // …serving side: index it, register it, answer under a privilege.
//! let store = ReleaseStore::new();
//! store.insert(IndexedRelease::new(artifact)?)?;
//! let service = AnswerService::new(store);
//! let query = ServeQuery::SubsetCount(SubsetQuery { side: Side::Left, nodes: vec![0, 1, 2] });
//! let coarse = service.answer_typed("dblp", 1, Privilege::new(2), 2, &query)?;
//! assert!(coarse.scalar().unwrap().is_finite());
//! // Every variant rides the same privilege-gated path.
//! let total = service.answer_typed(
//!     "dblp", 1, Privilege::new(2), 2, &ServeQuery::SideTotal { side: Side::Left })?;
//! assert!(total.scalar().unwrap().is_finite());
//! // The same reader may NOT touch a finer level than their clearance.
//! assert!(service.answer_typed("dblp", 1, Privilege::new(2), 0, &query).is_err());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod index;
mod query;
mod service;
mod store;

pub mod kernels;
pub mod lifecycle;
pub mod workload;

pub use error::ServeError;
pub use index::IndexedRelease;
pub use lifecycle::{FileOutcome, GcEviction, GcReport, OpenReport, RetentionPolicy};
pub use query::{Query, SubsetQuery, TypedAnswer};
pub use service::{AnswerService, CacheStats};
pub use store::ReleaseStore;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, ServeError>;
