//! **g-Group differential privacy** for multi-level association-graph
//! disclosure — a from-scratch Rust reproduction of
//! *"Group Differential Privacy-Preserving Disclosure of Multi-level
//! Association Graphs"* (Palanisamy, Li, Krishnamurthy; ICDCS 2017).
//!
//! # The idea
//!
//! Classical differential privacy protects *individuals*: adjacent
//! datasets differ in one record. The paper observes that **aggregate
//! statistics about groups** can themselves be sensitive (how many
//! psychiatric-drug purchases came from one neighborhood?) and defines
//! `εg`-**group** differential privacy over datasets differing by an
//! entire group (Definition 3–4, implemented in [`adjacency`]).
//!
//! The disclosure pipeline has two phases:
//!
//! 1. **Specialization** ([`Specializer`]): the bipartite graph's node
//!    set is recursively partitioned via the exponential mechanism into a
//!    [`GroupHierarchy`] of levels — level `L` is the whole dataset,
//!    level 0 the individual nodes, and each level's groups split in four
//!    (two left-side, two right-side subgroups) going down.
//! 2. **Noise injection** ([`MultiLevelDiscloser`]): for every level, the
//!    configured queries are released through a noise mechanism (Gaussian
//!    by default) calibrated to that level's **group sensitivity**
//!    ([`LevelSensitivity`]), so each release `I_{L,i}` satisfies
//!    `εg`-group-DP with respect to level-`i` groups.
//!
//! Releases are bundled into a [`MultiLevelRelease`] and gated by an
//! [`AccessPolicy`]: the more privileged the reader, the finer (and less
//! noisy) the level they may read.
//!
//! # Quickstart
//!
//! ```
//! use gdp_core::{
//!     DisclosureConfig, MultiLevelDiscloser, SpecializationConfig, Specializer,
//! };
//! use gdp_datagen::{DblpConfig, DblpGenerator};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), gdp_core::CoreError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let graph = DblpGenerator::new(DblpConfig::tiny()).generate(&mut rng);
//!
//! // Phase 1: build a 4-level hierarchy privately.
//! let spec = Specializer::new(SpecializationConfig::paper_default(3)?);
//! let hierarchy = spec.specialize(&graph, &mut rng)?;
//!
//! // Phase 2: release the association count at every level.
//! let discloser = MultiLevelDiscloser::new(DisclosureConfig::count_only(0.9, 1e-6)?);
//! let release = discloser.disclose(&graph, &hierarchy, &mut rng)?;
//! assert_eq!(release.levels().len(), hierarchy.level_count());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod baseline;
mod disclosure;
mod error;
mod hierarchy;
mod metrics;
mod queries;
mod release;
mod sensitivity;
mod specialize;
mod stats;

mod session;

pub mod adjacency;
pub mod answering;
pub mod artifact;
pub mod codec;
pub mod postprocess;
pub mod theory;

pub use access::{AccessControlled, AccessPolicy, Privilege};
pub use artifact::{
    ArtifactFormat, ArtifactManifest, ManifestLedger, ReleaseArtifact, ARTIFACT_SCHEMA_VERSION,
};
pub use baseline::{individual_edge_dp_count, naive_group_composition_count, BaselineRelease};
pub use disclosure::{DisclosureConfig, MultiLevelDiscloser, NoiseMechanism};
pub use error::CoreError;
pub use hierarchy::{GroupHierarchy, GroupLevel};
pub use metrics::{mean_relative_error, relative_error, ErrorSummary};
pub use queries::{AnswerContext, Query, QueryAnswer};
pub use release::{LevelRelease, MultiLevelRelease, QueryRelease};
pub use sensitivity::LevelSensitivity;
pub use session::DisclosureSession;
pub use specialize::scoring;
pub use specialize::{SpecializationConfig, Specializer, SplitStrategy};
pub use stats::{HierarchyStats, LevelStats};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
