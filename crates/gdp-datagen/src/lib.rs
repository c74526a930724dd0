//! Synthetic association-graph workloads for the `group-dp` workspace.
//!
//! The paper evaluates on the DBLP author–paper graph (1,295,100 authors,
//! 2,281,341 papers, 6,384,117 associations). That snapshot is not
//! redistributable, so this crate provides a **faithful synthetic
//! substitute**: [`DblpGenerator`] produces bipartite graphs with
//! Zipf-distributed author productivity and realistic author-list sizes,
//! with presets matching the paper's totals exactly
//! ([`DblpConfig::paper_scale`]) or scaled down for laptop-speed runs
//! ([`DblpConfig::default`]).
//!
//! The crate also ships:
//!
//! * the **streaming engine** ([`engine`]) — sharded,
//!   seeded-per-shard edge sources ([`engine::StreamingEdgeSource`])
//!   feeding `gdp_graph`'s direct-to-CSR builder, with streaming
//!   Erdős–Rényi, Zipf-attachment and planted-block models wrapped in
//!   the [`engine::GraphModel`] scenario enum. Fixed-seed output is
//!   identical to the incremental-builder baseline,
//! * [`zipf::ZipfSampler`] — a rejection-inversion Zipf sampler built
//!   from scratch (no `rand_distr` dependency), plus the
//!   [`zipf::spread_rank`] popularity scrambler the generators share,
//! * serial reference models ([`models`]) — Erdős–Rényi, preferential
//!   attachment and a planted block model for tests,
//! * scenario datasets from the paper's introduction: a pharmacy
//!   (patients × drugs, [`pharmacy`]) and a movie-rating service
//!   (viewers × movies, [`movies`]), each with labelled sensitive
//!   categories so the examples can demonstrate group-privacy policies.
//!
//! # Example
//!
//! ```
//! use gdp_datagen::{DblpConfig, DblpGenerator};
//! use rand::SeedableRng;
//!
//! let config = DblpConfig::tiny();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let graph = DblpGenerator::new(config).generate(&mut rng);
//! assert!(graph.edge_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dblp;

pub mod engine;
pub mod models;
pub mod movies;
pub mod pharmacy;
pub mod zipf;

pub use dblp::{DblpConfig, DblpGenerator};
