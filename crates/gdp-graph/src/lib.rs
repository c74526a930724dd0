//! Bipartite association-graph substrate for the `group-dp` workspace.
//!
//! The paper's data model is a **bipartite association graph**: left-side
//! entities (authors, patients, viewers) associated with right-side
//! entities (papers, drugs, movies). This crate provides the storage and
//! bookkeeping layer that the `gdp-core` disclosure pipeline runs on:
//!
//! * [`BipartiteGraph`] — compressed sparse row (CSR) adjacency in both
//!   directions, built once via [`GraphBuilder`] and immutable afterwards,
//! * [`SidePartition`] — a partition of one side's nodes into blocks,
//!   with the edge-incidence accounting that drives group-level
//!   sensitivity computation,
//! * [`GraphStats`] / [`DegreeHistogram`] — degree-distribution summaries
//!   used by the synthetic data generators and experiment reports,
//! * plain-text edge-list IO ([`io`]) so experiments can persist and
//!   reload datasets.
//!
//! Node identity is typed: [`LeftId`] and [`RightId`] are distinct types,
//! so code cannot accidentally index the wrong side — the classic failure
//! mode in bipartite graph code.
//!
//! # Example
//!
//! ```
//! use gdp_graph::{GraphBuilder, LeftId, RightId};
//!
//! # fn main() -> Result<(), gdp_graph::GraphError> {
//! let mut b = GraphBuilder::new(3, 2);
//! b.add_edge(LeftId::new(0), RightId::new(0))?;
//! b.add_edge(LeftId::new(0), RightId::new(1))?;
//! b.add_edge(LeftId::new(2), RightId::new(1))?;
//! let g = b.build();
//! assert_eq!(g.edge_count(), 3);
//! assert_eq!(g.left_degree(LeftId::new(0)), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bipartite;
mod builder;
mod csr_direct;
mod delta;
mod error;
mod histogram;
mod node;
mod pair_counts;
mod partition;
mod stats;
mod traversal;
mod truncate;

pub mod binfmt;
pub mod io;

pub use bipartite::{BipartiteGraph, EdgeIter};
pub use builder::GraphBuilder;
pub use csr_direct::{
    assemble_left_rows, assemble_right_rows, EdgeSink, RecordingSink, RowShardSink,
};
pub use delta::EdgeDelta;
pub use error::GraphError;
pub use histogram::DegreeHistogram;
pub use node::{LeftId, NodeId, RightId, Side};
pub use pair_counts::{PairCounts, PairMarginals};
pub use partition::SidePartition;
pub use stats::GraphStats;
pub use traversal::{connected_components, ComponentLabeling};
pub use truncate::{truncate_degrees, Truncation};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, GraphError>;
