//! Directed-graph substrate for out-of-core KNN computation.
//!
//! This crate provides the graph data structures, random-graph
//! generators, and degree statistics used by the out-of-core KNN
//! engine (`knn-core`) and its baselines. It is
//! deliberately free of any storage or similarity concerns: vertices are
//! plain [`UserId`]s and edges are either unscored ([`DiGraph`]) or
//! carry a similarity score ([`KnnGraph`]).
//!
//! # Quick example
//!
//! ```
//! use knn_graph::{DiGraph, UserId};
//!
//! let mut g = DiGraph::new(4);
//! g.add_edge(UserId::new(0), UserId::new(1));
//! g.add_edge(UserId::new(1), UserId::new(2));
//! g.add_edge(UserId::new(1), UserId::new(3));
//! assert_eq!(g.out_degree(UserId::new(1)), 2);
//! assert_eq!(g.num_edges(), 3);
//! ```

#![warn(unreachable_pub, missing_docs)]

pub mod cow;
pub mod digraph;
pub mod generators;
pub mod knn;
pub mod neighbor;
pub mod sample;
pub mod stats;

mod error;
mod id;

pub use digraph::DiGraph;
pub use error::GraphError;
pub use id::UserId;
pub use knn::{EdgeAdditions, KnnGraph};
pub use neighbor::Neighbor;
pub use stats::DegreeStats;

/// A directed edge as a raw `(source, destination)` pair of vertex ids.
///
/// Generators traffic in raw pairs; structured graph
/// types ([`DiGraph`], [`KnnGraph`]) are built from them.
pub type EdgePair = (u32, u32);
