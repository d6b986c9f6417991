//! # ooc-knn — Scaling KNN Computation over Large Graphs on a PC
//!
//! A from-scratch Rust implementation of the out-of-core K-nearest-
//! neighbors system described by Chiluka, Kermarrec and Olivares
//! (*Middleware 2014*): iterative KNN-graph refinement over user
//! profiles that do not fit in memory, executed with at most two
//! partitions of data resident at a time.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `knn-graph` | graph types, generators, degree statistics |
//! | [`sim`] | `knn-sim` | sparse profiles, similarity measures, workload generators |
//! | [`store`] | `knn-store` | the `StorageBackend` trait (disk + in-memory backends), codecs, I/O accounting, the 2-slot cache |
//! | [`cluster`] | `knn-cluster` | locality pre-pass: sketch embeddings, mini-batch k-means, cluster-seeded `G(0)` |
//! | [`core`] | `knn-core` | the five-phase engine (partitioning → tuples → PI graph → KNN → updates) |
//! | [`shard`] | `knn-shard` | consistent-hash shard layer: `ShardedEngine` over a routing backend that places each stream on its owner shard |
//! | [`serve`] | `knn-serve` | online query layer: snapshot swap, concurrent `KnnService`, background refinement over a plain or sharded engine |
//! | [`baseline`] | `knn-baseline` | brute force, NN-Descent, recall |
//! | [`datasets`] | `knn-datasets` | Table-1 dataset replicas and workload presets |
//!
//! The most common entry points are also re-exported at the top level.
//!
//! ## Quickstart
//!
//! ```
//! use ooc_knn::{EngineConfig, KnnEngine, WorkingDir, WorkloadConfig};
//!
//! # fn main() -> Result<(), ooc_knn::EngineError> {
//! // 500 users with planted cluster structure.
//! let workload = WorkloadConfig::recommender().build(500, 7);
//!
//! let config = EngineConfig::builder(500)
//!     .k(8)
//!     .num_partitions(8)
//!     .measure(workload.measure)
//!     .seed(7)
//!     .build()?;
//! let workdir = WorkingDir::temp("quickstart")?;
//! let mut engine = KnnEngine::new(config, workload.profiles, workdir)?;
//!
//! // Refine G(t) until under 5% of edges change per iteration.
//! let outcome = engine.run_until_converged(0.05, 10)?;
//! assert!(outcome.converged);
//!
//! // Every user now has (up to) K scored nearest neighbors.
//! let me = knn_graph::UserId::new(0);
//! assert!(!engine.graph().neighbors(me).is_empty());
//! # engine.into_working_dir().destroy()?;
//! # Ok(())
//! # }
//! ```
//!
//! Storage is pluggable ([`store::StorageBackend`]): swap the working
//! directory for [`KnnEngine::in_memory`] and the same loop runs with
//! zero filesystem — see `examples/in_memory.rs`.
//!
//! ## Serving queries while refining
//!
//! The batch engine above stops the world between iterations; the
//! [`serve`] layer instead publishes every iteration as an immutable
//! snapshot and answers top-K queries concurrently:
//!
//! ```
//! use ooc_knn::{EngineConfig, KnnEngine, WorkingDir, WorkloadConfig};
//! use ooc_knn::serve::{spawn, RefineOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workload = WorkloadConfig::recommender().build(200, 7);
//! let config = EngineConfig::builder(200)
//!     .k(6)
//!     .num_partitions(4)
//!     .measure(workload.measure)
//!     .seed(7)
//!     .build()?;
//! let engine = KnnEngine::new(config, workload.profiles, WorkingDir::temp("facade_serve")?)?;
//!
//! let (service, refine) = spawn(engine, RefineOptions::default())?;
//! let top = service.neighbors(knn_graph::UserId::new(42))?;
//! assert!(!top.is_empty());
//! let engine = refine.stop()?;
//! engine.into_working_dir().destroy()?;
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub, missing_docs)]

pub use knn_baseline as baseline;
pub use knn_cluster as cluster;
pub use knn_core as core;
pub use knn_datasets as datasets;
pub use knn_graph as graph;
pub use knn_serve as serve;
pub use knn_shard as shard;
pub use knn_sim as sim;
pub use knn_store as store;

pub use knn_baseline::{brute_force_knn, recall_at_k, NnDescent, NnDescentConfig};
pub use knn_cluster::{cluster_profiles, ClusterAssignment};
pub use knn_core::{EngineConfig, EngineError, Heuristic, IterationReport, KnnEngine, PiGraph};
pub use knn_datasets::{Table1Dataset, Workload, WorkloadConfig};
pub use knn_graph::{DiGraph, KnnGraph, Neighbor, UserId};
pub use knn_serve::{
    AdmissionConfig, KnnService, OverloadPolicy, RefineHandle, RefineOptions, ServeError, Snapshot,
};
pub use knn_shard::{ShardedEngine, ShardedIterationReport};
pub use knn_sim::{ItemId, Measure, Profile, ProfileDelta, ProfileStore, Similarity};
pub use knn_store::{DiskBackend, IoStats, MemBackend, StorageBackend, WorkingDir};
