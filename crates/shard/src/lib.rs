//! # knn-shard — the consistent-hash shard layer
//!
//! Scales the five-phase out-of-core engine across N shards while
//! keeping every observable output identical to one process.
//!
//! ## Sharding is placement
//!
//! A [`HashRing`] consistent-hashes the world: each **partition** (and
//! with it every per-partition stream) has one owning shard, and each
//! **user**'s durable update-log entries have one owning shard — user
//! routing is independent of the partitioning so it survives
//! repartitions. Each shard owns a private
//! [`StorageBackend`](knn_store::StorageBackend) with its own I/O
//! meter. The unmodified five-phase driver runs against a
//! [`ShardRouter`] that delegates every storage operation to the
//! owner. Nothing else changes: each stream the engine writes lands on
//! its owner exactly as it would land on one backend.
//!
//! ## The determinism contract, extended
//!
//! The engine already guarantees byte-identical graphs, stream bytes,
//! reports, and I/O meters at every thread count and on both storage
//! backends. Because the sharded engine is the same code over a
//! different backend, the contract extends to **every shard count**:
//!
//! - every stream is written once, by the same code, to one shard, so
//!   the union of the shards' streams equals one backend's;
//! - every metered storage event lands on exactly one meter (a shard's
//!   or the router's), so the summed [`IoSnapshot`](knn_store::IoSnapshot)
//!   equals the single meter of an unsharded run;
//! - graphs, persisted stream unions,
//!   [`IterationReport`](knn_core::IterationReport)s and summed I/O
//!   totals are pinned identical across shard counts {1, 2, 4} by the
//!   `shard_equivalence` suite.
//!
//! ## Towards the network
//!
//! A remote shard is a remote [`StorageBackend`](knn_store::StorageBackend)
//! behind the router; the engine does not change. The serving layer
//! (`knn-serve`'s `spawn_sharded`) publishes the engine's global graph
//! and profiles, which are the same at every shard count, so queries
//! never fan out across the ring.

#![warn(unreachable_pub, missing_docs)]

pub mod engine;
pub mod ring;
pub mod router;

pub use engine::{ShardedEngine, ShardedIterationReport};
pub use ring::HashRing;
pub use router::ShardRouter;
