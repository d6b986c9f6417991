//! # knn-shard — the consistent-hash shard layer
//!
//! Scales the five-phase out-of-core engine across N shards while
//! keeping every observable output identical to one process.
//!
//! ## Shard model
//!
//! A [`HashRing`] consistent-hashes the world: each **partition** (and
//! with it every per-partition stream and every phase-2 tuple bucket
//! `(i, j)` keyed by `i`) has one owning shard, and each **user**'s
//! durable update-log entries have one owning shard — user routing is
//! independent of the partitioning so it survives repartitions. Each
//! shard owns a private [`StorageBackend`](knn_store::StorageBackend)
//! with its own I/O meter. The unmodified five-phase driver runs
//! against a [`ShardRouter`] façade that delegates every storage
//! operation to the owner, and phase 2 is replaced (via
//! [`Phase2Provider`](knn_core::Phase2Provider)) by a
//! scan–exchange–merge pipeline:
//!
//! 1. **Scan** — each shard scans its own partitions on its own
//!    backend, spilling oversize buckets exactly as one process would.
//! 2. **Exchange** — tuple blocks whose bucket belongs to another
//!    shard are encoded as TuplesV2 runs ([`ForeignPayload`]) and
//!    shipped through the [`ExchangeFabric`].
//! 3. **Merge** — the owner persists received runs as
//!    `StreamId::ExchangeRun(i, j, seq)` streams and feeds them into
//!    the same loser-tree merge as its local spill runs.
//!
//! ## The determinism contract, extended
//!
//! The engine already guarantees byte-identical graphs, stream bytes,
//! reports, and I/O meters at every thread count and on both storage
//! backends. This crate extends the contract to **every shard count**:
//!
//! - bucket merges see the same tuple multiset in a deterministic
//!   source order (local runs in run order, then exchange runs in
//!   arrival order — which is itself deterministic because shards scan
//!   and ship sequentially and the fabric is per-destination FIFO), and
//!   the loser-tree emits ascending unique rows regardless of how the
//!   multiset was split;
//! - every metered storage event lands on exactly one meter (a shard's
//!   or the router's), so the summed [`IoSnapshot`](knn_store::IoSnapshot)
//!   equals the single meter of an unsharded run — exchange traffic is
//!   deliberately accounted separately in [`ExchangeStats`];
//! - persisted bucket bytes, [`IterationReport`](knn_core::IterationReport)s
//!   and summed I/O totals are pinned identical across shard counts
//!   {1, 2, 4} by the `shard_equivalence` suite.
//!
//! ## From channels to the network
//!
//! [`ChannelFabric`] moves payloads over in-process channels. A network
//! transport implements the same [`ExchangeFabric`] seam — `send`
//! becomes a framed write to the peer, `drain` the peer's receive
//! buffer at its merge barrier — and inherits the determinism argument
//! as long as it preserves per-destination FIFO order. The serving
//! layer (`knn-serve`'s `spawn_sharded`) publishes the engine's global
//! graph and profiles, which are the same at every shard count, so
//! queries never fan out across the ring.
//!
//! [`ForeignPayload`]: knn_core::tuple_table::ForeignPayload

pub mod engine;
pub mod fabric;
pub mod ring;
pub mod router;

pub use engine::{ShardedEngine, ShardedIterationReport};
pub use fabric::{ChannelFabric, ExchangeFabric, ExchangeStats};
pub use ring::HashRing;
pub use router::ShardRouter;
