//! Online query layer over the five-phase out-of-core KNN engine.
//!
//! The Middleware'14 engine refines the KNN graph in offline
//! iterations; this crate turns it into an always-on service in the
//! online regime of Debatty et al.'s *Fast Online k-nn Graph Building*:
//! queries are answered **while** refinement runs, and profile updates
//! stream in concurrently.
//!
//! Three moving parts:
//!
//! * [`Snapshot`] / [`SnapshotCell`] — an immutable generation of
//!   state (graph `G(t)`, profiles `P(t)`, iteration metadata)
//!   published by atomic pointer swap. Readers grab an `Arc` and keep
//!   it as long as they like; old generations are freed when the last
//!   reader drops them.
//! * [`KnnService`] — the cloneable front-end: per-user top-K lookups
//!   ([`neighbors`](KnnService::neighbors), batched
//!   [`neighbors_many`](KnnService::neighbors_many)), ad-hoc profile
//!   queries ([`query_profile`](KnnService::query_profile) full scan,
//!   [`query_profile_near`](KnnService::query_profile_near) two-hop
//!   neighborhood with scan fallback), and
//!   [`submit_update`](KnnService::submit_update) feeding the engine's
//!   lazy phase-5 queue through [`UpdateIngest`].
//! * [`spawn`] / [`RefineHandle`] — the background refinement loop: it
//!   drains queued updates, runs [`knn_core::KnnEngine::run_iteration`]
//!   on its own thread, and publishes a fresh snapshot after every
//!   iteration. [`RefineHandle::stop`] recovers the engine.
//!
//! # Fast-path repair (sub-second ingest-to-visibility)
//!
//! By default an accepted update becomes queryable only when the next
//! full iteration publishes — seconds on large worlds. Setting
//! [`RefineOptions::repair`] spawns a repair worker that makes
//! ingest-to-visibility iteration-independent: as soon as updates
//! drain it applies them to the served profile view, re-places each
//! touched user by greedy search over the current snapshot graph
//! (seeded from the user's old row, scored through the exact phase-4
//! `upper_bound` funnel), rewrites the affected rows in place — each
//! write copies only its page away from published snapshots — and
//! publishes the result as a new epoch tagged
//! [`Snapshot::repaired`]`() == true`.
//!
//! **Approximation contract.** Repaired epochs are *best-effort*: the
//! placed rows are the best candidates the greedy search reached, not
//! a full recomputation. Every epoch with `repaired() == false` is an
//! *exact* engine generation — the background iteration reconciles
//! repaired state on its next publish, and once all pending updates
//! have been through an iteration the served graph is bit-identical
//! to a never-repaired engine's (the engine itself never sees
//! repaired rows; its durable phase-5 log gets every delta).
//!
//! **Durability contract.** An update accepted with `Ok` is never
//! dropped: it is either applied by an iteration, parked in the
//! engine's durable phase-5 log, or — if the log's backend keeps
//! failing through shutdown — returned to the caller in
//! [`ServeError::UnpersistedUpdates`]. Queue failures are retried on
//! every loop pass, preserving per-user submission order.
//!
//! # One loop, one front-end
//!
//! [`spawn_sharded`] serves a `knn_shard::ShardedEngine` through the
//! **same** machinery as [`spawn`] — one refinement loop, one repair
//! worker, one publish path, one [`ServiceStats`] assembly — and
//! returns the same [`KnnService`] ([`ShardedKnnService`] is an alias;
//! [`ShardedRefineHandle`] is [`RefineHandle`] over the sharded
//! engine). Sharding stays inside the engine: its ring, router
//! and per-shard durable logs. The engine's graph and
//! profiles are identical at every shard count, so every publish swaps
//! one cell to those global containers, and every read answers from
//! one cell load.
//!
//! # Operating under load
//!
//! Every failure mode under pressure is **typed and bounded** — no
//! silent queue growth, no unbounded spins:
//!
//! * **Admission control** ([`RefineOptions::admission`],
//!   [`AdmissionConfig`]): bounds the pending ingest queue globally
//!   and per user. Above the shed watermark a submitted
//!   `Replace`/`Clear` losslessly coalesces the same user's queued
//!   history; at capacity a whole-queue shed sweep drops every delta
//!   superseded by a later queued `Replace`/`Clear`. Only when
//!   shedding frees nothing does [`OverloadPolicy`] apply: **reject**
//!   with [`ServeError::Overloaded`] (carrying a `retry_after_hint`)
//!   or **block** the submitter up to a deadline. A rejected update
//!   was never accepted; an accepted update keeps the full durability
//!   guarantee.
//! * **Circuit breaker** ([`RefineOptions::breaker`],
//!   [`BreakerConfig`]): a flapping storage backend opens the breaker
//!   — drain/queue passes are suspended for a capped, exponentially
//!   growing, jittered interval (probing, not hammering), surfaced in
//!   [`ServiceStats`] as `breaker_open` / `breaker_open_ms`. With
//!   bounded admission the undrained backlog becomes backpressure on
//!   submitters.
//! * **Query cache** ([`RefineOptions::query_cache`]): repeat
//!   `neighbors`/`query_profile` lookups are answered from a
//!   generation-keyed cache, invalidated wholesale on every snapshot
//!   swap. Hits are bit-identical to uncached answers (the cached
//!   value is a prior answer for the same immutable generation).
//!
//! [`ServiceStats`] exposes the whole overload surface: `rejected`,
//! `shed`, `coalesced`, `peak_pending`, `breaker_open`,
//! `breaker_open_ms`, `cache_hits`, `cache_misses`. The
//! `serve_load` bench bin drives closed-loop mixed read/update
//! traffic against a single and a sharded engine and reports latency
//! percentiles and saturation throughput.
//!
//! ```
//! use knn_core::{EngineConfig, KnnEngine};
//! use knn_serve::{spawn, RefineOptions};
//! use knn_sim::generators::{clustered_profiles, ClusteredConfig};
//! use knn_store::WorkingDir;
//! use knn_graph::UserId;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (profiles, _) = clustered_profiles(ClusteredConfig::new(120, 7));
//! let config = EngineConfig::builder(120).k(4).num_partitions(4).seed(7).build()?;
//! let engine = KnnEngine::new(config, profiles, WorkingDir::temp("serve_doc")?)?;
//!
//! let (service, refine) = spawn(engine, RefineOptions::default())?;
//! // Queries are answered immediately, refinement runs behind them.
//! let top = service.neighbors(UserId::new(0))?;
//! assert!(!top.is_empty());
//! refine.wait_for_epoch(1, Duration::from_secs(30));
//! assert!(service.snapshot().iteration() >= 1);
//! let engine = refine.stop()?;
//! engine.into_working_dir().destroy()?;
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub, missing_docs)]

mod admission;
mod breaker;
mod cache;
mod error;
mod ingest;
mod refine;
mod repair;
mod service;
mod snapshot;

pub use admission::{AdmissionConfig, OverloadPolicy};
pub use breaker::BreakerConfig;
pub use error::ServeError;
pub use ingest::UpdateIngest;
pub use refine::{RefineHandle, RefineOptions, ITERATION_ATTEMPTS};
pub use service::{
    spawn, spawn_sharded, BatchNeighbors, KnnService, ServiceStats, ShardedKnnService,
    ShardedRefineHandle,
};
pub use snapshot::{Snapshot, SnapshotCell};
