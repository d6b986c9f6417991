//! The five-phase out-of-core KNN engine from *"Scaling KNN Computation
//! over Large Graphs on a PC"* (Chiluka, Kermarrec, Olivares;
//! Middleware 2014).
//!
//! One iteration refines the KNN graph `G(t) → G(t+1)`: every user's
//! neighbor list is replaced by the top-`K` most similar users among
//! its neighbors and neighbors' neighbors — executed with at most two
//! partitions of profile data in memory at a time:
//!
//! 1. **Partitioning** ([`phase1`], [`partition`]) — split the `n`
//!    users into `m` balanced partitions minimizing the unique
//!    external-vertex count `Σ (N_in + N_out)`; write per-partition
//!    edge lists sorted by bridge vertex.
//! 2. **Tuple generation** ([`phase2`], [`tuple_table`]) — merge-scan
//!    the sorted lists to emit candidate tuples `(s, d)` into
//!    columnar per-bucket staging, deduplicated per source and
//!    spilled as varint-delta runs when memory bounds demand it.
//! 3. **PI graph** ([`PiGraph`], [`traversal`]) — build the
//!    partition-interaction graph and order the partition pairs so
//!    that partition load/unload operations are minimized (the
//!    paper's Table 1 compares three traversal heuristics; the engine
//!    runs [`Heuristic::GreedyChain`], which never does worse than
//!    the best of them at two cache slots).
//! 4. **KNN computation** ([`topk`]) — walk the schedule
//!    with a two-slot cache of partition profiles, score every tuple,
//!    and keep per-user top-`K` accumulators in RAM beside `G(t)`
//!    (an `n·K` cost, like the graph itself), yielding `G(t+1)`.
//! 5. **Lazy profile updates** — apply the update queue so
//!    that `P(t+1)` reflects changes queued during iteration `t`.
//!
//! Every phase performs its I/O through the
//! [`StorageBackend`](knn_store::StorageBackend) trait, so the same
//! loop runs out-of-core (a
//! [`DiskBackend`](knn_store::DiskBackend) over a working directory,
//! the paper's setting) or entirely in RAM (a
//! [`MemBackend`](knn_store::MemBackend) — same codec, same results,
//! no filesystem). [`KnnEngine`] drives the full loop:
//!
//! ```
//! use knn_core::{EngineConfig, KnnEngine};
//! use knn_sim::generators::{clustered_profiles, ClusteredConfig};
//! use knn_store::WorkingDir;
//!
//! # fn main() -> Result<(), knn_core::EngineError> {
//! let (profiles, _) = clustered_profiles(ClusteredConfig::new(200, 7));
//! let config = EngineConfig::builder(200)
//!     .k(4)
//!     .num_partitions(4)
//!     .seed(7)
//!     .build()?;
//! let wd = WorkingDir::temp("engine_doc")?;
//! let mut engine = KnnEngine::new(config, profiles, wd)?;
//! let report = engine.run_iteration()?;
//! assert!(report.tuples.unique > 0);
//! # engine.into_working_dir().destroy()?;
//! # Ok(())
//! # }
//! ```
//!
//! # Parallelism and the determinism guarantee
//!
//! [`EngineConfig::threads`](EngineConfig::threads) is the engine-wide
//! worker budget: phases 1, 2, 4, and 5 each fan their per-partition
//! (or per-bucket) work out over that many scoped workers, pulling
//! tasks from a work-stealing queue ([`mod@phase1`] sorts and encodes
//! partition streams concurrently, [`mod@phase2`] scans partitions
//! with per-scan tuple tables merged bucket-parallel, phase 4 scores
//! tuple chunks on a worker pool, phase 5 rebuilds touched profile
//! streams concurrently).
//!
//! The guarantee: **thread count never changes the answer.** Each unit
//! of work is a pure function of its partition's inputs, every
//! [`StorageBackend`](knn_store::StorageBackend) stream is written by
//! exactly one unit (the streams are disjoint), and merge points sort
//! before they write — so `G(t+1)`, every persisted stream byte, the
//! [`IterationReport`] (durations aside), and the backend's
//! [`IoStats`](knn_store::IoStats) totals are identical whether the
//! engine ran on 1 thread or 8, on disk or in RAM. The
//! `parallel_equivalence` integration suite pins exactly this across
//! threads × backends.
//!
//! The `knn-shard` crate extends the same contract across **shard
//! counts**, by placement alone: the unmodified engine runs over a
//! routing [`StorageBackend`](knn_store::StorageBackend) that stores
//! each stream on its owning shard, so bucket streams, graphs,
//! reports, and summed I/O totals are byte/value-identical to one
//! process — pinned by the `shard_equivalence` suite.
//!
//! # Durability
//!
//! Every iteration is one atomic commit: committed streams are staged
//! before their first in-place rewrite, a commit record flips the
//! generation, and the commit truncates the consumed update log
//! (`knn_store::commit`). [`KnnEngine::resume_on`] runs crash recovery
//! first, then reads the committed metadata, assignment and KNN
//! slices through the same reader [`KnnEngine::verify`] uses, so both
//! hold stored bytes to one list of invariants: resume fails on the
//! first violation, the scrub reports them all. Working directories
//! written before the protocol (no commit record) still resume.
//!
//! # Placement and schedule
//!
//! Placement (phase 1) and the traversal schedule (phase 3) are I/O
//! levers, never correctness ones: for the same `G(t)` every placement
//! and every schedule produce the same `G(t+1)` (pinned by
//! `tests/cluster_invariance.rs` and phase 4's tests). The engine
//! therefore exposes one switch,
//! [`EngineConfig::clustering_enabled`](config::EngineConfig::clustering_enabled):
//!
//! * off (default) — [`partition::GreedyPartitioner`], the paper's
//!   objective minimizer, and a uniformly random `G(0)`;
//! * on — the `knn-cluster` pre-pass runs once, its clusters are
//!   packed into partitions ([`partition::ClusterPartitioner`]) and
//!   `G(0)` is seeded from intra-cluster edges. It pays off when
//!   profiles have community structure: tuples concentrate on the PI
//!   diagonal (`IterationReport::intra_partition_tuples` rises,
//!   phase-2 spill bytes fall) and the recall floor comes sooner.
//!
//! The schedule is always [`Heuristic::GreedyChain`]. The paper's
//! three heuristics remain in [`traversal`] for the Table-1
//! reproduction.
//!
//! # The scoring funnel
//!
//! Phase 4 dominates iteration cost, so the pipeline removes kernel
//! evaluations whose outcome is already decided — and every stage is
//! **exact** (the refined graph is identical with the funnel on or
//! off):
//!
//! * **Symmetric pair dedup** — phase 2 stores each unordered
//!   candidate pair once ([`tuple_table::meta_bits`] direction bits);
//!   the symmetric kernel runs once per pair, its score offered along
//!   every recorded direction.
//! * **Prepared profiles** — partition loads build one
//!   [`knn_sim::ProfileArena`] whose rows carry one-pass aggregates and
//!   block sketches; [`knn_sim::Measure::score_ref`] over its views is
//!   bit-identical to the classic `score` path.
//! * **Offer-time suppression** (`EngineConfig::prune_pairs`, default
//!   on) — redundancy is decided once, in phase 2, where candidates
//!   are born. The engine tracks per-user profile-dirty bits from
//!   phase 5 and the edge additions `G(t) ∖ G(t-1)`; a directed
//!   candidate generated through an all-old path between users whose
//!   standing is unchanged was already evaluated last iteration, and
//!   phase 4's accumulator seeding (each clean user's accumulator
//!   starts from its scored `G(t)` row) replays its verdict, so
//!   phase 2 never offers it.
//!   `sims_skipped` counts these suppressed offers. A fresh engine or
//!   resume has no bookkeeping, so its first iteration offers and
//!   scores everything.
//! * **Bound-based filtering** (`EngineConfig::bound_filter`, default
//!   on) — [`knn_sim::Measure::upper_bound_ref`] is an O(1) score
//!   ceiling; candidates that cannot beat the current k-th
//!   accumulator entry are dropped unevaluated (`sims_pruned`).
//!
//! Suppression is a pure function of the graphs and the dirty bits,
//! and filter decisions are taken on phase 4's driving thread against
//! bucket-start state, so the counters and the graph stay
//! thread-count- and backend-invariant; `tests/pruning_equivalence.rs`
//! pins pruned ≡ unpruned graph equality per iteration, updates
//! included. `KNN_TEST_PRUNE=0` routes the whole suite down the
//! full-rescore path.
//!
//! # The phase-1/2 tuple pipeline
//!
//! The tuple data plane is columnar end to end (see [`tuple_table`]):
//! struct-of-arrays staging with no per-offer allocation (one cheap
//! hash probe on the partition pair), a per-source dedup (counting sort by source, a stamp
//! array over destinations) whose scratch is bounded by the block and
//! the bucket's two partitions, a varint-delta spill codec
//! ([`knn_store::tuple_stream`], ~2 B per dense tuple vs a
//! fixed-width 8), and a streaming loser-tree k-way merge whose
//! output encodes straight into the bucket streams phase 4 iterates.
//! Phase-2 staging is bounded by `spill_threshold` rows per bucket
//! or an explicit per-scan-table byte budget
//! ([`EngineConfig::tuple_table_memory`]); spill traffic is metered in
//! phase 2's I/O snapshot (`IterationReport::phase_io[1]`'s
//! `spill_bytes` / `spill_runs` / `merge_passes`). On the phase-4
//! side, each partition's profiles
//! materialize into one CSR [`knn_sim::ProfileArena`] (split id and
//! weight columns), and each run of candidates sharing a source row is
//! scored by one [`knn_sim::RowKernel`] load — bit-identically to the
//! pair kernels.
//!
//! The in-memory fast path is one constructor away — identical graphs
//! for identical seeds, verified by the backend-equivalence suite:
//!
//! ```
//! use knn_core::{EngineConfig, KnnEngine};
//! use knn_sim::generators::{clustered_profiles, ClusteredConfig};
//!
//! # fn main() -> Result<(), knn_core::EngineError> {
//! let (profiles, _) = clustered_profiles(ClusteredConfig::new(200, 7));
//! let config = EngineConfig::builder(200).k(4).num_partitions(4).seed(7).build()?;
//! let mut engine = KnnEngine::in_memory(config, profiles)?;
//! engine.run_iteration()?;
//! assert!(engine.working_dir().is_none(), "no filesystem involved");
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub, missing_docs)]

pub mod metrics;
pub mod partition;
pub mod phase1;
pub mod phase2;
pub mod reference;
pub mod topk;
pub mod traversal;
pub mod tuple_table;

mod config;
mod engine;
mod error;
mod par;
mod phase4;
mod phase5;
mod pigraph;

pub use config::{EngineConfig, EngineConfigBuilder};
pub use engine::{KnnEngine, ScrubReport};
pub use error::EngineError;
pub use metrics::IterationReport;
pub use partition::Partitioning;
pub use pigraph::PiGraph;
pub use traversal::Heuristic;
