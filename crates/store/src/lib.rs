//! Storage substrate for the KNN engine, behind a pluggable backend.
//!
//! The Middleware'14 system's premise is that neither the KNN graph
//! `G(t)` nor the profile set `P(t)` fits in memory, so both live in
//! *partition-sized* record streams and the engine moves whole
//! partitions between storage and RAM. Since the [`backend`] redesign
//! the engine speaks only the [`StorageBackend`] trait — the complete
//! storage contract as operations over named record streams
//! ([`backend::StreamId`]) — and this crate provides everything below
//! the algorithm:
//!
//! * [`backend`] — the [`StorageBackend`] trait plus its two shipped
//!   implementations: [`DiskBackend`] (the paper's out-of-core
//!   setting) and [`MemBackend`] (same codec, RAM-resident — the fast
//!   path when the data fits);
//! * [`WorkingDir`] — the on-disk layout `DiskBackend` wraps (profile
//!   and KNN-slice files per partition, plus the legacy edge and tuple
//!   file names that recovery still cleans up);
//! * [`codec`] / [`record_file`] — explicit, versioned binary encodings
//!   shared by every backend (no serde formats are available offline;
//!   the codec is ~100 lines and round-trip tested);
//! * [`IoStats`] — atomic counters living *inside* the backend
//!   boundary, so different backends are metered uniformly;
//! * [`SlotCache`] — the ≤`c`-resident partition cache whose
//!   load/unload operation counts are exactly the metric of the paper's
//!   Table 1 (phase 4 keeps its top-K accumulators in RAM beside
//!   `G(t)`, so a cached partition is read-only profiles).
//!
//! # Durability & crash consistency
//!
//! The engine rewrites its committed streams in place each iteration,
//! so three modules turn that into an atomic, testable contract:
//!
//! * [`commit`] — the generation-stamped commit protocol: staged
//!   pre-image backups ([`backend::StreamId::Staged`]) taken before a
//!   committed stream is first mutated, one CRC-framed commit record
//!   ([`commit::CommitRecord`]) whose rewrite atomically flips the
//!   visible generation, and [`commit::recover`], which rolls any
//!   crash shape back to the last committed generation (restoring
//!   backups, finishing interrupted log truncations, pruning torn log
//!   tails at the record boundary, deleting orphaned scratch).
//!   Pre-protocol working directories — no commit record, no staged
//!   streams — are recognized and left untouched, so legacy layouts
//!   still resume.
//! * [`fault`] — [`fault::FaultBackend`], a backend decorator running
//!   a seeded, scripted fault plan (crash the Nth op, torn write,
//!   transient run, ENOSPC) so recovery is *property-tested* at every
//!   kill point instead of spot-checked.
//! * [`retry`] — [`retry::RetryBackend`], bounded deterministic
//!   retries (capped exponential backoff, seeded jitter) for
//!   [`StoreError::Transient`] failures, counted on the [`IoStats`]
//!   meter (`retries`; rollbacks land on `rollbacks`).
//!
//! ```
//! use knn_store::{IoStats, SlotCache};
//!
//! // A 2-slot cache holding partition payloads; loads/unloads counted.
//! let mut cache: SlotCache<Vec<u8>> = SlotCache::new(2);
//! cache.ensure(0, None, |_| Ok::<_, std::io::Error>(vec![0u8])).unwrap();
//! cache.ensure(1, Some(0), |_| Ok::<_, std::io::Error>(vec![1u8])).unwrap();
//! assert_eq!(cache.counters().loads, 2);
//! assert_eq!(cache.counters().unloads, 0);
//! let _ = IoStats::new();
//! ```

#![warn(unreachable_pub, missing_docs)]

pub mod backend;
pub mod cache;
pub mod codec;
pub mod commit;
pub mod crc32;
pub mod delta_log;
pub mod fault;
pub mod io_stats;
pub mod layout;
pub mod record_file;
pub mod retry;

mod error;

pub use backend::{CommitTarget, DiskBackend, MemBackend, StorageBackend, StreamId};
pub use cache::{CacheCounters, SlotCache};
pub use commit::{recover, CommitRecord, CommitTxn, RecoveryReport};
pub use error::StoreError;
pub use fault::{FaultBackend, FaultKind, FaultPlan};
pub use io_stats::{IoSnapshot, IoStats};
pub use layout::WorkingDir;
pub use record_file::RecordKind;
pub use retry::{RetryBackend, RetryPolicy};
