//! The concurrent query front-end.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;

use knn_core::KnnEngine;
use knn_graph::{Neighbor, UserId};
use knn_shard::ShardedEngine;
use knn_sim::{Profile, ProfileDelta};

use crate::cache::CacheKey;
use crate::refine::{start, RefineEngine, RefineHandle, Shared};
use crate::snapshot::Snapshot;
use crate::{RefineOptions, ServeError};

/// Running counters of one service instance (shared by its clones).
#[derive(Debug, Default)]
struct Counters {
    neighbor_queries: AtomicU64,
    profile_queries: AtomicU64,
}

/// Rejects query profiles carrying non-finite weights: best-first
/// ordering is `total_cmp`, under which a NaN similarity would rank
/// *above* every real score — garbage at rank 0. Same finite-weight
/// rule ingest enforces on updates.
fn validate_query(query: &Profile) -> Result<(), ServeError> {
    if query.iter().any(|(_, w)| !w.is_finite()) {
        return Err(ServeError::NonFiniteQuery);
    }
    Ok(())
}

/// A point-in-time copy of the service counters plus snapshot state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// `neighbors` / `neighbors_many` calls answered (batch counts
    /// one per queried user).
    pub neighbor_queries: u64,
    /// Ad-hoc profile queries answered.
    pub profile_queries: u64,
    /// Updates accepted into the ingest queue.
    pub updates_submitted: u64,
    /// Updates already handed to the engine's phase-5 log.
    pub updates_drained: u64,
    /// Latest published epoch (what
    /// [`RefineHandle::wait_for_epoch`](crate::RefineHandle::wait_for_epoch)
    /// waits on).
    pub snapshot_epoch: u64,
    /// Fast-path repaired epochs published so far (0 unless
    /// [`RefineOptions::repair`](crate::RefineOptions) is on).
    pub repaired_epochs: u64,
    /// Failed attempts to hand an update to the engine's durable log
    /// (each is retried until shutdown; see
    /// [`ServeError::UnpersistedUpdates`]).
    pub queue_failures: u64,
    /// Submits turned away by admission control with
    /// [`ServeError::Overloaded`] (see
    /// [`RefineOptions::admission`](crate::RefineOptions)).
    pub rejected: u64,
    /// Queued deltas dropped by the at-capacity shed sweep — each was
    /// superseded by a later queued `Replace`/`Clear` of the same
    /// user, so no user's final profile changed.
    pub shed: u64,
    /// Queued deltas dropped by opportunistic same-user coalescing
    /// above the shed watermark (same lossless contract as `shed`).
    pub coalesced: u64,
    /// High-water mark of the pending ingest depth; with a configured
    /// capacity this never exceeds it.
    pub peak_pending: u64,
    /// Whether the durable-path circuit breaker is currently open
    /// (drain/queue passes suspended, backend backing off).
    pub breaker_open: bool,
    /// Total milliseconds the breaker has spent open.
    pub breaker_open_ms: u64,
    /// Query-cache hits (answers served bit-identical from cache).
    pub cache_hits: u64,
    /// Query-cache misses (answers computed, then cached).
    pub cache_misses: u64,
}

impl Shared {
    /// The service's query counters plus the state it shares with the
    /// loop.
    fn stats(&self, counters: &Counters) -> ServiceStats {
        ServiceStats {
            neighbor_queries: counters.neighbor_queries.load(Ordering::Relaxed),
            profile_queries: counters.profile_queries.load(Ordering::Relaxed),
            updates_submitted: self.ingest.submitted(),
            updates_drained: self.ingest.drained(),
            snapshot_epoch: *self.published.lock().expect("publish lock poisoned"),
            repaired_epochs: self.repaired_epochs.load(Ordering::Relaxed),
            queue_failures: self.queue_failures.load(Ordering::Relaxed),
            rejected: self.ingest.rejected(),
            shed: self.ingest.shed(),
            coalesced: self.ingest.coalesced(),
            peak_pending: self.ingest.peak_pending(),
            breaker_open: self.breaker_open.load(Ordering::Relaxed),
            breaker_open_ms: self.breaker_open_ms.load(Ordering::Relaxed),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
        }
    }
}

/// A batch answer and the snapshot generation it was served from.
///
/// Every row of `results` was read from **one** snapshot (one coherent
/// generation of the graph), identified by `generation` — callers can
/// compare generations across batches to detect refinement progress,
/// or join rows of one batch knowing they never straddle a swap.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNeighbors {
    /// Generation (epoch) of the snapshot the batch was answered from.
    pub generation: u64,
    /// Per queried user, in query order: the best-first neighbor list.
    pub results: Vec<Vec<Neighbor>>,
    /// Always `false`: every batch is read from one snapshot. Kept so
    /// existing callers that read it still compile.
    pub degraded: bool,
}

/// The always-on query front-end over the refining engine.
///
/// Cloning is cheap (a few `Arc`s) and every clone serves from the
/// same snapshot cell, so a server can hand one instance to each
/// request-handling thread. All methods that touch the graph resolve
/// **one** snapshot first and answer entirely from it: a reader is
/// never exposed to state from two different iterations within one
/// call, no matter how many swaps happen mid-flight.
#[derive(Debug, Clone)]
pub struct KnnService {
    shared: Arc<Shared>,
    counters: Arc<Counters>,
    /// The thread a submit must wake: the repair worker when fast-path
    /// repair is on, the refine loop otherwise.
    wake: Thread,
}

/// Starts serving `engine`: publishes the engine's current state as
/// snapshot epoch 0, then hands the engine to a background thread that
/// drains queued updates, runs five-phase iterations, and publishes a
/// fresh snapshot after each one. With fast-path repair on, a
/// second worker additionally publishes repaired epochs as soon as
/// updates drain (see [`crate::RefineOptions::repair`]).
///
/// Returns the cloneable query front-end and the (unique) control
/// handle that stops the loop and recovers the engine.
///
/// # Errors
///
/// Returns a storage error if the initial profile export fails.
pub fn spawn(
    engine: KnnEngine,
    options: RefineOptions,
) -> Result<(KnnService, RefineHandle), ServeError> {
    serve(engine, options)
}

/// Starts serving a sharded engine, with the same lifecycle and the
/// same front-end as [`spawn`]. The shards stay inside the engine —
/// its router lands each drained update on the owner shard's durable
/// log — while the service publishes the engine's global graph and
/// profiles, which are identical at every shard count.
///
/// # Errors
///
/// Returns a storage error if the initial profile export fails.
pub fn spawn_sharded(
    engine: ShardedEngine,
    options: RefineOptions,
) -> Result<(ShardedKnnService, ShardedRefineHandle), ServeError> {
    serve(engine, options)
}

fn serve<E: RefineEngine>(
    engine: E,
    options: RefineOptions,
) -> Result<(KnnService, RefineHandle<E>), ServeError> {
    let (shared, wake, handle) = start(engine, options)?;
    let service = KnnService {
        shared,
        counters: Arc::new(Counters::default()),
        wake,
    };
    Ok((service, handle))
}

/// The front-end [`spawn_sharded`] returns: the same [`KnnService`].
pub type ShardedKnnService = KnnService;

/// Control handle of the sharded refinement loop: the same handle as
/// [`RefineHandle`], giving back a [`ShardedEngine`] on stop.
pub type ShardedRefineHandle = RefineHandle<ShardedEngine>;

impl KnnService {
    /// The currently published snapshot. Hold it to answer any number
    /// of related questions from one consistent state.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared.cell.load()
    }

    /// The top-K list of `user` in the current snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownUser`] for out-of-range ids.
    pub fn neighbors(&self, user: UserId) -> Result<Vec<Neighbor>, ServeError> {
        self.counters
            .neighbor_queries
            .fetch_add(1, Ordering::Relaxed);
        let snapshot = self.snapshot();
        if user.index() >= snapshot.num_users() {
            return Err(ServeError::UnknownUser {
                user,
                num_users: snapshot.num_users(),
            });
        }
        let generation = snapshot.generation();
        let key = CacheKey::Neighbors(user);
        if let Some(hit) = self.shared.cache.get(generation, &key) {
            return Ok(hit);
        }
        let answer = snapshot.neighbors(user)?.to_vec();
        self.shared.cache.insert(generation, key, &answer);
        Ok(answer)
    }

    /// The top-K lists of several users, all answered from a single
    /// snapshot — the batch is internally consistent even while the
    /// refinement loop publishes mid-call — tagged with that snapshot's
    /// [`generation`](Snapshot::generation).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownUser`] for the first out-of-range
    /// id and answers nothing: every id is validated against the
    /// snapshot *before* any result row is materialized, so a failing
    /// batch does no allocation work.
    pub fn neighbors_many(&self, users: &[UserId]) -> Result<BatchNeighbors, ServeError> {
        self.counters
            .neighbor_queries
            .fetch_add(users.len() as u64, Ordering::Relaxed);
        let snapshot = self.snapshot();
        if let Some(&bad) = users.iter().find(|u| u.index() >= snapshot.num_users()) {
            return Err(ServeError::UnknownUser {
                user: bad,
                num_users: snapshot.num_users(),
            });
        }
        Ok(BatchNeighbors {
            generation: snapshot.generation(),
            degraded: false,
            results: users
                .iter()
                .map(|&u| {
                    snapshot
                        .neighbors(u)
                        .expect("validated above against the same snapshot")
                        .to_vec()
                })
                .collect(),
        })
    }

    /// Top-`k` users for an ad-hoc `query` profile that belongs to no
    /// existing user: a brute-force scan of the snapshot's whole
    /// profile set (exact, O(n) similarity evaluations).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::NonFiniteQuery`] if the query profile
    /// carries a NaN/infinite weight.
    pub fn query_profile(&self, query: &Profile, k: usize) -> Result<Vec<Neighbor>, ServeError> {
        validate_query(query)?;
        self.counters
            .profile_queries
            .fetch_add(1, Ordering::Relaxed);
        let snapshot = self.snapshot();
        let generation = snapshot.generation();
        let key = CacheKey::profile(query, k);
        if let Some(hit) = self.shared.cache.get(generation, &key) {
            return Ok(hit);
        }
        let answer = snapshot.scan_top_k(query, k);
        self.shared.cache.insert(generation, key, &answer);
        Ok(answer)
    }

    /// Top-`k` users for `query`, anchored at a known similar user:
    /// scores only `anchor` itself plus its two-hop neighborhood (the
    /// same candidate set one KNN iteration explores). Falls back to
    /// the full partition scan when the neighborhood cannot fill `k`
    /// results — e.g. before the first iteration or on isolated
    /// vertices. The anchor is a candidate on both paths, so the two
    /// never disagree about whether it may appear in the results.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownUser`] if `anchor` is out of
    /// range, [`ServeError::NonFiniteQuery`] for a non-finite query
    /// weight.
    pub fn query_profile_near(
        &self,
        anchor: UserId,
        query: &Profile,
        k: usize,
    ) -> Result<Vec<Neighbor>, ServeError> {
        validate_query(query)?;
        self.counters
            .profile_queries
            .fetch_add(1, Ordering::Relaxed);
        let snapshot = self.snapshot();
        if anchor.index() >= snapshot.num_users() {
            return Err(ServeError::UnknownUser {
                user: anchor,
                num_users: snapshot.num_users(),
            });
        }
        let mut hood = snapshot.graph().two_hop_candidates(anchor);
        hood.push(anchor);
        let local = snapshot.rank_candidates(query, hood, k);
        if local.len() >= k {
            return Ok(local);
        }
        Ok(snapshot.scan_top_k(query, k))
    }

    /// Queues a profile update. It is applied by the refinement loop's
    /// next iteration (the engine's lazy phase-5 queue) and becomes
    /// visible in the snapshot published after that iteration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownUser`] or
    /// [`ServeError::NonFiniteWeight`] — validation is synchronous so
    /// bad updates fail at the caller, not in the background — and
    /// [`ServeError::Stopped`] once the refinement loop has terminated
    /// (queries keep answering from the final snapshot; accepted
    /// updates are never dropped: any not yet applied are parked in
    /// the engine's durable phase-5 log on shutdown).
    pub fn submit_update(&self, delta: ProfileDelta) -> Result<(), ServeError> {
        self.shared.ingest.submit(delta)?;
        // A parked (converged/idle) drainer must wake to apply it.
        self.wake.unpark();
        Ok(())
    }

    /// Number of users served.
    pub fn num_users(&self) -> usize {
        self.shared.ingest.num_users()
    }

    /// Current counters.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats(&self.counters)
    }
}
