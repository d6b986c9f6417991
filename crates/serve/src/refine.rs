//! The background half of the service: the refinement loop, the
//! fast-path repair worker, the one publish path, and their control
//! handle.
//!
//! With [`RefineOptions::repair`] off (the default) there is one
//! background thread: it drains the ingest queue, feeds the engine's
//! phase-5 log, runs iterations, and publishes an exact snapshot after
//! each one — updates become visible only at iteration boundaries.
//!
//! With repair on, a second thread (`knn-repair`) owns the ingest
//! queue: it drains updates, applies them to the served view
//! immediately, re-places each touched user by greedy search over the
//! current graph (see [`crate::repair`]), and publishes the patched
//! state as a new epoch tagged [`repaired`](crate::Snapshot::repaired)
//! — ingest-to-visibility is decoupled from iteration time. Drained
//! deltas are then forwarded to the refine thread, which queues them
//! into the engine's durable log and reconciles exactly on its next
//! publish. Both threads publish through one shared [`ViewState`]
//! lock, so epochs stay strictly ordered.
//!
//! [`crate::spawn`] and [`crate::spawn_sharded`] start the same
//! machinery: the loop drives either engine through [`RefineEngine`],
//! and every publish swaps one cell to the global graph and profiles.
//! Sharding lives inside [`ShardedEngine`]; the read side never sees
//! it.
//!
//! A publish copies nothing. Both tables share copy-on-write pages
//! ([`knn_graph::cow`]): an exact publish clones the engine's graph —
//! one reference count per page, no row copied — and a repair writes
//! the view's tables in place, copying only the pages it lands in
//! while earlier snapshots keep theirs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use knn_core::{EngineConfig, EngineError, IterationReport, KnnEngine};
use knn_graph::KnnGraph;
use knn_shard::ShardedEngine;
use knn_sim::{Measure, ProfileDelta, ProfileStore};

use crate::admission::AdmissionConfig;
use crate::breaker::{Breaker, BreakerConfig};
use crate::cache::QueryCache;
use crate::ingest::UpdateIngest;
use crate::repair::{queue_all, repair_touched};
use crate::snapshot::{Snapshot, SnapshotCell};
use crate::ServeError;

/// Deterministic seed of the breaker's backoff jitter (per loop).
const BREAKER_JITTER_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Tuning of the refinement loop.
#[derive(Debug, Clone)]
pub struct RefineOptions {
    /// Stop refining (but keep serving and applying updates) once an
    /// iteration's edge-change fraction drops below this threshold.
    /// `None` refines forever.
    pub convergence_threshold: Option<f64>,
    /// Hard cap on *refinement* iterations. `None` is unbounded.
    /// Streamed updates still force an iteration past the cap — the
    /// visibility contract of
    /// [`submit_update`](crate::KnnService::submit_update) (an
    /// accepted update surfaces in a later snapshot) outranks the cap.
    pub max_iterations: Option<u64>,
    /// How long the loop parks when it has nothing to do (converged
    /// and no pending updates). Submitting an update or stopping the
    /// service wakes it immediately, so this only bounds the latency
    /// of convergence-threshold re-checks.
    pub idle_park: Duration,
    /// Enable the fast-path repair worker: drained updates are placed
    /// into the served graph and published as `repaired: true` epochs
    /// *immediately*, instead of waiting for the next full iteration.
    /// Repaired generations are best-effort (greedy placement); every
    /// exact publish reconciles them. Off by default: with repair off
    /// every published snapshot is an exact engine generation, which
    /// some tests and consumers rely on.
    pub repair: bool,
    /// Admission control on the update ingest queue. Unbounded by
    /// default (the pre-admission behavior); bound it in production so
    /// a submit storm turns into typed
    /// [`ServeError::Overloaded`](crate::ServeError) backpressure
    /// instead of unbounded queue growth.
    pub admission: AdmissionConfig,
    /// Capacity (entries) of the generation-keyed query cache serving
    /// repeat `neighbors`/`query_profile` lookups; invalidated on every
    /// snapshot swap. `0` disables it. Hits are bit-identical to
    /// uncached answers (the cached value is a prior answer for the
    /// same immutable generation).
    pub query_cache: usize,
    /// Backoff schedule of the durable-path circuit breaker: after a
    /// queueing pass with failures, drain/queue is skipped for a
    /// capped, exponentially growing interval so a flapping
    /// [`StorageBackend`](knn_store::StorageBackend) is probed, not
    /// hammered.
    pub breaker: BreakerConfig,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            convergence_threshold: Some(0.01),
            max_iterations: None,
            idle_park: Duration::from_millis(20),
            repair: false,
            admission: AdmissionConfig::default(),
            query_cache: 1024,
            breaker: BreakerConfig::default(),
        }
    }
}

/// What the loop needs of an engine; [`KnnEngine`] and
/// [`ShardedEngine`] both provide it under these very names.
pub(crate) trait RefineEngine: Send + 'static {
    fn config(&self) -> &EngineConfig;
    fn iteration(&self) -> u64;
    fn graph(&self) -> &KnnGraph;
    fn export_profiles(&self) -> Result<ProfileStore, EngineError>;
    fn queue_update(&mut self, delta: &ProfileDelta) -> Result<(), EngineError>;
    fn run_iteration(&mut self) -> Result<IterationReport, EngineError>;
}

impl RefineEngine for KnnEngine {
    fn config(&self) -> &EngineConfig {
        self.config()
    }
    fn iteration(&self) -> u64 {
        self.iteration()
    }
    fn graph(&self) -> &KnnGraph {
        self.graph()
    }
    fn export_profiles(&self) -> Result<ProfileStore, EngineError> {
        self.export_profiles()
    }
    fn queue_update(&mut self, delta: &ProfileDelta) -> Result<(), EngineError> {
        self.queue_update(delta)
    }
    fn run_iteration(&mut self) -> Result<IterationReport, EngineError> {
        self.run_iteration()
    }
}

impl RefineEngine for ShardedEngine {
    fn config(&self) -> &EngineConfig {
        self.config()
    }
    fn iteration(&self) -> u64 {
        self.iteration()
    }
    fn graph(&self) -> &KnnGraph {
        self.graph()
    }
    fn export_profiles(&self) -> Result<ProfileStore, EngineError> {
        self.export_profiles()
    }
    fn queue_update(&mut self, delta: &ProfileDelta) -> Result<(), EngineError> {
        self.queue_update(delta)
    }
    /// Through the sharded driver, so its `reports()` and per-shard
    /// I/O keep filling.
    fn run_iteration(&mut self) -> Result<IterationReport, EngineError> {
        self.run_iteration().map(|sharded| sharded.report)
    }
}

/// The mutable served view both publishers edit under one lock: the
/// repair worker writes its rows in place per drained batch, the
/// refine thread replaces it wholesale per iteration with clones of
/// the engine's tables. Either way it shares pages with the snapshots
/// already published, so neither a publish nor a repair copies more
/// than the pages a repair writes. `epoch` is the single source of
/// publication order.
#[derive(Debug)]
pub(crate) struct ViewState {
    pub(crate) epoch: u64,
    pub(crate) iteration: u64,
    pub(crate) changed_fraction: f64,
    /// The global graph (the repair search runs over it).
    pub(crate) graph: KnnGraph,
    /// The global profile view.
    pub(crate) profiles: ProfileStore,
    /// Deltas already applied to the view (and published as repaired)
    /// but not yet handed to the engine — the repair worker appends,
    /// the refine thread takes.
    pub(crate) pending_engine: Vec<ProfileDelta>,
}

impl ViewState {
    /// The snapshot this view publishes: page-sharing clones of the
    /// global tables, no row copied.
    fn snapshot(&self, measure: Measure, repaired: bool) -> Snapshot {
        Snapshot::new(
            self.epoch,
            self.iteration,
            self.changed_fraction,
            measure,
            self.graph.clone(),
            self.profiles.clone(),
        )
        .with_repaired(repaired)
    }
}

/// Shared state between the service front-end, the handle, and the
/// loop threads.
#[derive(Debug)]
pub(crate) struct Shared {
    /// The one publication cell.
    pub(crate) cell: SnapshotCell,
    pub(crate) ingest: UpdateIngest,
    pub(crate) stop: AtomicBool,
    /// Last published epoch + its condvar, for `wait_for_epoch`;
    /// advanced just after the cell swaps.
    pub(crate) published: Mutex<u64>,
    pub(crate) published_cv: Condvar,
    pub(crate) view: Mutex<ViewState>,
    /// Repaired epochs published so far.
    pub(crate) repaired_epochs: AtomicU64,
    /// Failed `queue_update` attempts (each is retried; see
    /// [`crate::repair::queue_all`]).
    pub(crate) queue_failures: AtomicU64,
    /// Generation-keyed read cache shared by every service clone.
    pub(crate) cache: QueryCache,
    /// Whether the durable-path circuit breaker is currently open
    /// (mirrored here by the loop for `stats()`).
    pub(crate) breaker_open: AtomicBool,
    /// Total milliseconds the breaker has spent open.
    pub(crate) breaker_open_ms: AtomicU64,
    /// The refine thread's handle, set right after spawn — the repair
    /// worker unparks it when it forwards deltas.
    pub(crate) refine_thread: OnceLock<Thread>,
}

impl Shared {
    /// The one publish path; call with the view lock held. Advances
    /// the epoch, swaps the cell to the view's state, and wakes epoch
    /// waiters.
    fn publish(&self, view: &mut ViewState, measure: Measure, repaired: bool) {
        view.epoch += 1;
        self.cell.publish(view.snapshot(measure, repaired));
        self.notify_epoch(view.epoch);
    }

    /// Applies `deltas` to the view, re-places every user they touch,
    /// and publishes the result as a repaired epoch; call with the
    /// view lock held. The writes copy only the pages they land in.
    fn publish_repaired(&self, view: &mut ViewState, measure: Measure, deltas: &[ProfileDelta]) {
        view.profiles.apply_deltas(deltas);
        repair_touched(&mut view.graph, &view.profiles, measure, deltas);
        self.publish(view, measure, true);
    }

    fn notify_epoch(&self, epoch: u64) {
        let mut last = self.published.lock().expect("publish lock poisoned");
        *last = epoch;
        drop(last);
        self.published_cv.notify_all();
    }
}

/// Publishes epoch 0 and starts the background threads. Returns the
/// shared state, the thread a submit must wake, and the control handle.
pub(crate) fn start<E: RefineEngine>(
    engine: E,
    options: RefineOptions,
) -> Result<(Arc<Shared>, Thread, RefineHandle<E>), ServeError> {
    let measure = engine.config().measure();
    let profiles = engine.export_profiles()?;
    let view = ViewState {
        epoch: 0,
        iteration: engine.iteration(),
        changed_fraction: 1.0,
        graph: engine.graph().clone(),
        profiles: profiles.clone(),
        pending_engine: Vec::new(),
    };
    let shared = Arc::new(Shared {
        cell: SnapshotCell::new(view.snapshot(measure, false)),
        ingest: UpdateIngest::with_admission(
            engine.config().num_users(),
            options.admission.clone(),
            options.idle_park,
        ),
        stop: AtomicBool::new(false),
        published: Mutex::new(0),
        published_cv: Condvar::new(),
        view: Mutex::new(view),
        repaired_epochs: AtomicU64::new(0),
        queue_failures: AtomicU64::new(0),
        cache: QueryCache::new(options.query_cache),
        breaker_open: AtomicBool::new(false),
        breaker_open_ms: AtomicU64::new(0),
        refine_thread: OnceLock::new(),
    });

    let worker = if options.repair {
        let worker_shared = Arc::clone(&shared);
        let idle_park = options.idle_park;
        Some(
            std::thread::Builder::new()
                .name("knn-repair".into())
                .spawn(move || repair_worker(&worker_shared, measure, idle_park))
                .expect("spawning the repair worker"),
        )
    } else {
        None
    };
    // Submits wake the thread that drains the ingest queue: the repair
    // worker when repair is on, the refine loop otherwise.
    let wake = worker.as_ref().map(|w| w.thread().clone());

    let loop_shared = Arc::clone(&shared);
    let thread = std::thread::Builder::new()
        .name("knn-refine".into())
        .spawn(move || refine_loop(engine, profiles, loop_shared, options, worker))
        .expect("spawning the refinement thread");
    let wake = wake.unwrap_or_else(|| thread.thread().clone());
    shared
        .refine_thread
        .set(thread.thread().clone())
        .expect("refine thread registered once");

    let handle = RefineHandle {
        shared: Arc::clone(&shared),
        thread,
    };
    Ok((shared, wake, handle))
}

/// The fast-path worker: drain → apply to the view → greedy re-place →
/// publish as a repaired epoch → forward to the refine thread.
fn repair_worker(shared: &Shared, measure: Measure, idle_park: Duration) {
    while !shared.stop.load(Ordering::Acquire) {
        let drained = shared.ingest.drain();
        if drained.is_empty() {
            std::thread::park_timeout(idle_park);
            continue;
        }
        {
            let mut view = shared.view.lock().expect("view lock poisoned");
            shared.publish_repaired(&mut view, measure, &drained);
            view.pending_engine.extend(drained);
        }
        shared.repaired_epochs.fetch_add(1, Ordering::Relaxed);
        // The refine thread must queue the forwarded deltas into the
        // engine's durable log and eventually reconcile.
        if let Some(refine) = shared.refine_thread.get() {
            refine.unpark();
        }
    }
}

fn refine_loop<E: RefineEngine>(
    mut engine: E,
    initial_profiles: ProfileStore,
    shared: Arc<Shared>,
    options: RefineOptions,
    worker: Option<JoinHandle<()>>,
) -> Result<E, ServeError> {
    let mut parked: Vec<ProfileDelta> = Vec::new();
    let result = refine_loop_inner(
        &mut engine,
        initial_profiles,
        &shared,
        &options,
        &mut parked,
    );
    // Terminal path for stop, engine failure, and normal return alike.
    // Order matters: stop and join the repair worker first so nothing
    // drains the ingest queue behind our back, then close the queue so
    // submits start failing with `Stopped`, then move everything
    // accepted but not yet in the engine's durable phase-5 log into
    // it: previously parked deltas (oldest first), deltas the worker
    // forwarded but we never queued, then the closing drain's
    // stragglers. Every delta is attempted — one failure must not drop
    // the rest — and anything that still cannot be persisted is
    // *returned* via [`ServeError::UnpersistedUpdates`], never
    // silently dropped.
    shared.stop.store(true, Ordering::Release);
    if let Some(worker) = worker {
        worker.thread().unpark();
        let _ = worker.join();
    }
    let mut leftovers = {
        let mut view = shared.view.lock().expect("view lock poisoned");
        std::mem::take(&mut view.pending_engine)
    };
    leftovers.extend(shared.ingest.close_and_drain());
    let mut errors = Vec::new();
    queue_all(
        &mut parked,
        leftovers,
        &mut |delta| engine.queue_update(delta).map_err(ServeError::from),
        &mut errors,
    );
    shared
        .queue_failures
        .fetch_add(errors.len() as u64, Ordering::Relaxed);
    if !parked.is_empty() {
        return Err(ServeError::UnpersistedUpdates {
            updates: parked,
            source: errors.pop().map(Box::new),
        });
    }
    result?;
    Ok(engine)
}

fn refine_loop_inner<E: RefineEngine>(
    engine: &mut E,
    initial_profiles: ProfileStore,
    shared: &Shared,
    options: &RefineOptions,
    parked: &mut Vec<ProfileDelta>,
) -> Result<(), ServeError> {
    let measure = engine.config().measure();
    let mut iterations_run = 0u64;
    let mut converged = false;
    // The engine-exact profile view `P(t)`, maintained incrementally:
    // replaying the drained deltas mirrors exactly what the
    // iteration's phase 5 does on disk, without re-reading every
    // partition file per publish; the pages it writes are copied away
    // from the snapshots that share them. (This must start from the
    // engine's own export, *not* the served view — the repair worker
    // may already have written the latter.)
    let mut engine_profiles = initial_profiles;
    // Deltas queued into the engine's log but not yet applied by an
    // iteration.
    let mut unapplied: Vec<ProfileDelta> = Vec::new();
    let mut breaker = Breaker::new(options.breaker, BREAKER_JITTER_SEED);

    while !shared.stop.load(Ordering::Acquire) {
        // While the circuit breaker is open the drain/queue step is
        // skipped entirely: undrained submits stay in the ingest queue
        // (bounded admission turns that into backpressure), forwarded
        // repair deltas stay in the view, and parked deltas are not
        // retried against a backend that just refused them.
        let queued = if breaker.remaining_open(Instant::now()).is_some() {
            Vec::new()
        } else {
            // Intake: with repair on, the worker owns the ingest queue
            // and forwards drained deltas through the view; otherwise
            // we drain the queue directly.
            let fresh = if options.repair {
                let mut view = shared.view.lock().expect("view lock poisoned");
                std::mem::take(&mut view.pending_engine)
            } else {
                shared.ingest.drain()
            };

            // Queue every delta into the engine's durable log, retrying
            // previously failed ones first. Failures park the delta
            // (and its user's later deltas, preserving order) for the
            // next pass; they do not abort the loop.
            let attempted = parked.len() + fresh.len();
            let mut errors = Vec::new();
            let queued = queue_all(
                parked,
                fresh,
                &mut |delta| engine.queue_update(delta).map_err(ServeError::from),
                &mut errors,
            );
            if !errors.is_empty() {
                shared
                    .queue_failures
                    .fetch_add(errors.len() as u64, Ordering::Relaxed);
            }
            breaker.record(Instant::now(), attempted, errors.len());
            queued
        };
        let now = Instant::now();
        shared
            .breaker_open
            .store(breaker.is_open(now), Ordering::Relaxed);
        shared.breaker_open_ms.store(
            breaker.open_total(now).as_millis() as u64,
            Ordering::Relaxed,
        );
        if !queued.is_empty() {
            // New profile data can change similarities: resume refining.
            converged = false;
        }
        unapplied.extend(queued);

        let capped = options
            .max_iterations
            .is_some_and(|max| iterations_run >= max);
        if (capped || converged) && unapplied.is_empty() {
            // Nothing to refine and no updates awaiting application:
            // park until a submit/forward/stop unparks us (or the idle
            // interval elapses and we re-check, which also retries
            // parked deltas).
            std::thread::park_timeout(options.idle_park);
            continue;
        }

        let report = engine.run_iteration()?;
        iterations_run += 1;
        if let Some(threshold) = options.convergence_threshold {
            if report.changed_fraction < threshold {
                converged = true;
            }
        }

        // Phase 5 just applied the engine's whole update log. In the
        // steady state that log is exactly `unapplied`, so the exact
        // view advances by replaying the same deltas in the same
        // order. If the counts disagree (e.g. the engine recovered
        // older updates from a pre-existing on-disk log), fall back to
        // the authoritative full export.
        if report.updates_applied == unapplied.len() as u64 {
            engine_profiles.apply_deltas(&unapplied);
        } else {
            engine_profiles = engine.export_profiles()?;
        }
        unapplied.clear();

        // Exact publish, through the same view lock the repair worker
        // uses so epochs stay strictly ordered. Both clones share
        // every page with their sources.
        let mut view = shared.view.lock().expect("view lock poisoned");
        let state = &mut *view;
        state.graph = engine.graph().clone();
        state.profiles = engine_profiles.clone();
        let mut repaired = false;
        if options.repair {
            // Deltas already visible in the served view (published as
            // repaired) but not in this iteration — forwarded mid-run
            // or still parked on queue failures. Re-apply and re-place
            // them on the fresh exact state so the served view never
            // loses a published update.
            let still_pending: Vec<ProfileDelta> = parked
                .iter()
                .chain(state.pending_engine.iter())
                .cloned()
                .collect();
            if !still_pending.is_empty() {
                state.profiles.apply_deltas(&still_pending);
                repair_touched(&mut state.graph, &state.profiles, measure, &still_pending);
                repaired = true;
            }
        }
        state.iteration = engine.iteration();
        state.changed_fraction = report.changed_fraction;
        shared.publish(state, measure, repaired);
    }
    Ok(())
}

/// Control handle of the refinement loop: stop it, recover the
/// engine, or wait for publications. Dropping the handle without
/// calling [`stop`](RefineHandle::stop) detaches the loop (it keeps
/// refining until the process exits). `E` is the engine the loop
/// drives and [`stop`](RefineHandle::stop) gives back.
#[derive(Debug)]
pub struct RefineHandle<E = KnnEngine> {
    shared: Arc<Shared>,
    thread: JoinHandle<Result<E, ServeError>>,
}

impl<E> RefineHandle<E> {
    /// Signals the loop to stop after its current iteration, joins
    /// the thread (and the repair worker, if any), and returns the
    /// engine (for persistence, batch work, or a later re-spawn).
    ///
    /// # Errors
    ///
    /// Propagates an engine error that terminated the loop early,
    /// [`ServeError::RefineLoopPanicked`] if the thread panicked, or
    /// [`ServeError::UnpersistedUpdates`] carrying every accepted
    /// update that could not be moved into the engine's durable log —
    /// accepted updates are returned, never dropped.
    pub fn stop(self) -> Result<E, ServeError> {
        self.shared.stop.store(true, Ordering::Release);
        self.thread.thread().unpark();
        self.thread
            .join()
            .map_err(|_| ServeError::RefineLoopPanicked)?
    }

    /// Blocks until generation `epoch` (or newer) is published, or
    /// `timeout` elapses. Returns whether the epoch was reached.
    pub fn wait_for_epoch(&self, epoch: u64, timeout: Duration) -> bool {
        let last = self.shared.published.lock().expect("publish lock poisoned");
        let (last, _) = self
            .shared
            .published_cv
            .wait_timeout_while(last, timeout, |last| *last < epoch)
            .expect("publish lock poisoned");
        *last >= epoch
    }

    /// The latest published epoch — the value
    /// [`wait_for_epoch`](RefineHandle::wait_for_epoch) waits on. It is
    /// never behind the generation a reader has loaded.
    pub fn current_epoch(&self) -> u64 {
        self.shared.cell.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_graph::{Neighbor, UserId};
    use knn_sim::generators::{clustered_profiles, ClusteredConfig};
    use knn_sim::{ItemId, Profile};

    /// Twenty pages of rows, so a repair leaves most of them shared.
    const N: usize = 20 * KnnGraph::PAGE_ROWS;

    fn options() -> RefineOptions {
        RefineOptions {
            max_iterations: Some(1),
            idle_park: Duration::from_millis(1),
            repair: true,
            ..RefineOptions::default()
        }
    }

    fn world() -> (EngineConfig, ProfileStore) {
        let (profiles, _) = clustered_profiles(ClusteredConfig::new(N, 7));
        let config = EngineConfig::builder(N).k(4).num_partitions(3).seed(7);
        (config.build().unwrap(), profiles)
    }

    /// Replaces `user`'s profile with one nobody else shares.
    fn loner(user: u32) -> ProfileDelta {
        let mut fresh = Profile::new();
        fresh.set(ItemId::new(9_001), 2.0);
        ProfileDelta::replace(UserId::new(user), fresh)
    }

    /// A deep copy of every row.
    fn rows(g: &KnnGraph) -> Vec<Vec<Neighbor>> {
        (0..g.num_vertices() as u32)
            .map(|u| g.neighbors(UserId::new(u)).to_vec())
            .collect()
    }

    /// Per row: whether `a` and `b` serve it from the same memory.
    fn shared_rows(a: &KnnGraph, b: &KnnGraph) -> Vec<bool> {
        (0..a.num_vertices() as u32)
            .map(UserId::new)
            .map(|u| std::ptr::eq(a.neighbors(u).as_ptr(), b.neighbors(u).as_ptr()))
            .collect()
    }

    /// Waits for `epoch`, then checks that the cell serves the view's
    /// own rows and profiles.
    fn assert_the_cell_serves_the_view<E>(shared: &Shared, handle: &RefineHandle<E>, epoch: u64) {
        assert!(handle.wait_for_epoch(epoch, Duration::from_secs(60)));
        // Publishes hold the view lock, so the cell cannot move on
        // while the two are compared.
        let view = shared.view.lock().unwrap();
        let served = shared.cell.load();
        assert!(shared_rows(served.graph(), &view.graph).iter().all(|&s| s));
        assert!(served
            .profiles()
            .iter()
            .all(|(u, p)| std::ptr::eq(p, view.profiles.get(u))));
    }

    /// Drives the cell through an exact publish and a repaired one:
    /// the exact one serves the engine's own rows, the repaired one
    /// moves only the pages it wrote and leaves the previous snapshot
    /// its rows. Returns the engine, still at the exact generation.
    fn assert_publishes_copy_no_rows<E: RefineEngine>(engine: E) -> E {
        let measure = engine.config().measure();
        let (shared, _, handle) = start(engine, options()).unwrap();
        assert_the_cell_serves_the_view(&shared, &handle, 0);
        assert_the_cell_serves_the_view(&shared, &handle, 1); // the one iteration allowed
        let exact = shared.cell.load();
        assert!(!exact.repaired());
        let rows_before = rows(exact.graph());

        // A repair made the way the worker makes it, but not forwarded
        // to the engine, so the engine stays at the exact generation.
        shared.publish_repaired(&mut shared.view.lock().unwrap(), measure, &[loner(5)]);
        assert_the_cell_serves_the_view(&shared, &handle, 2);
        let repaired = shared.cell.load();
        assert!(repaired.repaired());
        assert_eq!(rows(exact.graph()), rows_before);
        let kept = shared_rows(exact.graph(), repaired.graph());
        for (page, rows) in kept.chunks(KnnGraph::PAGE_ROWS).enumerate() {
            assert!(
                rows.iter().all(|&k| k == rows[0]),
                "page {page} moved in part"
            );
        }
        for (u, &kept) in kept.iter().enumerate() {
            let u = UserId::new(u as u32);
            if exact.graph().neighbors(u) != repaired.graph().neighbors(u) {
                assert!(!kept, "row {u} changed in place");
            }
        }
        assert!(kept.contains(&false), "the repair wrote nothing");
        assert!(kept.contains(&true), "the repair copied every page");

        let engine = handle.stop().unwrap();
        let exact_rows = shared_rows(exact.graph(), engine.graph());
        assert!(
            exact_rows.iter().all(|&s| s),
            "the exact publish copied rows"
        );
        engine
    }

    /// A real update through the ingest queue and the repair worker.
    fn assert_the_worker_publishes_the_view<E: RefineEngine>(engine: E) {
        let (shared, wake, handle) = start(engine, options()).unwrap();
        assert_the_cell_serves_the_view(&shared, &handle, 0);
        shared.ingest.submit(loner(7)).unwrap();
        wake.unpark();
        assert_the_cell_serves_the_view(&shared, &handle, 1); // its repaired publish
        handle.stop().unwrap();
    }

    #[test]
    fn one_cell_publishes_the_global_containers_themselves() {
        let (config, profiles) = world();
        let engine = KnnEngine::in_memory(config, profiles).unwrap();
        assert_the_worker_publishes_the_view(assert_publishes_copy_no_rows(engine));

        // At every shard count: sharding stays inside the engine.
        for shards in 1..=3 {
            let (config, profiles) = world();
            let engine = ShardedEngine::in_memory(config, profiles, shards).unwrap();
            assert_the_worker_publishes_the_view(assert_publishes_copy_no_rows(engine));
        }
    }

    #[test]
    fn current_epoch_is_never_behind_the_served_generation() {
        let (config, profiles) = world();
        let measure = config.measure();
        let engine = KnnEngine::in_memory(config, profiles).unwrap();
        let options = RefineOptions {
            max_iterations: Some(0),
            ..RefineOptions::default()
        };
        let (shared, _, handle) = start(engine, options).unwrap();
        {
            let mut view = shared.view.lock().unwrap();
            view.epoch += 1;
            shared.cell.publish(view.snapshot(measure, false));
            // A reader can be served the new generation now...
            assert_eq!(shared.cell.load().epoch(), view.epoch);
            // ...so the handle must already report it.
            assert_eq!(handle.current_epoch(), view.epoch);
            shared.notify_epoch(view.epoch);
        }
        handle.stop().unwrap();
    }
}
