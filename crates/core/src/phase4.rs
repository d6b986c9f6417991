//! Phase 4: out-of-core KNN computation.
//!
//! Walks the phase-3 schedule with a bounded partition cache (two
//! slots by default, exactly the paper's memory constraint), scores
//! every surviving tuple of the resident pair's buckets in fixed-size
//! chunks (see [Pipeline](#pipeline)) and folds the scores into per-user
//! top-K accumulators. The partition cache holds profiles only; the
//! accumulators are one in-RAM vector indexed by user id, an `O(n·K)`
//! cost beside `G(t)`, seeded from `G(t)` at phase start and moved into
//! `G(t+1)` at the end, so phase 4 writes nothing.
//!
//! # The scoring funnel
//!
//! A tuple reaches a kernel only through these stages, and every
//! decision is a pure function of iteration-start state plus the
//! deterministic bucket order — so the counters and the resulting
//! graph are identical at every thread count:
//!
//! 0. **Symmetric pair dedup** — the generator
//!    ([`pair_candidates`]) emits each unordered pair once, its row
//!    carrying the [`meta_bits`] direction bits of the directed
//!    candidates that exist, so the symmetric kernel runs once per pair
//!    and its score is offered along every recorded direction.
//! 1. **Prepared profiles** — a partition load materializes its
//!    profiles as one [`ProfileArena`] (split id / weight columns),
//!    hoisting the per-profile aggregates (L2 norm, weight sum,
//!    extrema, block sketches) out of the kernels.
//! 2. **Offer-time suppression** (`sims_skipped`) — decided by the
//!    generator, per path: a directed candidate whose verdict is already known
//!    (all-old generating path between users whose standing is
//!    provably unchanged) is never offered; instead the user's
//!    accumulator starts from its `G(t)` row, which carries the prior
//!    verdict. A member updated in the last phase 5 is seeded with the
//!    fresh score phase 5's stale-seed sweep computed, and the row is
//!    seeded at all only if no fresh score fell behind its old k-th
//!    entry (see [`seed_accumulators`]). Phase 4 scores what the
//!    generated rows hold.
//! 3. **Bound-based filtering** (`sims_pruned`) — a tuple is scored
//!    only if its O(1) score ceiling ([`Measure::upper_bound_ref`])
//!    could still beat the current k-th entry of the target
//!    accumulator(s). A bucket is filtered against a copy of the
//!    thresholds as they stand at its dispatch, which lag one bucket
//!    behind (bucket `j` sees every score of buckets up to `j−2`); a
//!    stale threshold only under-prunes, never over-prunes. A hit-rate
//!    gate, counted per chunk, stands the check down where it cannot
//!    win. Every unique tuple is either pruned here or computed.
//!
//! Both pruning stages are **exact**: they only ever drop evaluations
//! whose outcome is already decided, so `G(t+1)` is identical with
//! pruning on, off, or partially applicable.
//!
//! # The row kernel
//!
//! Bucket tuples are sorted by `(u, v)`, so the survivors of a bucket
//! are runs of candidates sharing a source row. `score_chunk` loads
//! each run's source into a [`RowKernel`] once and scores the whole
//! run against it by walking only the candidates' id columns — not one
//! two-pointer merge per pair. Scores are bit-identical to the pair
//! kernel ([`Measure::score_ref`]), so nothing downstream can tell.
//!
//! # Pipeline
//!
//! A bucket's rows are cut into chunks of [`CHUNK`] rows, whatever the
//! thread count. One chunk is one task: validate its rows, run the
//! bound filter, score the survivors, and keep each score only for the
//! accumulators whose copied threshold it beats (the rest could not
//! land anyway). With `threads > 1` a pool of `threads − 1` workers,
//! spawned once per phase-4 run, claims the chunks of the dispatched
//! bucket through an atomic cursor; workers never touch the
//! accumulators, only the bucket's threshold copies. Meanwhile the
//! driving thread works in a fixed order, to a depth of one bucket:
//!
//! 1. dispatch bucket `j` to the pool;
//! 2. apply bucket `j−1`'s offers to the accumulators, in chunk order;
//! 3. prepare bucket `j+1`: generate its rows from the resident `G(t)`
//!    ([`pair_candidates`] generates both buckets of a pair in one walk;
//!    a bucket that generates no row is skipped) and copy the thresholds
//!    of its two partitions' users (no score lands between this copy and
//!    `j+1`'s dispatch, so it is the dispatch-time state);
//! 4. collect bucket `j`: claim and run its unclaimed chunks, then wait
//!    for the workers' results.
//!
//! So `threads` threads compute at once: the driving thread's own
//! stages take the place of one worker, and it scores when they are
//! done.
//!
//! With one thread the same order runs inline (score `j`, then apply
//! `j−1`), so every counter is identical at every thread count. The
//! partition loads stay on the driving thread, between steps. In
//! flight at once: the generated rows and threshold copies of buckets
//! `j` and `j+1`, plus the rows of `j+1`'s sibling when it heads a pair
//! (no bucket is ever written out or read back), and the offers of
//! buckets `j−1` and `j`; the cache still holds two arenas.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use knn_graph::{KnnGraph, Neighbor, UserId};
use knn_sim::{Measure, PreparedRef, ProfileArena, RowKernel};
use knn_store::backend::read_user_lists;
use knn_store::{CacheCounters, SlotCache, StorageBackend, StoreError, StreamId};

use crate::metrics::TupleStats;
use crate::partition::Partitioning;
use crate::phase2::{pair_candidates, Legs, PruneState};
use crate::topk::TopKAccumulator;
use crate::traversal::Schedule;
use crate::EngineError;

/// One canonical candidate row `(u, v, bits)`: the unordered pair
/// `u < v` and its [`meta_bits`].
pub(crate) type TupleRow = (u32, u32, u8);

/// The direction bits of one **canonical** (undirected) tuple `(u, v)`
/// with `u < v`: which of the two directed candidate tuples exist. They
/// are what lets phase 4 evaluate each unordered pair's symmetric
/// kernel once and still make exactly the offers the directed tuple
/// set implies.
pub(crate) mod meta_bits {
    /// The directed tuple `(u, v)` exists (`v` is a candidate for `u`).
    pub(crate) const FWD: u8 = 1;
    /// The directed tuple `(v, u)` exists (`u` is a candidate for `v`).
    pub(crate) const BWD: u8 = 2;
}

/// Bucket rows per scoring task. It does not depend on the thread
/// count, so neither do the chunk boundaries, the per-chunk filter
/// gate, or any counter.
pub(crate) const CHUNK: usize = 4096;

/// Options of one phase-4 run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Phase4Options {
    /// The KNN bound `K`.
    pub k: usize,
    /// Similarity measure.
    pub measure: Measure,
    /// Threads that filter and score, the driving thread included.
    pub threads: usize,
    /// Partition cache slots (≥ 2).
    pub cache_slots: usize,
    /// Offer each tuple's source as a candidate to its destination too.
    pub include_reverse: bool,
    /// Skip kernel evaluations whose O(1) score upper bound cannot
    /// beat the current k-th accumulator entry (exact — never changes
    /// the graph).
    pub bound_filter: bool,
    /// Bucket rows per scoring task: [`CHUNK`], except in tests that
    /// cut small buckets into many chunks.
    pub chunk: usize,
}

/// Result of one phase-4 run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Phase4Output {
    /// The next KNN graph `G(t+1)`.
    pub graph: KnnGraph,
    /// Accumulator entries seeded from `G(t)`'s rows (fresh scores
    /// for updated members).
    pub accums_seeded: u64,
    /// Partition cache operation counts (the real Table-1 metric).
    pub cache: CacheCounters,
    /// Similarity evaluations performed.
    pub sims_computed: u64,
    /// Tuples dropped by the upper-bound filter (ceiling could not
    /// beat the current k-th accumulator entry).
    pub sims_pruned: u64,
    /// Candidate counts summed over the generated buckets.
    pub tuples: TupleStats,
    /// Rows of the diagonal buckets (both endpoints in one partition).
    pub intra_partition_tuples: u64,
}

/// A canonical tuple queued for scoring: endpoints, their rows in the
/// source and destination partition (resolved once, by the filter),
/// and which accumulators its score goes into, as [`meta_bits`]:
/// `FWD` for `u`'s, `BWD` for `v`'s (the directions phase 2 recorded,
/// widened by `include_reverse`).
type PendingTuple = (u32, u32, u32, u32, u8);

/// A score bound for the accumulators: `(u, v, into, sim)`, with
/// `into` as in [`PendingTuple`].
type Offer = (u32, u32, u8, f32);

/// What one chunk task returns: the offers that can still land, the
/// similarity evaluations it performed and the rows it pruned.
struct Scored {
    offers: Vec<Offer>,
    computed: u64,
    pruned: u64,
}

/// Scores a chunk through the row kernel (see the module docs), one
/// similarity per tuple in tuple order. A chunk boundary may split a
/// run; the next chunk just loads the row again.
fn score_chunk(
    src: &ProfileArena,
    dst: &ProfileArena,
    tuples: &[PendingTuple],
    measure: Measure,
) -> Vec<f32> {
    let mut kernel = RowKernel::new(measure);
    let mut resident = None;
    tuples
        .iter()
        .map(|&(_, _, u_row, v_row, _)| {
            if resident != Some(u_row) {
                kernel.load(src.view(u_row));
                resident = Some(u_row);
            }
            kernel.score(dst.view(v_row))
        })
        .collect()
}

/// Scores the pair `{a, b}` exactly as [`score_chunk`] scores its
/// canonical tuple `(min, max)`: the smaller id's row resident in
/// `kernel`, the larger id's row scored against it.
pub(crate) fn score_canonical(
    kernel: &mut RowKernel,
    a: (u32, PreparedRef<'_>),
    b: (u32, PreparedRef<'_>),
) -> f32 {
    let (lo, hi) = if a.0 < b.0 { (a.1, b.1) } else { (b.1, a.1) };
    kernel.load(lo);
    kernel.score(hi)
}

/// Loads partition `p`'s profiles as one CSR [`ProfileArena`] in
/// ascending-user row order (read-only during the iteration, shared
/// with scoring workers via `Arc`).
pub(crate) fn load_arena(
    backend: &dyn StorageBackend,
    p: u32,
) -> Result<Arc<ProfileArena>, EngineError> {
    let profile_rows = read_user_lists(backend, StreamId::Profiles(p))?;
    let total_entries: usize = profile_rows.iter().map(|(_, row)| row.len()).sum();
    // One pass over the (user-sorted) stream materializes the CSR
    // arena; per-user aggregates are computed as rows are appended.
    let mut builder = ProfileArena::builder(profile_rows.len(), total_entries);
    for (user, row) in profile_rows {
        builder.push(user, row).map_err(|e| {
            EngineError::Store(StoreError::corrupt(
                backend.describe(StreamId::Profiles(p)),
                format!("invalid profile for user {user}: {e}"),
            ))
        })?;
    }
    Ok(Arc::new(builder.finish()))
}

/// One top-K accumulator per user of `graph`. Without `prune` every
/// accumulator starts empty (the classic full-rescore path). With it,
/// the accumulator of each user `u` with
/// [`seed_ok[u]`](PruneState::seed_ok) is seeded by offering `u`'s
/// `G(t)` row, replaying iteration `t-1`'s verdict so that phase 2 can
/// drop offers of pairs already evaluated. A member whose profile
/// changed in the last phase 5 is seeded with its fresh score from
/// [`PruneState::fresh`], never the stale `G(t)` one; every other
/// member's score is still valid. The engine sets `seed_ok[u]` only
/// when `u`'s own profile is clean, the row holds no unscored
/// sentinel, and no fresh score falls behind the row's old k-th
/// entry. Returns the accumulators and the number of seeded entries.
fn seed_accumulators(
    graph: &KnnGraph,
    prune: Option<&PruneState>,
    k: usize,
) -> (Vec<TopKAccumulator>, u64) {
    let mut seeded = 0u64;
    // `fresh` is sorted by user: each user takes its run off the front.
    let mut fresh = prune.map_or(&[][..], |state| &state.fresh[..]);
    let accums = (0..graph.num_vertices())
        .map(|u| {
            let mut acc = TopKAccumulator::new(k);
            let run = fresh.partition_point(|&(v, ..)| v as usize == u);
            let (mine, rest) = fresh.split_at(run);
            fresh = rest;
            if prune.is_some_and(|state| state.seed_ok[u]) {
                let row = graph.neighbors(UserId::new(u as u32));
                for &nb in row {
                    let sim = mine
                        .iter()
                        .find(|&&(_, d, _)| d == nb.id.raw())
                        .map_or(nb.sim, |&(.., sim)| sim);
                    acc.offer(Neighbor::new(nb.id, sim));
                }
                seeded += row.len() as u64;
            }
            acc
        })
        .collect();
    (accums, seeded)
}

/// Runs phase 4 over the given schedule: seeds the accumulators from
/// `graph` = `G(t)` and `prune` (see [`seed_accumulators`]), generates
/// the buckets of every scheduled pair from `legs` (`G(t)`'s index),
/// scores every row the bound filter does not prune, and harvests
/// `G(t+1)`.
///
/// # Errors
///
/// Returns [`EngineError::Store`] on I/O failure or corrupt profile
/// streams, and [`EngineError::InputMismatch`] if a tuple references a
/// user missing from its partition's profile stream.
pub(crate) fn run_phase4(
    schedule: &Schedule,
    legs: &Legs,
    partitioning: &Partitioning,
    backend: &dyn StorageBackend,
    graph: &KnnGraph,
    prune: Option<&PruneState>,
    options: &Phase4Options,
) -> Result<Phase4Output, EngineError> {
    let (mut accums, accums_seeded) = seed_accumulators(graph, prune, options.k);
    let mut run = |pool| {
        drive(
            schedule,
            legs,
            partitioning,
            backend,
            options,
            &mut accums,
            pool,
        )
    };
    let (cache, sims_computed, sims_pruned, counts) = if options.threads <= 1 {
        run(None)?
    } else {
        // One pool for the whole run; the driving thread is the last
        // of the `threads`. `drive` owns the pool, so however it
        // leaves, the job channels close and the workers exit once
        // they finish the chunks they claimed.
        std::thread::scope(|scope| {
            let (result_tx, results) = mpsc::channel();
            let jobs = (1..options.threads)
                .map(|_| {
                    let (job_tx, job_rx) = mpsc::channel();
                    let result_tx = result_tx.clone();
                    scope.spawn(move || work(job_rx, result_tx));
                    job_tx
                })
                .collect();
            drop(result_tx);
            run(Some(WorkerPool { jobs, results }))
        })?
    };

    // Harvest: every accumulator becomes its user's G(t+1) row.
    let mut next = KnnGraph::new(accums.len(), options.k);
    for (u, acc) in accums.into_iter().enumerate() {
        next.set_neighbors(UserId::new(u as u32), acc.into_sorted())?;
    }
    Ok(Phase4Output {
        graph: next,
        accums_seeded,
        cache,
        sims_computed,
        sims_pruned,
        tuples: TupleStats {
            offered: counts.offered,
            unique: counts.unique,
            duplicates: counts.offered - counts.unique,
        },
        intra_partition_tuples: counts.intra,
    })
}

/// Row counts of the buckets generated so far.
#[derive(Debug, Default)]
struct Counts {
    offered: u64,
    unique: u64,
    intra: u64,
}

/// A bucket's inputs, prepared by the driving thread ahead of its
/// dispatch: the generated rows, and the k-th accumulator entry of every
/// user of its source and destination partition, indexed by row within
/// the partition.
struct Prepared {
    rows: Vec<TupleRow>,
    thresholds: [Vec<Option<Neighbor>>; 2],
}

/// Copies bucket `(src, dst)`'s partitions' thresholds from `accums`
/// as they stand now: O(users of the two partitions), not O(rows).
fn prepare(
    rows: Vec<TupleRow>,
    partitioning: &Partitioning,
    accums: &[TopKAccumulator],
    (src, dst): (u32, u32),
) -> Prepared {
    let copy = |p: u32| -> Vec<Option<Neighbor>> {
        partitioning
            .users_of(p)
            .iter()
            .map(|u| accums.get(u.index()).and_then(TopKAccumulator::threshold))
            .collect()
    };
    Prepared {
        rows,
        thresholds: [copy(src), copy(dst)],
    }
}

/// One bucket's scoring work, shared read-only by its chunk tasks: its
/// [`Prepared`] inputs and both partitions' arenas (owned, so a job
/// outlives a cache eviction).
struct BucketJob<'a> {
    input: Prepared,
    src: Arc<ProfileArena>,
    dst: Arc<ProfileArena>,
    row_of: &'a [u32],
    options: &'a Phase4Options,
    /// The next chunk to claim, by a worker or the driving thread.
    cursor: AtomicUsize,
}

impl<'a> BucketJob<'a> {
    fn chunks(&self) -> usize {
        self.input.rows.len().div_ceil(self.options.chunk)
    }

    /// The next unclaimed chunk, if any.
    fn claim(&self) -> Option<usize> {
        // Relaxed: the cursor only hands out indices; the job's data
        // was published by the channel send that delivered it.
        let c = self.cursor.fetch_add(1, Ordering::Relaxed);
        (c < self.chunks()).then_some(c)
    }

    /// Chunk `c`'s task: validate, filter, score, and keep each score
    /// only for the accumulators it beats. A score that does not beat
    /// the copied k-th entry cannot beat the current one either, since
    /// thresholds only tighten, so dropping it here is exact and spares
    /// the driving thread the offer.
    fn run_chunk(&self, c: usize) -> Result<Scored, EngineError> {
        let start = c * self.options.chunk;
        let end = self.input.rows.len().min(start + self.options.chunk);
        let (survivors, pruned) = self.filter(&self.input.rows[start..end])?;
        let scores = score_chunk(&self.src, &self.dst, &survivors, self.options.measure);
        let mut offers = Vec::with_capacity(survivors.len());
        for (&(u, v, u_row, v_row, into), &sim) in survivors.iter().zip(&scores) {
            // Does the score reach accumulator `side` (bit `bit`) of
            // `row` as a candidate `cand`?
            let lands = |bit: u8, side: usize, row: u32, cand: u32| {
                into & bit != 0
                    && self
                        .threshold(side, row)
                        .is_none_or(|thr| Neighbor::new(UserId::new(cand), sim).beats(&thr))
            };
            let lands_in = (u8::from(lands(meta_bits::FWD, 0, u_row, v)) * meta_bits::FWD)
                | (u8::from(lands(meta_bits::BWD, 1, v_row, u)) * meta_bits::BWD);
            if lands_in != 0 {
                offers.push((u, v, lands_in, sim));
            }
        }
        Ok(Scored {
            offers,
            computed: scores.len() as u64,
            pruned,
        })
    }

    /// The copied k-th entry of the user at `row` of the source
    /// (`side` 0) or destination (`side` 1) partition. A row the
    /// partitioning does not know has none: its tuple is scored and
    /// offered, never wrongly dropped.
    fn threshold(&self, side: usize, row: u32) -> Option<Neighbor> {
        self.input.thresholds[side]
            .get(row as usize)
            .copied()
            .flatten()
    }

    /// Every chunk in order on the calling thread; the first error
    /// wins, as it does on the pool.
    fn run_inline(&self) -> Result<Vec<Scored>, EngineError> {
        (0..self.chunks()).map(|c| self.run_chunk(c)).collect()
    }

    /// The scoring funnel of one chunk: validates every canonical
    /// tuple's endpoints, applies the upper-bound filter per recorded
    /// direction, and returns `(survivors, pruned)`.
    ///
    /// Thresholds are the prepared copies; since thresholds only
    /// tighten as scores arrive, a stale threshold can only
    /// *under*-prune — the filter is exact regardless of bucket or
    /// thread scheduling.
    fn filter(&self, rows: &[TupleRow]) -> Result<(Vec<PendingTuple>, u64), EngineError> {
        let (src, dst, options) = (&*self.src, &*self.dst, self.options);
        let mut survivors: Vec<PendingTuple> = Vec::with_capacity(rows.len());
        let mut pruned = 0u64;
        let mut bound_attempts = 0u64;
        let mut bound_hits = 0u64;

        // The row of `user` in `arena`, or the typed error for a tuple
        // naming a user the partition's profile stream does not hold.
        let row_in = |arena: &ProfileArena, user: u32, (u, v): (u32, u32)| {
            self.row_of
                .get(user as usize)
                .copied()
                .filter(|&row| arena.users().get(row as usize) == Some(&user))
                .ok_or_else(|| {
                    EngineError::input(format!(
                        "tuple ({u}, {v}) references a user missing from its partition file"
                    ))
                })
        };

        // Bucket tuples are sorted by (u, v): walk them in equal-u
        // groups so the per-user lookups (arena row, threshold) happen
        // once per group instead of once per tuple.
        let mut start = 0usize;
        while start < rows.len() {
            let u = rows[start].0;
            let end = start + rows[start..].partition_point(|t| t.0 == u);
            let u_idx = row_in(src, u, (u, rows[start].1))?;
            let up = src.view(u_idx);
            let u_threshold = self.threshold(0, u_idx);
            for &(_, v, bits) in &rows[start..end] {
                let v_idx = row_in(dst, v, (u, v))?;
                // Which accumulators would a fresh score have to beat?
                let (fwd, bwd) = (bits & meta_bits::FWD != 0, bits & meta_bits::BWD != 0);
                let into_u = fwd || (options.include_reverse && bwd);
                let into_v = bwd || (options.include_reverse && fwd);
                if options.bound_filter {
                    let gate_open = bound_attempts < GATE_WINDOW
                        || bound_hits << GATE_MIN_HIT_SHIFT >= bound_attempts;
                    if gate_open {
                        bound_attempts += 1;
                        // A target accumulator that is not full takes
                        // any score: no ceiling can prune, so skip it.
                        let v_threshold = self.threshold(1, v_idx);
                        let prunable = (!into_u || u_threshold.is_some())
                            && (!into_v || v_threshold.is_some())
                            && {
                                let bound = options.measure.upper_bound_ref(up, dst.view(v_idx));
                                let cannot_beat = |cand: u32, thr: Option<Neighbor>| {
                                    thr.is_some_and(|thr| {
                                        !Neighbor::new(UserId::new(cand), bound).beats(&thr)
                                    })
                                };
                                bound.is_finite()
                                    && (!into_u || cannot_beat(v, u_threshold))
                                    && (!into_v || cannot_beat(u, v_threshold))
                            };
                        if prunable {
                            // Even the score ceiling cannot displace the
                            // current k-th entry anywhere this tuple
                            // would be offered.
                            bound_hits += 1;
                            pruned += 1;
                            continue;
                        }
                    }
                }
                let into =
                    (u8::from(into_u) * meta_bits::FWD) | (u8::from(into_v) * meta_bits::BWD);
                survivors.push((u, v, u_idx, v_idx, into));
            }
            start = end;
        }
        Ok((survivors, pruned))
    }
}

/// The scoring pool of one phase-4 run: one job channel per worker and
/// one result channel, each result tagged with its chunk index.
struct WorkerPool<'a> {
    jobs: Vec<mpsc::Sender<Arc<BucketJob<'a>>>>,
    results: mpsc::Receiver<(usize, Result<Scored, EngineError>)>,
}

impl<'a> WorkerPool<'a> {
    fn dispatch(&self, job: &Arc<BucketJob<'a>>) {
        for tx in &self.jobs {
            tx.send(Arc::clone(job))
                .expect("workers alive while the run drives them");
        }
    }

    /// Runs the dispatched job's unclaimed chunks on the calling
    /// thread, waits for the workers' chunks, and returns the results
    /// in chunk order; the lowest-index error wins, as inline.
    fn collect(&self, job: &BucketJob<'a>) -> Result<Vec<Scored>, EngineError> {
        let chunks = job.chunks();
        let mut slots: Vec<Option<Result<Scored, EngineError>>> =
            (0..chunks).map(|_| None).collect();
        let mut outstanding = chunks;
        while let Some(c) = job.claim() {
            slots[c] = Some(job.run_chunk(c));
            outstanding -= 1;
        }
        for _ in 0..outstanding {
            let (c, scored) = self.results.recv().expect("worker delivered its chunk");
            slots[c] = Some(scored);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every chunk delivered"))
            .collect()
    }
}

/// A pool worker: claims chunks of each job it is sent until the job's
/// cursor runs past the end, and exits when its job channel closes or
/// the driving thread stops listening.
fn work(
    jobs: mpsc::Receiver<Arc<BucketJob<'_>>>,
    results: mpsc::Sender<(usize, Result<Scored, EngineError>)>,
) {
    while let Ok(job) = jobs.recv() {
        while let Some(c) = job.claim() {
            if results.send((c, job.run_chunk(c))).is_err() {
                return;
            }
        }
    }
}

/// Walks the schedule, folding every surviving score into `accums`
/// (indexed by user id) through the depth-one pipeline of the module
/// docs. Returns the cache counters, the similarity evaluations
/// performed, the tuples the bound filter pruned and the generated
/// buckets' row counts.
fn drive<'a>(
    schedule: &Schedule,
    legs: &Legs,
    partitioning: &'a Partitioning,
    backend: &dyn StorageBackend,
    options: &'a Phase4Options,
    accums: &mut [TopKAccumulator],
    pool: Option<WorkerPool<'a>>,
) -> Result<(CacheCounters, u64, u64, Counts), EngineError> {
    let mut cache: SlotCache<Arc<ProfileArena>> =
        SlotCache::new(options.cache_slots).with_io_stats(Arc::clone(backend.stats()));
    let mut sims_computed = 0u64;
    let mut sims_pruned = 0u64;
    let mut counts = Counts::default();

    // The schedule's steps, generated a pair at a time: both directed
    // buckets of a pair (one for a self-pair), tagged with the step.
    let mut steps = schedule.iter().enumerate();
    let mut generated: std::collections::VecDeque<(usize, u32, u32, Vec<TupleRow>)> =
        std::collections::VecDeque::new();
    // The next bucket that has rows, with its thresholds copied as
    // they stand now.
    let mut generate_next = |accums: &[TopKAccumulator]| loop {
        if let Some((i, src, dst, rows)) = generated.pop_front() {
            if !rows.is_empty() {
                return Some((i, src, dst, prepare(rows, partitioning, accums, (src, dst))));
            }
            continue;
        }
        let (i, step) = steps.next()?;
        let keys = [(step.a, step.b), (step.b, step.a)];
        for (bucket, (src, dst)) in pair_candidates(legs, partitioning, keys[0])
            .into_iter()
            .zip(keys)
        {
            counts.offered += bucket.offered;
            counts.unique += bucket.rows.len() as u64;
            if src == dst {
                counts.intra += bucket.rows.len() as u64;
            }
            generated.push_back((i, src, dst, bucket.rows));
        }
    };
    let mut ahead = generate_next(accums); // bucket j
    let mut unapplied: Vec<Scored> = Vec::new(); // bucket j−1

    for (i, step) in schedule.iter().enumerate() {
        cache.ensure(step.a, None, |p| load_arena(backend, p))?;
        if !step.is_self() {
            cache.ensure(step.b, Some(step.a), |p| load_arena(backend, p))?;
        }
        while ahead.as_ref().is_some_and(|&(step, ..)| step == i) {
            let (_, src, dst, input) = ahead.take().expect("checked above");
            let job = Arc::new(BucketJob {
                input,
                src: Arc::clone(cache.get(src).expect("src resident")),
                dst: Arc::clone(cache.get(dst).expect("dst resident")),
                row_of: partitioning.rows(),
                options,
                cursor: AtomicUsize::new(0),
            });
            // 1. Dispatch bucket j, or score it now on one thread.
            let inline = match &pool {
                Some(pool) => {
                    pool.dispatch(&job);
                    None
                }
                None => Some(job.run_inline()),
            };
            // 2. Apply bucket j−1.
            apply_scores(accums, &std::mem::take(&mut unapplied));
            // 3. Prepare bucket j+1. No score lands before its dispatch,
            //    so these are the thresholds it would see then.
            ahead = generate_next(accums);
            // 4. Collect bucket j.
            unapplied = inline
                .unwrap_or_else(|| pool.as_ref().expect("dispatched to the pool").collect(&job))?;
            for scored in &unapplied {
                sims_computed += scored.computed;
                sims_pruned += scored.pruned;
            }
        }
    }
    apply_scores(accums, &unapplied);

    cache.flush();
    Ok((cache.counters(), sims_computed, sims_pruned, counts))
}

/// After this many bound evaluations in one chunk with a hit rate
/// below [`GATE_MIN_HIT_SHIFT`], the bound filter stands down for the
/// chunk's remainder: on candidate pools where the ceiling can rarely
/// beat the thresholds (e.g. an almost-converged in-cluster pool), the
/// checks would be pure overhead. Chunk boundaries are fixed
/// ([`CHUNK`]), so the gate — and therefore `sims_pruned` — is
/// deterministic across thread counts.
const GATE_WINDOW: u64 = 1024;

/// Gate threshold: keep checking while `hits << GATE_MIN_HIT_SHIFT >=
/// attempts`, i.e. at least 1 prune per 32 attempts.
const GATE_MIN_HIT_SHIFT: u64 = 5;

/// Applies a bucket's offers, in chunk order, to the accumulators they
/// name.
fn apply_scores(accums: &mut [TopKAccumulator], scored: &[Scored]) {
    for &(u, v, into, sim) in scored.iter().flat_map(|chunk| &chunk.offers) {
        if into & meta_bits::FWD != 0 {
            accums[u as usize].offer(Neighbor::new(UserId::new(v), sim));
        }
        if into & meta_bits::BWD != 0 {
            accums[v as usize].offer(Neighbor::new(UserId::new(u), sim));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase1::reshard_profiles;
    use crate::phase2::{bucket_candidates, live_buckets};
    use crate::traversal::Heuristic;
    use crate::PiGraph;
    use knn_sim::ProfileStore;
    use knn_store::backend::write_user_lists;

    fn options(k: usize, threads: usize) -> Phase4Options {
        Phase4Options {
            k,
            measure: Measure::Cosine,
            threads,
            cache_slots: 2,
            include_reverse: false,
            bound_filter: false,
            chunk: CHUNK,
        }
    }

    /// A world's candidate side: `G(t)`'s legs and the live pairs.
    struct Candidates {
        legs: Legs,
        pi: PiGraph,
    }

    /// Builds a tiny world: n users in m partitions with simple
    /// profiles written to the backend, and a given KNN graph indexed.
    fn setup_world(
        g: &KnnGraph,
        profiles: &ProfileStore,
        m: usize,
    ) -> (knn_store::MemBackend, Partitioning, Candidates) {
        let n = g.num_vertices();
        let b = knn_store::MemBackend::new();
        let assignment: Vec<u32> = (0..n).map(|u| (u % m) as u32).collect();
        let p = Partitioning::from_assignment(assignment, m).unwrap();
        reshard_profiles(&b, None, &p, Some(profiles), 1).unwrap();
        let legs = Legs::new(g, &p, None);
        let pi = live_buckets(&legs, &p).pi;
        (b, p, Candidates { legs, pi })
    }

    fn line_profiles(n: usize) -> ProfileStore {
        // User u rates items u and u+1: consecutive users overlap.
        let mut store = ProfileStore::new(n);
        for u in 0..n as u32 {
            let p = store.get_mut(UserId::new(u));
            p.set(knn_sim::ItemId::new(u), 1.0);
            p.set(knn_sim::ItemId::new(u + 1), 1.0);
        }
        store
    }

    #[test]
    fn single_pair_scores_and_harvests() {
        // 0 → 1 with overlapping profiles: G(1)[0] must contain 1.
        let mut g = KnnGraph::new(2, 1);
        g.insert(UserId::new(0), Neighbor::unscored(UserId::new(1)));
        let profiles = line_profiles(2);
        let (b, p, p2) = setup_world(&g, &profiles, 2);
        let schedule = Heuristic::Sequential.schedule(&p2.pi);
        let out = run_phase4(&schedule, &p2.legs, &p, &b, &g, None, &options(1, 1)).unwrap();
        let nbrs = out.graph.neighbors(UserId::new(0));
        assert_eq!(nbrs.len(), 1);
        assert_eq!(nbrs[0].id, UserId::new(1));
        assert!((nbrs[0].sim - 0.5).abs() < 1e-6, "cosine of half-overlap");
        assert_eq!(out.sims_computed, 1);
        assert_eq!(out.sims_pruned, 0);
    }

    #[test]
    fn result_is_heuristic_independent() {
        let n = 36;
        let g = KnnGraph::random_init(n, 4, 3);
        let profiles = line_profiles(n);
        let mut results = Vec::new();
        for h in Heuristic::ALL {
            let (b, p, p2) = setup_world(&g, &profiles, 4);
            let schedule = h.schedule(&p2.pi);
            let out = run_phase4(&schedule, &p2.legs, &p, &b, &g, None, &options(4, 1)).unwrap();
            results.push((h, out.graph));
        }
        for (h, g2) in &results[1..] {
            assert_eq!(g2, &results[0].1, "{h} produced a different G(t+1)");
        }
    }

    #[test]
    fn result_is_thread_count_independent() {
        let n = 48;
        let g = KnnGraph::random_init(n, 5, 7);
        let profiles = line_profiles(n);
        let mut results = Vec::new();
        for threads in [1, 2, 4] {
            let (b, p, p2) = setup_world(&g, &profiles, 3);
            let schedule = Heuristic::DegreeLowHigh.schedule(&p2.pi);
            let out =
                run_phase4(&schedule, &p2.legs, &p, &b, &g, None, &options(5, threads)).unwrap();
            results.push(out.graph);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    /// Buckets of many chunks: the pool and the inline path agree on
    /// the graph and on every counter at every thread count, at the
    /// production chunk size and at a small one, with and without
    /// reverse offers (which read both endpoints' threshold copies).
    #[test]
    fn pool_path_matches_inline_across_many_chunks() {
        let n = 600;
        let g = KnnGraph::random_init(n, 6, 2);
        let profiles = varied_profiles(n);
        let (b, p, p2) = setup_world(&g, &profiles, 2);
        assert!(
            bucket_order(&Heuristic::Sequential.schedule(&p2.pi), &p2.legs, &p)
                .iter()
                .all(|&(src, dst)| bucket_candidates(&p2.legs, &p, (src, dst)).rows.len() > 4 * 64),
            "test needs buckets of several chunks"
        );
        let schedule = Heuristic::Sequential.schedule(&p2.pi);
        for (chunk, include_reverse) in [(CHUNK, false), (64, false), (64, true)] {
            let mut results = Vec::new();
            for threads in [1, 2, 3, 4] {
                let mut opts = options(6, threads);
                opts.measure = Measure::Jaccard;
                opts.include_reverse = include_reverse;
                opts.bound_filter = true;
                opts.chunk = chunk;
                let out = run_phase4(&schedule, &p2.legs, &p, &b, &g, None, &opts).unwrap();
                results.push((out.graph, out.sims_computed, out.sims_pruned, out.cache));
            }
            let case = format!("chunk={chunk} include_reverse={include_reverse}");
            assert!(results[0].2 > 0, "{case}: the filter never pruned");
            for (threads, r) in [2, 3, 4].iter().zip(&results[1..]) {
                assert_eq!(&results[0], r, "{case} threads={threads}");
            }
        }
    }

    /// Dropping, on the workers, every score that cannot beat a copied
    /// threshold is exact: with the filter on, many chunks per bucket
    /// and reverse offers, the pool lands on the in-memory reference
    /// graph, which offers every score.
    #[test]
    fn pool_matches_the_in_memory_reference() {
        let n = 120;
        let g = KnnGraph::random_init(n, 5, 29);
        let profiles = varied_profiles(n);
        let (b, p, p2) = setup_world(&g, &profiles, 3);
        let schedule = Heuristic::Sequential.schedule(&p2.pi);
        for include_reverse in [false, true] {
            let mut opts = options(3, 2);
            opts.measure = Measure::Jaccard;
            opts.include_reverse = include_reverse;
            opts.bound_filter = true;
            opts.chunk = 8;
            let out = run_phase4(&schedule, &p2.legs, &p, &b, &g, None, &opts).unwrap();
            let want = crate::reference::reference_iteration(
                &g,
                &profiles,
                &Measure::Jaccard,
                3,
                include_reverse,
            );
            assert_eq!(out.graph, want, "include_reverse={include_reverse}");
        }
    }

    /// The chunk size moves the gate's windows, so it may move the
    /// prune count, but never the graph or the tuples accounted for.
    #[test]
    fn chunk_size_never_changes_the_graph() {
        let n = 60;
        let g = KnnGraph::random_init(n, 4, 9);
        let profiles = varied_profiles(n);
        let (b, p, p2) = setup_world(&g, &profiles, 3);
        let schedule = Heuristic::Sequential.schedule(&p2.pi);
        let mut results = Vec::new();
        for chunk in [1, 7, CHUNK] {
            let mut opts = options(4, 4);
            opts.bound_filter = true;
            opts.chunk = chunk;
            let out = run_phase4(&schedule, &p2.legs, &p, &b, &g, None, &opts).unwrap();
            results.push((out.graph, out.sims_computed + out.sims_pruned));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn result_is_partition_count_independent() {
        let n = 30;
        let g = KnnGraph::random_init(n, 3, 11);
        let profiles = line_profiles(n);
        let mut results = Vec::new();
        for m in [2, 3, 5] {
            let (b, p, p2) = setup_world(&g, &profiles, m);
            let schedule = Heuristic::Sequential.schedule(&p2.pi);
            let out = run_phase4(&schedule, &p2.legs, &p, &b, &g, None, &options(3, 1)).unwrap();
            results.push(out.graph);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn cache_respects_two_slots_and_counts_ops() {
        let n = 24;
        let g = KnnGraph::random_init(n, 3, 5);
        let profiles = line_profiles(n);
        let (b, p, p2) = setup_world(&g, &profiles, 6);
        let schedule = Heuristic::Sequential.schedule(&p2.pi);
        let predicted = crate::traversal::simulate_schedule_ops(&schedule, 2);
        let out = run_phase4(&schedule, &p2.legs, &p, &b, &g, None, &options(3, 1)).unwrap();
        assert_eq!(
            out.cache.loads, predicted.loads,
            "dry run must match execution"
        );
        assert_eq!(out.cache.unloads, predicted.unloads);
        assert_eq!(b.stats().snapshot().partition_loads, out.cache.loads);
    }

    #[test]
    fn reverse_offers_add_candidates() {
        // Only edge 0 → 1; with reverse, user 1 also gains candidate 0.
        let mut g = KnnGraph::new(2, 1);
        g.insert(UserId::new(0), Neighbor::unscored(UserId::new(1)));
        let profiles = line_profiles(2);
        let (b, p, p2) = setup_world(&g, &profiles, 2);
        let schedule = Heuristic::Sequential.schedule(&p2.pi);
        let mut opts = options(1, 1);
        opts.include_reverse = true;
        let out = run_phase4(&schedule, &p2.legs, &p, &b, &g, None, &opts).unwrap();
        assert_eq!(out.graph.neighbors(UserId::new(1)).len(), 1);
        assert_eq!(out.graph.neighbors(UserId::new(1))[0].id, UserId::new(0));
    }

    #[test]
    fn empty_schedule_yields_empty_graph() {
        let g = KnnGraph::new(4, 2);
        let profiles = ProfileStore::new(4);
        let (b, p, p2) = setup_world(&g, &profiles, 2);
        let schedule = Heuristic::Sequential.schedule(&p2.pi);
        assert!(schedule.is_empty());
        let out = run_phase4(&schedule, &p2.legs, &p, &b, &g, None, &options(2, 1)).unwrap();
        assert_eq!(out.graph.num_edges(), 0);
        assert_eq!(out.sims_computed, 0);
    }

    /// Seeded users keep their scored `G(t)` list, updated members
    /// carry their fresh score, denied users start empty, and
    /// `accums_seeded` counts only the seeded edges: with nothing to
    /// score, the harvest returns exactly the seeds.
    #[test]
    fn accumulators_seed_from_scored_edges_when_allowed() {
        let mut g = KnnGraph::new(4, 2);
        g.insert(UserId::new(0), Neighbor::new(UserId::new(1), 0.9));
        g.insert(UserId::new(0), Neighbor::new(UserId::new(3), 0.4));
        g.insert(UserId::new(2), Neighbor::new(UserId::new(1), 0.7));
        g.insert(UserId::new(3), Neighbor::new(UserId::new(0), 0.4));
        // User 0 may seed, with member 3's profile updated and now
        // scoring 0.95; users 2 and 3 may not (their own profiles
        // changed).
        let prune = PruneState {
            profile_dirty: vec![false, false, true, true],
            additions: g.additions_since(&g),
            seed_ok: vec![true, true, false, false],
            fresh: vec![(0, 3, 0.95)],
        };
        let (accums, seeded) = seed_accumulators(&g, Some(&prune), 2);
        assert_eq!(seeded, 2, "only user 0's two edges seed");
        assert_eq!(
            accums[0].entries(),
            &[
                Neighbor::new(UserId::new(3), 0.95),
                Neighbor::new(UserId::new(1), 0.9)
            ],
            "the updated member seeds its fresh score"
        );
        assert!(accums[2].is_empty(), "denied users start empty");
        assert!(accums[3].is_empty(), "denied users start empty");

        let (b, p, p2) = setup_world(&KnnGraph::new(4, 2), &line_profiles(4), 2);
        let schedule = Heuristic::Sequential.schedule(&p2.pi);
        assert!(schedule.is_empty());
        let out = run_phase4(
            &schedule,
            &p2.legs,
            &p,
            &b,
            &g,
            Some(&prune),
            &options(2, 1),
        )
        .unwrap();
        assert_eq!(out.accums_seeded, 2);
        assert_eq!(
            out.graph.neighbors(UserId::new(0)),
            accums[0].entries(),
            "seeded rows carry the seeds best-first"
        );
        assert!(out.graph.neighbors(UserId::new(2)).is_empty());
        let unseeded = run_phase4(&schedule, &p2.legs, &p, &b, &g, None, &options(2, 1)).unwrap();
        assert_eq!((unseeded.accums_seeded, unseeded.graph.num_edges()), (0, 0));
    }

    /// A chunk boundary may fall anywhere in a run of equal sources:
    /// the next chunk reloads the row, and the scores — one per tuple,
    /// in tuple order — are the ones the unsplit bucket gets, which are
    /// the pair kernel's, bit for bit, for every measure.
    #[test]
    fn splitting_a_run_across_chunks_changes_nothing() {
        let rows = 24u32;
        let mut builder = ProfileArena::builder(rows as usize, 0);
        for u in 0..rows {
            let pairs = (0..=u % 7)
                .map(|i| (u / 2 + 3 * i, 0.5 + (u + i) as f32))
                .collect();
            builder.push(u, pairs).unwrap();
        }
        let arena = builder.finish();
        // Runs of 1, 2, 3, … candidates per source, sorted by (u, v).
        let tuples: Vec<PendingTuple> = (0..rows)
            .flat_map(|u| (0..=u % 9).map(move |v| (u, v, u, v, meta_bits::FWD)))
            .collect();
        for measure in Measure::ALL {
            let whole = score_chunk(&arena, &arena, &tuples, measure);
            let by_pair: Vec<f32> = tuples
                .iter()
                .map(|&(_, _, u, v, _)| measure.score_ref(arena.view(u), arena.view(v)))
                .collect();
            let bits = |scores: &[f32]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&whole),
                bits(&by_pair),
                "{measure}: row vs pair kernel"
            );
            for chunk in [1, 2, 5, 7, tuples.len() - 1] {
                let split: Vec<f32> = tuples
                    .chunks(chunk)
                    .flat_map(|part| score_chunk(&arena, &arena, part, measure))
                    .collect();
                assert_eq!(bits(&split), bits(&whole), "{measure}: chunks of {chunk}");
            }
        }
    }

    /// A tuple naming a user its partition's streams do not hold is a
    /// typed input error, not a panic or a wrong row.
    #[test]
    fn tuple_naming_a_missing_user_is_a_typed_error() {
        let n = 12;
        let g = KnnGraph::random_init(n, 3, 5);
        let profiles = line_profiles(n);
        let (b, p, p2) = setup_world(&g, &profiles, 2);
        // Drop partition 0's last user from its profile stream.
        let mut rows = read_user_lists(&b, StreamId::Profiles(0)).unwrap();
        rows.pop();
        write_user_lists(&b, StreamId::Profiles(0), &rows).unwrap();
        let schedule = Heuristic::Sequential.schedule(&p2.pi);
        let err = run_phase4(&schedule, &p2.legs, &p, &b, &g, None, &options(3, 1)).unwrap_err();
        assert!(
            matches!(&err, EngineError::InputMismatch { .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("missing from its partition file"));
    }

    /// Profiles with strongly varied lengths (1–6 items), so the
    /// set-measure upper bounds `min(|A|,|B|)/max(|A|,|B|)` actually
    /// separate candidates.
    fn varied_profiles(n: usize) -> ProfileStore {
        let mut store = ProfileStore::new(n);
        for u in 0..n as u32 {
            let p = store.get_mut(UserId::new(u));
            for i in 0..=(u % 6) {
                p.set(knn_sim::ItemId::new(u + i), 1.0);
            }
        }
        store
    }

    /// The bound filter never changes the graph, only the number of
    /// kernel evaluations, across measures and thread counts.
    #[test]
    fn bound_filter_is_exact_and_thread_invariant() {
        let n = 80;
        for measure in [Measure::Jaccard, Measure::Dice, Measure::Cosine] {
            let g = KnnGraph::random_init(n, 5, 13);
            let profiles = varied_profiles(n);
            let (b, p, p2) = setup_world(&g, &profiles, 4);
            let schedule = Heuristic::DegreeLowHigh.schedule(&p2.pi);
            let mut plain_opts = options(2, 1);
            plain_opts.measure = measure;
            let plain = run_phase4(&schedule, &p2.legs, &p, &b, &g, None, &plain_opts).unwrap();
            let mut counters = Vec::new();
            for threads in [1usize, 2, 4] {
                let mut opts = options(2, threads);
                opts.measure = measure;
                opts.bound_filter = true;
                opts.chunk = 8; // several chunks per bucket
                let filtered = run_phase4(&schedule, &p2.legs, &p, &b, &g, None, &opts).unwrap();
                assert_eq!(
                    plain.graph, filtered.graph,
                    "{measure}: bound filter changed the graph"
                );
                assert_eq!(
                    filtered.sims_computed + filtered.sims_pruned,
                    plain.sims_computed,
                    "{measure}: every tuple is either computed or pruned"
                );
                counters.push((filtered.sims_computed, filtered.sims_pruned));
            }
            assert!(
                counters.iter().all(|c| *c == counters[0]),
                "{measure}: counters must not depend on threads: {counters:?}"
            );
            // K=2 on heavily-overlapping line profiles: the filter
            // must actually bite for the set measures.
            if measure != Measure::Cosine {
                assert!(counters[0].1 > 0, "{measure}: filter never pruned");
            }
        }
    }

    /// The non-empty buckets of `schedule`, in the order phase 4 reads
    /// them.
    fn bucket_order(schedule: &Schedule, legs: &Legs, p: &Partitioning) -> Vec<(u32, u32)> {
        schedule
            .iter()
            .flat_map(|step| {
                if step.is_self() {
                    vec![(step.a, step.a)]
                } else {
                    vec![(step.a, step.b), (step.b, step.a)]
                }
            })
            .filter(|&key| !bucket_candidates(legs, p, key).rows.is_empty())
            .collect()
    }

    /// A tuple naming a missing user in a later chunk of a bucket fails
    /// the pool path with the same typed error the inline path gives,
    /// and the call returns.
    #[test]
    fn a_missing_user_in_a_later_chunk_fails_the_pool_like_inline() {
        let n = 40;
        let g = KnnGraph::random_init(n, 4, 5);
        let (b, p, p2) = setup_world(&g, &line_profiles(n), 2);
        let schedule = Heuristic::Sequential.schedule(&p2.pi);
        // Drop partition 0's last user from its profile stream. The
        // first bucket read names it only past its first chunk.
        let mut rows = read_user_lists(&b, StreamId::Profiles(0)).unwrap();
        let (missing, _) = rows.pop().unwrap();
        write_user_lists(&b, StreamId::Profiles(0), &rows).unwrap();
        let first = bucket_order(&schedule, &p2.legs, &p)[0];
        let first_rows = bucket_candidates(&p2.legs, &p, first).rows;
        let at = first_rows
            .iter()
            .position(|&(u, v, _)| u == missing || v == missing)
            .expect("the first bucket names the dropped user");
        assert!(at >= 4, "the dropped user must first appear past chunk 0");
        let mut errors = Vec::new();
        for threads in [1, 2] {
            let mut opts = options(4, threads);
            opts.chunk = 4;
            let err = run_phase4(&schedule, &p2.legs, &p, &b, &g, None, &opts).unwrap_err();
            assert!(
                matches!(&err, EngineError::InputMismatch { .. }),
                "threads={threads}: got {err:?}"
            );
            errors.push(err.to_string());
        }
        assert_eq!(errors[0], errors[1]);
        let (u, v, _) = first_rows[at];
        assert!(
            errors[0].contains(&format!("tuple ({u}, {v})")),
            "{}",
            errors[0]
        );
    }

    /// A storage fault at every operation of a pooled run — partition
    /// loads between buckets, while the last bucket's scores wait to be
    /// applied — returns `Err`: no hang, no panic.
    #[test]
    fn a_storage_fault_in_a_pooled_run_returns_an_error() {
        use knn_store::{FaultBackend, FaultKind, FaultPlan};
        let n = 40;
        let g = KnnGraph::random_init(n, 4, 5);
        let (mem, p, p2) = setup_world(&g, &line_profiles(n), 3);
        let schedule = Heuristic::Sequential.schedule(&p2.pi);
        let fault = FaultBackend::new(Arc::new(mem));
        let mut opts = options(4, 2);
        opts.chunk = 4;
        let plan = |fail_at| FaultPlan {
            fail_at,
            kind: FaultKind::Crash,
            seed: 0,
        };
        fault.set_plan(plan(u64::MAX));
        fault.arm();
        let clean = run_phase4(&schedule, &p2.legs, &p, &fault, &g, None, &opts).unwrap();
        let ops = fault.ops_observed();
        assert!(ops > 2, "the run must load partitions between buckets");
        for fail_at in 0..ops {
            fault.set_plan(plan(fail_at));
            let err = run_phase4(&schedule, &p2.legs, &p, &fault, &g, None, &opts).unwrap_err();
            assert!(
                matches!(&err, EngineError::Store(_)),
                "op {fail_at}: got {err:?}"
            );
        }
        assert!(clean.sims_computed > 0);
    }
}
