//! Phase 4: out-of-core KNN computation.
//!
//! Walks the phase-3 schedule with a bounded partition cache (two
//! slots by default, exactly the paper's memory constraint), scores
//! every surviving tuple of the resident pair's buckets — across a
//! persistent worker pool when `threads > 1` — and folds the scores
//! into per-user top-K accumulators. Accumulator state belongs to its
//! partition: it is loaded and saved with the partition, so peak
//! memory stays `O(cache_slots × partition)`.
//!
//! # The scoring funnel
//!
//! A tuple reaches a kernel only through these stages, and every
//! decision is a pure function of iteration-start state plus the
//! deterministic bucket order — so the counters and the resulting
//! graph are identical at every thread count:
//!
//! 0. **Symmetric pair dedup** — phase 2 stores each unordered pair
//!    once, its bucket row carrying the [`meta_bits`] direction bits of
//!    the directed candidates that exist, so the symmetric kernel runs
//!    once per pair and its score is offered along every recorded
//!    direction.
//! 1. **Prepared profiles** — a partition load materializes its
//!    profiles as one [`ProfileArena`] (split id / weight columns),
//!    hoisting the per-profile aggregates (L2 norm, weight sum,
//!    extrema, block sketches) out of the kernels.
//! 2. **Offer-time suppression** (`sims_skipped`) — decided in phase 2,
//!    not here: a directed candidate whose verdict is already known
//!    (all-old generating path between users whose standing is
//!    provably unchanged) is never offered, and the accumulator seeds
//!    written in phase 1 carry its prior verdict. Phase 4 scores what
//!    the buckets hold.
//! 3. **Bound-based filtering** (`sims_pruned`) — a tuple is scored
//!    only if its O(1) score ceiling ([`Measure::upper_bound_ref`])
//!    could still beat the current k-th entry of the target
//!    accumulator(s); thresholds are sampled at bucket start, which
//!    only under-prunes, never over-prunes. Every unique tuple is
//!    either pruned here or computed.
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

use std::sync::Arc;

use crossbeam::channel;
use knn_graph::{KnnGraph, Neighbor, UserId};
use knn_sim::{Measure, ProfileArena, RowKernel};
use knn_store::backend::{read_tuples, read_user_lists, write_user_lists};
use knn_store::tuple_stream::TupleRow;
use knn_store::{CacheCounters, SlotCache, StorageBackend, StoreError, StreamId};

use crate::partition::Partitioning;
use crate::topk::TopKAccumulator;
use crate::traversal::Schedule;
use crate::tuple_table::meta_bits;
use crate::{EngineError, PiGraph};

/// Default for [`Phase4Options::parallel_threshold`]: buckets smaller
/// than this are scored inline even when a worker pool exists.
pub(crate) const DEFAULT_PARALLEL_THRESHOLD: usize = 2048;

/// Options of one phase-4 run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Phase4Options {
    /// The KNN bound `K`.
    pub k: usize,
    /// Similarity measure.
    pub measure: Measure,
    /// Worker threads for similarity scoring.
    pub threads: usize,
    /// Partition cache slots (≥ 2).
    pub cache_slots: usize,
    /// Offer each tuple's source as a candidate to its destination too.
    pub include_reverse: bool,
    /// Minimum surviving-tuple count before a bucket is fanned out to
    /// the worker pool; smaller buckets are scored inline because the
    /// chunking/channel dispatch overhead (task allocation, `Arc`
    /// clones, cross-thread wakeups) dominates the few microseconds of
    /// kernel work they carry. Raise it on machines with slow wakeups
    /// or tiny partitions; lower it when individual kernel evaluations
    /// are unusually expensive.
    pub parallel_threshold: usize,
    /// Skip kernel evaluations whose O(1) score upper bound cannot
    /// beat the current k-th accumulator entry (exact — never changes
    /// the graph).
    pub bound_filter: bool,
}

/// Result of one phase-4 run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Phase4Output {
    /// The next KNN graph `G(t+1)`.
    pub graph: KnnGraph,
    /// Partition cache operation counts (the real Table-1 metric).
    pub cache: CacheCounters,
    /// Similarity evaluations performed.
    pub sims_computed: u64,
    /// Tuples dropped by the upper-bound filter (ceiling could not
    /// beat the current k-th accumulator entry).
    pub sims_pruned: u64,
}

/// One partition's resident state: its users' profiles in one
/// CSR [`ProfileArena`] (read-only during the iteration, shared with
/// scoring workers via `Arc`) and their top-K accumulators
/// (read-write, persisted on unload), both in the partition's
/// ascending-user row order — so a row index resolved once addresses
/// a user's profile, sketch and accumulator alike, and nothing on the
/// hot path hashes a user id.
struct PartitionState {
    arena: Arc<ProfileArena>,
    accums: Vec<TopKAccumulator>,
    dirty: bool,
}

/// A canonical tuple queued for scoring: endpoints, their rows in the
/// source and destination partition (resolved once on the driving
/// thread), and the [`meta_bits`] direction byte (carried through so
/// the offers follow exactly the directions phase 2 recorded).
type PendingTuple = (u32, u32, u32, u32, u8);

/// A unit of scoring work: an owned tuple chunk plus shared profile
/// arenas, safe to outlive cache evictions. `seq` orders the chunks of
/// one bucket.
struct ScoreTask {
    seq: usize,
    src: Arc<ProfileArena>,
    dst: Arc<ProfileArena>,
    tuples: Vec<PendingTuple>,
    measure: Measure,
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

fn load_state(
    backend: &dyn StorageBackend,
    k: usize,
    p: u32,
) -> Result<PartitionState, EngineError> {
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
    let arena = builder.finish();
    // The accumulator stream is user-sorted too and must name exactly
    // the arena's users, so its rows line up with the arena's.
    let accum_rows = read_user_lists(backend, StreamId::Accumulators(p))?;
    if !accum_rows.iter().map(|(user, _)| user).eq(arena.users()) {
        return Err(EngineError::Store(StoreError::corrupt(
            backend.describe(StreamId::Accumulators(p)),
            format!(
                "accumulator rows ({}) do not name the users of partition {p}'s \
                 profile stream ({})",
                accum_rows.len(),
                arena.len()
            ),
        )));
    }
    let accums = accum_rows
        .iter()
        .map(|(_, row)| TopKAccumulator::from_row(k, row))
        .collect();
    Ok(PartitionState {
        arena: Arc::new(arena),
        accums,
        dirty: false,
    })
}

fn unload_state(
    backend: &dyn StorageBackend,
    p: u32,
    state: PartitionState,
) -> Result<(), EngineError> {
    if !state.dirty {
        // Profiles are immutable during the iteration and the
        // accumulators are unchanged: nothing to persist.
        return Ok(());
    }
    let rows: Vec<(u32, Vec<(u32, f32)>)> = state
        .arena
        .users()
        .iter()
        .zip(&state.accums)
        .map(|(&user, acc)| (user, acc.to_row()))
        .collect();
    write_user_lists(backend, StreamId::Accumulators(p), &rows)?;
    Ok(())
}

/// Runs phase 4 over the given schedule, scoring every tuple of the
/// phase-2 buckets that the bound filter does not prune.
///
/// # Errors
///
/// Returns [`EngineError::Store`] on I/O failure or corrupt state
/// streams, and [`EngineError::InputMismatch`] if a tuple references a
/// user missing from its partition's streams.
pub(crate) fn run_phase4(
    schedule: &Schedule,
    pi: &PiGraph,
    partitioning: &Partitioning,
    backend: &dyn StorageBackend,
    options: &Phase4Options,
) -> Result<Phase4Output, EngineError> {
    let workers = options.threads.max(1);
    if workers <= 1 {
        return drive(schedule, pi, partitioning, backend, options, None);
    }
    // Persistent worker pool for the whole run: tasks own Arc'd
    // profile maps, so the cache can evict freely while chunks are in
    // flight within a bucket.
    let (task_tx, task_rx) = channel::unbounded::<ScoreTask>();
    let (result_tx, result_rx) = channel::unbounded::<(usize, Vec<f32>)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let task_rx = task_rx.clone();
            let result_tx = result_tx.clone();
            scope.spawn(move || {
                while let Ok(task) = task_rx.recv() {
                    let scores = score_chunk(&task.src, &task.dst, &task.tuples, task.measure);
                    let _ = result_tx.send((task.seq, scores));
                }
            });
        }
        drop(task_rx);
        drop(result_tx);
        let pool = WorkerPool {
            task_tx,
            result_rx,
            workers,
        };
        drive(schedule, pi, partitioning, backend, options, Some(pool))
    })
}

/// Handle to the scoring pool (senders dropped at end of scope shut
/// the workers down).
struct WorkerPool {
    task_tx: channel::Sender<ScoreTask>,
    result_rx: channel::Receiver<(usize, Vec<f32>)>,
    workers: usize,
}

fn drive(
    schedule: &Schedule,
    pi: &PiGraph,
    partitioning: &Partitioning,
    backend: &dyn StorageBackend,
    options: &Phase4Options,
    pool: Option<WorkerPool>,
) -> Result<Phase4Output, EngineError> {
    let mut cache: SlotCache<PartitionState> =
        SlotCache::new(options.cache_slots).with_io_stats(Arc::clone(backend.stats()));
    let mut sims_computed = 0u64;
    let mut sims_pruned = 0u64;

    for step in schedule.iter() {
        cache.ensure(
            step.a,
            None,
            |p| load_state(backend, options.k, p),
            |p, s| unload_state(backend, p, s),
        )?;
        if !step.is_self() {
            cache.ensure(
                step.b,
                Some(step.a),
                |p| load_state(backend, options.k, p),
                |p, s| unload_state(backend, p, s),
            )?;
        }
        // Both directed buckets of the pair (one for a self-pair).
        let buckets: &[(u32, u32)] = if step.is_self() {
            &[(step.a, step.a)]
        } else {
            &[(step.a, step.b), (step.b, step.a)]
        };
        for &(src, dst) in buckets {
            if pi.bucket_weight(src, dst) == 0 {
                continue;
            }
            // Bucket rows stream in carrying their direction bits (v2
            // tuple codec).
            let tuples = read_tuples(backend, StreamId::TupleBucket(src, dst))?;
            // Validate and filter on the driving thread: prune
            // decisions read the accumulators as of bucket start
            // (scores land only after the whole bucket is collected),
            // so they are identical at every thread count.
            let (survivors, pruned) = {
                let src_state = cache.get(src).expect("src resident");
                let dst_state = cache.get(dst).expect("dst resident");
                filter_bucket(tuples, partitioning.rows(), src_state, dst_state, options)?
            };
            sims_pruned += pruned;
            if survivors.is_empty() {
                continue;
            }
            let src_profiles = Arc::clone(&cache.get(src).expect("src resident").arena);
            let dst_profiles = Arc::clone(&cache.get(dst).expect("dst resident").arena);
            let scores = match &pool {
                Some(pool) if survivors.len() >= options.parallel_threshold => {
                    let chunk = survivors.len().div_ceil(pool.workers);
                    let mut dispatched = 0usize;
                    for (seq, part) in survivors.chunks(chunk).enumerate() {
                        pool.task_tx
                            .send(ScoreTask {
                                seq,
                                src: Arc::clone(&src_profiles),
                                dst: Arc::clone(&dst_profiles),
                                tuples: part.to_vec(),
                                measure: options.measure,
                            })
                            .expect("workers alive while the run drives them");
                        dispatched += 1;
                    }
                    let mut scores = vec![0.0f32; survivors.len()];
                    for _ in 0..dispatched {
                        let (seq, part) =
                            pool.result_rx.recv().expect("worker delivered its chunk");
                        scores[seq * chunk..][..part.len()].copy_from_slice(&part);
                    }
                    scores
                }
                _ => score_chunk(&src_profiles, &dst_profiles, &survivors, options.measure),
            };
            sims_computed += scores.len() as u64;
            apply_scores(
                &mut cache,
                src,
                dst,
                &survivors,
                &scores,
                options.include_reverse,
            );
        }
    }

    cache.flush(|p, s| unload_state(backend, p, s))?;
    let counters = cache.counters();

    // Harvest: fold every partition's accumulator stream into G(t+1).
    let n = partitioning.num_users();
    let mut graph = KnnGraph::new(n, options.k);
    for p in 0..partitioning.num_partitions() as u32 {
        let rows = read_user_lists(backend, StreamId::Accumulators(p))?;
        for (user, row) in rows {
            let neighbors: Vec<Neighbor> = row
                .iter()
                .map(|&(id, sim)| Neighbor::new(UserId::new(id), sim))
                .collect();
            graph.set_neighbors(UserId::new(user), neighbors)?;
        }
    }

    Ok(Phase4Output {
        graph,
        cache: counters,
        sims_computed,
        sims_pruned,
    })
}

/// After this many bound evaluations in one bucket with a hit rate
/// below [`GATE_MIN_HIT_SHIFT`], the bound filter stands down for the
/// bucket's remainder: on candidate pools where the ceiling can
/// rarely beat the thresholds (e.g. an almost-converged in-cluster
/// pool), the checks would be pure overhead. The gate runs on the
/// driving thread in bucket order, so it — and therefore
/// `sims_pruned` — is deterministic across thread counts.
const GATE_WINDOW: u64 = 1024;

/// Gate threshold: keep checking while `hits << GATE_MIN_HIT_SHIFT >=
/// attempts`, i.e. at least 1 prune per 32 attempts.
const GATE_MIN_HIT_SHIFT: u64 = 5;

/// The driver-side scoring funnel of one bucket: validates every
/// canonical tuple's endpoints, applies the upper-bound filter per
/// recorded direction, and returns `(survivors, pruned)`.
///
/// Thresholds are read from the accumulators as they stand at bucket
/// start; since thresholds only tighten as scores arrive, a stale
/// threshold can only *under*-prune — the filter is exact regardless
/// of bucket or thread scheduling.
fn filter_bucket(
    tuples: Vec<TupleRow>,
    row_of: &[u32],
    src: &PartitionState,
    dst: &PartitionState,
    options: &Phase4Options,
) -> Result<(Vec<PendingTuple>, u64), EngineError> {
    let mut survivors: Vec<PendingTuple> = Vec::with_capacity(tuples.len());
    let mut pruned = 0u64;
    let mut bound_attempts = 0u64;
    let mut bound_hits = 0u64;

    // The row of `user` in `state`'s streams, or the typed error for a
    // tuple naming a user those streams do not hold.
    let row_in = |state: &PartitionState, user: u32, (u, v): (u32, u32)| {
        row_of
            .get(user as usize)
            .copied()
            .filter(|&row| state.arena.users().get(row as usize) == Some(&user))
            .ok_or_else(|| {
                EngineError::input(format!(
                    "tuple ({u}, {v}) references a user missing from its partition file"
                ))
            })
    };

    // Bucket tuples are sorted by (u, v): walk them in equal-u groups
    // so the per-user lookups (arena row, threshold) happen once per
    // group instead of once per tuple.
    let mut start = 0usize;
    while start < tuples.len() {
        let u = tuples[start].0;
        let end = start + tuples[start..].partition_point(|t| t.0 == u);
        let u_idx = row_in(src, u, (u, tuples[start].1))?;
        let up = src.arena.view(u_idx);
        let u_threshold = if options.bound_filter {
            src.accums[u_idx as usize].threshold()
        } else {
            None
        };
        for &(_, v, bits) in &tuples[start..end] {
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
                    let bound = options.measure.upper_bound_ref(up, dst.arena.view(v_idx));
                    let prunable = bound.is_finite()
                        && (!into_u
                            || u_threshold.is_some_and(|thr| {
                                !Neighbor::new(UserId::new(v), bound).beats(&thr)
                            }))
                        && (!into_v
                            || dst.accums[v_idx as usize].threshold().is_some_and(|thr| {
                                !Neighbor::new(UserId::new(u), bound).beats(&thr)
                            }));
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
            survivors.push((u, v, u_idx, v_idx, bits));
        }
        start = end;
    }
    Ok((survivors, pruned))
}

/// Applies a bucket's scores (one per tuple, in tuple order) to the
/// resident accumulators, following each tuple's direction bits (both
/// directions when `include_reverse` widens the offers).
fn apply_scores(
    cache: &mut SlotCache<PartitionState>,
    src: u32,
    dst: u32,
    tuples: &[PendingTuple],
    scores: &[f32],
    include_reverse: bool,
) {
    // Offers into the src-side accumulators (candidate v for user u).
    let state = cache.get_mut(src).expect("src resident");
    for (&(_, v, u_row, _, bits), &sim) in tuples.iter().zip(scores) {
        if bits & meta_bits::FWD != 0 || (include_reverse && bits & meta_bits::BWD != 0) {
            state.accums[u_row as usize].offer(Neighbor::new(UserId::new(v), sim));
            state.dirty = true;
        }
    }
    // Offers into the dst-side accumulators (candidate u for user v).
    let state = cache.get_mut(dst).expect("dst resident");
    for (&(u, _, _, v_row, bits), &sim) in tuples.iter().zip(scores) {
        if bits & meta_bits::BWD != 0 || (include_reverse && bits & meta_bits::FWD != 0) {
            state.accums[v_row as usize].offer(Neighbor::new(UserId::new(u), sim));
            state.dirty = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase1::{reshard_profiles, write_partition_edges};
    use crate::phase2::generate_tuples;
    use crate::traversal::Heuristic;
    use knn_sim::ProfileStore;

    fn options(k: usize, threads: usize) -> Phase4Options {
        Phase4Options {
            k,
            measure: Measure::Cosine,
            threads,
            cache_slots: 2,
            include_reverse: false,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            bound_filter: false,
        }
    }

    /// Builds a tiny world: n users in m partitions with simple
    /// profiles, a given KNN graph, everything written to the backend.
    fn setup_world(
        g: &KnnGraph,
        profiles: &ProfileStore,
        m: usize,
    ) -> (
        knn_store::MemBackend,
        Partitioning,
        crate::phase2::Phase2Output,
    ) {
        let n = g.num_vertices();
        let b = knn_store::MemBackend::new();
        let assignment: Vec<u32> = (0..n).map(|u| (u % m) as u32).collect();
        let p = Partitioning::from_assignment(assignment, m).unwrap();
        reshard_profiles(&b, None, &p, Some(profiles), 1).unwrap();
        write_partition_edges(g, &p, &b, 1, None).unwrap();
        let out =
            generate_tuples(&p, &b, &crate::phase2::Phase2Options::new(1 << 16, 1), None).unwrap();
        (b, p, out)
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
        let out = run_phase4(&schedule, &p2.pi, &p, &b, &options(1, 1)).unwrap();
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
            let out = run_phase4(&schedule, &p2.pi, &p, &b, &options(4, 1)).unwrap();
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
            let out = run_phase4(&schedule, &p2.pi, &p, &b, &options(5, threads)).unwrap();
            results.push(out.graph);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn parallel_path_is_exercised_above_threshold() {
        // Enough users that at least one bucket crosses the parallel
        // threshold with m=2.
        let n = 600;
        let g = KnnGraph::random_init(n, 6, 2);
        let profiles = line_profiles(n);
        let (b, p, p2) = setup_world(&g, &profiles, 2);
        assert!(
            p2.pi
                .iter_buckets()
                .any(|(_, w)| w >= DEFAULT_PARALLEL_THRESHOLD as u64),
            "test needs a bucket above the parallel threshold"
        );
        let schedule = Heuristic::Sequential.schedule(&p2.pi);
        let sequential = run_phase4(&schedule, &p2.pi, &p, &b, &options(6, 1)).unwrap();
        let parallel = run_phase4(&schedule, &p2.pi, &p, &b, &options(6, 4)).unwrap();
        assert_eq!(sequential.graph, parallel.graph);
        assert_eq!(sequential.sims_computed, parallel.sims_computed);
    }

    #[test]
    fn parallel_threshold_is_tunable() {
        // With the threshold forced to 1, even tiny buckets take the
        // pool path; with it huge, everything scores inline — both
        // must produce the identical graph and counters.
        let n = 60;
        let g = KnnGraph::random_init(n, 4, 9);
        let profiles = line_profiles(n);
        let mut results = Vec::new();
        for threshold in [1usize, usize::MAX] {
            let (b, p, p2) = setup_world(&g, &profiles, 3);
            let schedule = Heuristic::Sequential.schedule(&p2.pi);
            let mut opts = options(4, 4);
            opts.parallel_threshold = threshold;
            let out = run_phase4(&schedule, &p2.pi, &p, &b, &opts).unwrap();
            results.push((out.graph, out.sims_computed));
        }
        assert_eq!(results[0], results[1]);
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
            let out = run_phase4(&schedule, &p2.pi, &p, &b, &options(3, 1)).unwrap();
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
        let out = run_phase4(&schedule, &p2.pi, &p, &b, &options(3, 1)).unwrap();
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
        let out = run_phase4(&schedule, &p2.pi, &p, &b, &opts).unwrap();
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
        let out = run_phase4(&schedule, &p2.pi, &p, &b, &options(2, 1)).unwrap();
        assert_eq!(out.graph.num_edges(), 0);
        assert_eq!(out.sims_computed, 0);
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
        // Drop partition 0's last user from both of its streams.
        for stream in [StreamId::Profiles(0), StreamId::Accumulators(0)] {
            let mut rows = read_user_lists(&b, stream).unwrap();
            rows.pop();
            write_user_lists(&b, stream, &rows).unwrap();
        }
        let schedule = Heuristic::Sequential.schedule(&p2.pi);
        let err = run_phase4(&schedule, &p2.pi, &p, &b, &options(3, 1)).unwrap_err();
        assert!(
            matches!(&err, EngineError::InputMismatch { .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("missing from its partition file"));
    }

    /// Accumulator rows that do not line up with the profile rows —
    /// a user missing, or one too many — are a corrupt stream.
    #[test]
    fn accumulator_stream_out_of_step_with_profiles_is_corrupt() {
        let n = 12;
        let g = KnnGraph::random_init(n, 3, 5);
        let profiles = line_profiles(n);
        for tamper in [
            (|rows| {
                rows.remove(0);
            }) as fn(&mut Vec<(u32, Vec<(u32, f32)>)>),
            |rows| rows.push((1_000, Vec::new())),
        ] {
            let (b, p, p2) = setup_world(&g, &profiles, 2);
            let mut rows = read_user_lists(&b, StreamId::Accumulators(1)).unwrap();
            tamper(&mut rows);
            write_user_lists(&b, StreamId::Accumulators(1), &rows).unwrap();
            let schedule = Heuristic::Sequential.schedule(&p2.pi);
            let err = run_phase4(&schedule, &p2.pi, &p, &b, &options(3, 1)).unwrap_err();
            assert!(
                matches!(&err, EngineError::Store(StoreError::Corrupt { .. })),
                "got {err:?}"
            );
        }
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
            let plain = run_phase4(&schedule, &p2.pi, &p, &b, &plain_opts).unwrap();
            let mut counters = Vec::new();
            for threads in [1usize, 4] {
                let mut opts = options(2, threads);
                opts.measure = measure;
                opts.bound_filter = true;
                opts.parallel_threshold = 8; // force the pool path too
                let filtered = run_phase4(&schedule, &p2.pi, &p, &b, &opts).unwrap();
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
            assert_eq!(
                counters[0], counters[1],
                "{measure}: counters must not depend on threads"
            );
            // K=2 on heavily-overlapping line profiles: the filter
            // must actually bite for the set measures.
            if measure != Measure::Cosine {
                assert!(counters[0].1 > 0, "{measure}: filter never pruned");
            }
        }
    }
}
