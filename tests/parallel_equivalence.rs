//! The partition-parallel acceptance bar: for the same seeded
//! workload, the engine produces **the same computation** at every
//! thread count on every backend — identical `KnnGraph`s after every
//! iteration, identical deterministic `IterationReport` fields,
//! identical `IoStats` totals, and byte-identical persisted streams.
//! This extends `backend_equivalence.rs` across the thread axis: six
//! engines (threads ∈ {1, 2, 4} × {mem, disk}) run in lockstep and
//! must be indistinguishable in everything but wall-clock time.

use std::sync::Arc;

use ooc_knn::core::metrics::IterationReport;
use ooc_knn::sim::generators::{clustered_profiles, ClusteredConfig};
use ooc_knn::store::backend::StreamId;
use ooc_knn::store::IoSnapshot;
use ooc_knn::{
    DiskBackend, EngineConfig, ItemId, KnnEngine, KnnGraph, Measure, MemBackend, Profile,
    ProfileDelta, ProfileStore, StorageBackend, UserId,
};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn workload(n: usize, seed: u64) -> ProfileStore {
    let (store, _) = clustered_profiles(
        ClusteredConfig::new(n, seed)
            .with_clusters(4)
            .with_ratings(10, 2),
    );
    store
}

fn config(n: usize, k: usize, m: usize, seed: u64, threads: usize) -> EngineConfig {
    EngineConfig::builder(n)
        .k(k)
        .num_partitions(m)
        .measure(Measure::Cosine)
        .seed(seed)
        .threads(threads)
        // A small spill threshold keeps the parallel spill/merge path
        // honest, not just the in-memory staging fast path — and a
        // small per-table byte budget exercises the budget-spill path
        // (per-table by definition, so it must be thread-invariant).
        .spill_threshold(64)
        .tuple_table_memory(Some(1024))
        .build()
        .expect("config")
}

/// The deterministic projection of a report: everything except
/// wall-clock durations (and the phase-duration-bearing fields),
/// which legitimately differ run to run. The scoring-funnel counters
/// (`sims_skipped`, `sims_pruned`, `accums_seeded`) are part of the
/// determinism contract: suppression is decided per generating path
/// in phase 2 and bound decisions per fixed-size phase-4 chunk against
/// thresholds copied at a fixed point in bucket order, so they must
/// not depend on thread count or backend either. The phase-2 spill
/// counters (`phase_io[1]`'s `spill_bytes`, `spill_runs`,
/// `merge_passes`) are pinned the same way: spilling is per scan table
/// and the merge is per bucket, so the traffic is a pure function of
/// the workload.
fn deterministic_fields(r: &IterationReport) -> impl PartialEq + std::fmt::Debug {
    (
        r.iteration,
        r.phase_io,
        r.cache,
        r.predicted,
        r.tuples,
        r.schedule_len,
        (r.sims_computed, r.sims_skipped, r.sims_pruned),
        r.accums_seeded,
        (
            r.phase_io[1].spill_bytes,
            r.phase_io[1].spill_runs,
            r.phase_io[1].merge_passes,
        ),
        r.updates_applied,
        // Partition locality (replication cost, intra-partition tuple
        // count) is a function of the partitioning and the tuple set
        // alone — thread- and shard-invariant like the rest.
        (r.replication_cost, r.intra_partition_tuples),
        r.changed_fraction.to_bits(),
    )
}

/// The mid-run updates: six users (8 % of 72), derived from their
/// profiles so that scores involving them both rise and fall —
/// weights raised and lowered on items they rate, a fresh item, an
/// item removed, one profile replaced by another user's and that
/// user's own profile reweighted. Phase 5's stale-seed sweep then has
/// real work, and its counters (`sims_skipped`, `accums_seeded`) must
/// stay invariant too.
fn churn(profiles: &ProfileStore) -> Vec<ProfileDelta> {
    let user = |i: u32| UserId::new(5 + 12 * i);
    let rated = |u: UserId| profiles.get(u).entries()[0];
    let (raised, lowered, removed) = (rated(user(0)), rated(user(1)), rated(user(3)));
    let reweighted = profiles
        .get(user(5))
        .iter()
        .map(|(item, weight)| (item.raw(), weight * 0.5 + 0.25))
        .collect();
    vec![
        ProfileDelta::set(user(0), raised.0, raised.1 * 3.0),
        ProfileDelta::set(user(1), lowered.0, lowered.1 * 0.1),
        ProfileDelta::set(user(2), ItemId::new(801), 3.5),
        ProfileDelta::remove(user(3), removed.0),
        ProfileDelta::replace(user(4), profiles.get(user(5)).clone()),
        ProfileDelta::replace(
            user(5),
            Profile::from_unsorted_pairs(reweighted).expect("profile"),
        ),
    ]
}

/// Reads every stream the backend holds, sorted by stream id, as the
/// backend returns it (unframed payload bytes).
fn all_stream_bytes(b: &dyn StorageBackend) -> Vec<(StreamId, Vec<u8>)> {
    let mut streams: Vec<(StreamId, Vec<u8>)> = b
        .list()
        .expect("list")
        .into_iter()
        .map(|s| (s, b.read(s).expect("read")))
        .collect();
    streams.sort_by_key(|&(s, _)| s);
    streams
}

/// Threads {1, 2, 4} × backends {mem, disk}: six engines over the
/// same seeded workload (updates to 8 % of the users queued mid-run on
/// all of them) stay bit-for-bit in lockstep for 3 iterations.
#[test]
fn thread_count_and_backend_never_change_the_computation() {
    let n = 72;
    let (k, m, seed) = (4, 6, 23);
    let g0 = KnnGraph::random_init(n, k, seed);

    let mut engines: Vec<(String, Arc<dyn StorageBackend>, KnnEngine)> = Vec::new();
    for &threads in &THREAD_COUNTS {
        for disk in [false, true] {
            let backend: Arc<dyn StorageBackend> = if disk {
                Arc::new(DiskBackend::temp("parallel_equivalence").expect("disk backend"))
            } else {
                Arc::new(MemBackend::new())
            };
            let engine = KnnEngine::with_initial_graph_on(
                config(n, k, m, seed, threads),
                g0.clone(),
                workload(n, seed),
                Arc::clone(&backend),
            )
            .expect("engine");
            engines.push((
                format!("threads={threads} backend={}", backend.name()),
                backend,
                engine,
            ));
        }
    }

    let updates = churn(&workload(n, seed));
    for iteration in 0..3u32 {
        if iteration == 1 {
            // The same updates land on every engine mid-run.
            for (_, _, engine) in &mut engines {
                for delta in &updates {
                    engine.queue_update(delta).expect("update");
                }
            }
        }
        let reports: Vec<IterationReport> = engines
            .iter_mut()
            .map(|(_, _, e)| e.run_iteration().expect("iteration"))
            .collect();
        assert!(
            reports[0].phase_io[1].spill_bytes > 0 && reports[0].phase_io[1].merge_passes > 0,
            "iteration {iteration}: the spill/merge path was not exercised"
        );

        let (ref_label, _, ref_engine) = &engines[0];
        for (idx, (label, _, engine)) in engines.iter().enumerate().skip(1) {
            assert_eq!(
                ref_engine.graph(),
                engine.graph(),
                "iteration {iteration}: graph of [{label}] diverged from [{ref_label}]"
            );
            assert_eq!(
                deterministic_fields(&reports[0]),
                deterministic_fields(&reports[idx]),
                "iteration {iteration}: report of [{label}] diverged from [{ref_label}]"
            );
        }
    }

    // Byte-for-byte: the full persisted stream set of every engine
    // matches the reference engine's.
    let reference = all_stream_bytes(engines[0].1.as_ref());
    assert!(
        reference.len() > 2 * m,
        "reference run persisted suspiciously few streams"
    );
    for (label, backend, _) in engines.iter().skip(1) {
        assert_eq!(
            reference,
            all_stream_bytes(backend.as_ref()),
            "persisted streams of [{label}] diverged"
        );
    }

    // Satellite 6's assertion: the parallel runs' I/O totals equal the
    // sequential run's, counter by counter, on both backends — the
    // atomic meter neither loses nor invents operations under
    // concurrency.
    let reference_io: IoSnapshot = engines[0].1.stats().snapshot();
    for (label, backend, _) in engines.iter().skip(1) {
        assert_eq!(
            reference_io,
            backend.stats().snapshot(),
            "IoStats of [{label}] diverged"
        );
    }

    // Cleanup the disk-backed working directories.
    for (_, backend, engine) in engines {
        let wd = backend.working_dir().cloned();
        drop(engine);
        if let Some(wd) = wd {
            wd.destroy().expect("cleanup");
        }
    }
}

/// The same claim under convergence pressure: running each engine
/// independently to convergence (not in lockstep) still lands on the
/// same iteration count and the same final graph.
#[test]
fn independent_runs_to_convergence_agree_across_thread_counts() {
    let n = 64;
    let (k, m, seed) = (4, 4, 31);
    let mut reference: Option<(usize, KnnGraph)> = None;
    for &threads in &THREAD_COUNTS {
        let mut engine = KnnEngine::new_on(
            config(n, k, m, seed, threads),
            workload(n, seed),
            Arc::new(MemBackend::new()),
        )
        .expect("engine");
        let outcome = engine.run_until_converged(0.02, 12).expect("convergence");
        match &reference {
            None => reference = Some((outcome.iterations_run, engine.graph().clone())),
            Some((ref_iters, ref_graph)) => {
                assert_eq!(ref_iters, &outcome.iterations_run, "threads={threads}");
                assert_eq!(ref_graph, engine.graph(), "threads={threads}");
            }
        }
    }
}

/// Phase 4's pool at engine level: a world whose buckets span several
/// 4 096-row scoring chunks, so workers claim chunks of one bucket
/// while the driving thread applies the previous one and decodes the
/// next. Threads {1, 2, 3, 4} agree on graphs, reports, persisted
/// bytes and I/O totals.
#[test]
fn buckets_of_many_chunks_agree_across_thread_counts() {
    const CHUNK_ROWS: u64 = 4096;
    let n = 2400;
    let (k, m, seed) = (8, 2, 41);
    let mut runs: Vec<(usize, Arc<dyn StorageBackend>, KnnEngine)> = [1, 2, 3, 4]
        .into_iter()
        .map(|threads| {
            let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
            let config = EngineConfig::builder(n)
                .k(k)
                .num_partitions(m)
                .measure(Measure::Cosine)
                .seed(seed)
                .threads(threads)
                .build()
                .expect("config");
            let engine =
                KnnEngine::new_on(config, workload(n, seed), Arc::clone(&backend)).expect("engine");
            (threads, backend, engine)
        })
        .collect();

    for iteration in 0..2 {
        let reports: Vec<IterationReport> = runs
            .iter_mut()
            .map(|(_, _, e)| e.run_iteration().expect("iteration"))
            .collect();
        if iteration == 0 {
            assert!(
                reports[0].intra_partition_tuples > 2 * CHUNK_ROWS * m as u64,
                "the diagonal buckets must average more than two chunks: {}",
                reports[0].intra_partition_tuples
            );
        }
        for ((threads, _, engine), report) in runs.iter().zip(&reports).skip(1) {
            assert_eq!(
                runs[0].2.graph(),
                engine.graph(),
                "iteration {iteration}: graph at threads={threads}"
            );
            assert_eq!(
                deterministic_fields(&reports[0]),
                deterministic_fields(report),
                "iteration {iteration}: report at threads={threads}"
            );
        }
    }

    let reference = all_stream_bytes(runs[0].1.as_ref());
    let reference_io = runs[0].1.stats().snapshot();
    for (threads, backend, _) in &runs[1..] {
        assert_eq!(
            reference,
            all_stream_bytes(backend.as_ref()),
            "persisted streams at threads={threads}"
        );
        assert_eq!(
            reference_io,
            backend.stats().snapshot(),
            "IoStats at threads={threads}"
        );
    }
}
