//! The shard-layer acceptance bar: sharding is invisible. For the same
//! seeded workload, a [`ShardedEngine`] produces **the same
//! computation** at every shard count, on both backends, at several
//! thread counts — identical `KnnGraph`s after every iteration,
//! identical deterministic report fields, identical *summed* `IoStats`
//! totals, and a byte-identical union of persisted streams (each
//! stream merely lives on its owner shard instead of the one backend).
//! A plain `KnnEngine` rides along as the root reference, pinning the
//! 1-shard engine to the unsharded code path, and a service over a
//! sharded engine must answer exactly like the unsharded service.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ooc_knn::core::metrics::IterationReport;
use ooc_knn::serve::{spawn, spawn_sharded, RefineOptions, ServeError};
use ooc_knn::sim::generators::{clustered_profiles, ClusteredConfig};
use ooc_knn::store::backend::StreamId;
use ooc_knn::store::IoSnapshot;
use ooc_knn::{
    brute_force_knn, recall_at_k, DiskBackend, EngineConfig, ItemId, KnnEngine, KnnGraph, Measure,
    MemBackend, Profile, ProfileDelta, ProfileStore, ShardedEngine, StorageBackend, UserId,
    WorkloadConfig,
};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const THREAD_COUNTS: [usize; 2] = [1, 2];

fn workload(n: usize, seed: u64) -> ProfileStore {
    let (store, _) = clustered_profiles(
        ClusteredConfig::new(n, seed)
            .with_clusters(4)
            .with_ratings(10, 2),
    );
    store
}

/// Runs `engine` until an iteration changes under `threshold` of the
/// edges or `max_iterations` have run; returns the iterations run.
fn run_until_converged(engine: &mut ShardedEngine, threshold: f64, max_iterations: usize) -> usize {
    for i in 1..=max_iterations {
        let report = engine.run_iteration().expect("iteration").report;
        if report.changed_fraction < threshold {
            return i;
        }
    }
    max_iterations
}

fn config(n: usize, k: usize, m: usize, seed: u64, threads: usize) -> EngineConfig {
    EngineConfig::builder(n)
        .k(k)
        .num_partitions(m)
        .measure(Measure::Cosine)
        .seed(seed)
        .threads(threads)
        .build()
        .expect("config")
}

/// The deterministic projection of a report — everything except
/// wall-clock durations (see `parallel_equivalence.rs`).
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

/// Every stream the backend (or routing façade) holds, sorted by
/// stream id — for a sharded engine this is the union over its shards.
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

/// Sharding is placement: every stream a shard holds is one the
/// router places there, and at ≥ 2 shards every shard holds profile
/// streams, so the engine really wrote across shards.
fn assert_placement(engine: &ShardedEngine, label: &str) {
    let router = engine.router();
    for (s, shard) in engine.shards().iter().enumerate() {
        let streams = shard.list().expect("list");
        for &stream in &streams {
            assert_eq!(
                router.shard_of(stream),
                s,
                "[{label}] shard {s} holds {stream}, which another shard owns"
            );
        }
        if engine.num_shards() >= 2 {
            assert!(
                streams
                    .iter()
                    .any(|st| matches!(st, StreamId::Profiles(..))),
                "[{label}] shard {s} holds no profile stream"
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn sharded_engine(
    n: usize,
    k: usize,
    m: usize,
    seed: u64,
    threads: usize,
    shards: usize,
    disk: bool,
    g0: &KnnGraph,
) -> ShardedEngine {
    let backends: Vec<Arc<dyn StorageBackend>> = (0..shards)
        .map(|_| -> Arc<dyn StorageBackend> {
            if disk {
                Arc::new(DiskBackend::temp("shard_equivalence").expect("disk backend"))
            } else {
                Arc::new(MemBackend::new())
            }
        })
        .collect();
    ShardedEngine::with_initial_graph_on(
        config(n, k, m, seed, threads),
        g0.clone(),
        workload(n, seed),
        backends,
    )
    .expect("sharded engine")
}

fn destroy_shards(engine: ShardedEngine) {
    let dirs: Vec<_> = engine
        .shards()
        .iter()
        .filter_map(|b| b.working_dir().cloned())
        .collect();
    drop(engine);
    for wd in dirs {
        wd.destroy().expect("cleanup");
    }
}

/// Shards {1, 2, 4} × backends {mem, disk} × threads {1, 2}, plus a
/// plain engine as root reference: thirteen engines over the same
/// seeded workload (updates to 8 % of the users queued mid-run on all
/// of them) stay bit-for-bit in lockstep for 3 iterations, and their
/// persisted stream unions and summed I/O meters agree byte for byte
/// and counter for counter.
#[test]
fn shard_count_never_changes_the_computation() {
    let n = 72;
    let (k, m, seed) = (4, 6, 23);
    let g0 = KnnGraph::random_init(n, k, seed);

    // The unsharded root reference.
    let reference_backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let mut reference = KnnEngine::with_initial_graph_on(
        config(n, k, m, seed, 2),
        g0.clone(),
        workload(n, seed),
        Arc::clone(&reference_backend),
    )
    .expect("reference engine");

    let mut engines: Vec<(String, ShardedEngine)> = Vec::new();
    for &shards in &SHARD_COUNTS {
        for disk in [false, true] {
            for &threads in &THREAD_COUNTS {
                let engine = sharded_engine(n, k, m, seed, threads, shards, disk, &g0);
                let backend = if disk { "disk" } else { "mem" };
                engines.push((
                    format!("shards={shards} backend={backend} threads={threads}"),
                    engine,
                ));
            }
        }
    }

    let updates = churn(&workload(n, seed));
    for iteration in 0..3u32 {
        if iteration == 1 {
            for delta in &updates {
                reference.queue_update(delta).expect("update");
                for (_, engine) in &mut engines {
                    engine.queue_update(delta).expect("update");
                }
            }
        }
        let ref_report = reference.run_iteration().expect("iteration");
        for (label, engine) in &mut engines {
            let sharded = engine.run_iteration().expect("iteration");
            assert_eq!(
                reference.graph(),
                engine.graph(),
                "iteration {iteration}: graph of [{label}] diverged"
            );
            assert_eq!(
                deterministic_fields(&ref_report),
                deterministic_fields(&sharded.report),
                "iteration {iteration}: report of [{label}] diverged"
            );
            assert_placement(engine, label);
        }
    }

    // Byte-for-byte: every engine's persisted stream union equals the
    // unsharded reference backend's stream set.
    let reference_streams = all_stream_bytes(reference_backend.as_ref());
    assert!(
        reference_streams.len() > 2 * m,
        "reference run persisted suspiciously few streams"
    );
    let reference_io: IoSnapshot = reference.io_snapshot();
    for (label, engine) in &engines {
        assert_eq!(
            reference_streams,
            all_stream_bytes(engine.router().as_ref() as &dyn StorageBackend),
            "persisted streams of [{label}] diverged"
        );
        assert_eq!(
            reference_io,
            engine.io_snapshot(),
            "summed IoStats of [{label}] diverged"
        );
    }

    for (_, engine) in engines {
        destroy_shards(engine);
    }
}

/// Convergence pressure across the shard axis: independent runs to
/// convergence land on the same iteration count and the same graph at
/// every shard count.
#[test]
fn independent_runs_to_convergence_agree_across_shard_counts() {
    let n = 64;
    let (k, m, seed) = (4, 4, 31);
    let mut reference: Option<(usize, KnnGraph)> = None;
    for &shards in &SHARD_COUNTS {
        let mut engine =
            ShardedEngine::in_memory(config(n, k, m, seed, 2), workload(n, seed), shards)
                .expect("engine");
        let iterations_run = run_until_converged(&mut engine, 0.02, 12);
        match &reference {
            None => reference = Some((iterations_run, engine.graph().clone())),
            Some((ref_iters, ref_graph)) => {
                assert_eq!(ref_iters, &iterations_run, "shards={shards}");
                assert_eq!(ref_graph, engine.graph(), "shards={shards}");
            }
        }
    }
}

/// The serving half of the acceptance bar: answers from a service over
/// a 4-shard engine are identical to the unsharded service over the
/// same engine state — neighbors, batches (and their generation tag),
/// and ad-hoc profile scans. So are a 1-shard service's.
#[test]
fn scatter_gather_matches_the_single_shard_service() {
    let n = 72;
    let (k, m, seed) = (4, 6, 23);
    let cfg = config(n, k, m, seed, 2);
    let mut plain = KnnEngine::in_memory(cfg.clone(), workload(n, seed)).expect("plain engine");
    for _ in 0..3 {
        plain.run_iteration().expect("iteration");
    }
    let graph = plain.graph().clone();

    // Freeze every service at generation 0 so the comparison is not
    // racing background refinement.
    let frozen = RefineOptions {
        convergence_threshold: None,
        max_iterations: Some(0),
        idle_park: Duration::from_millis(1),
        repair: false,
        ..RefineOptions::default()
    };
    let (service, refine) = spawn(plain, frozen.clone()).expect("spawn");
    let users: Vec<UserId> = (0..n as u32).map(UserId::new).collect();
    let batch = service.neighbors_many(&users).expect("batch");
    assert_eq!(batch.generation, 0);
    let snapshot = service.snapshot();

    for shards in [4, 1] {
        let mut sharded =
            ShardedEngine::in_memory(cfg.clone(), workload(n, seed), shards).expect("sharded");
        for _ in 0..3 {
            sharded.run_iteration().expect("iteration");
        }
        assert_eq!(&graph, sharded.graph(), "shards={shards}");
        assert_eq!(sharded.num_shards(), shards);
        let (sharded_service, sharded_refine) =
            spawn_sharded(sharded, frozen.clone()).expect("spawn_sharded");
        assert_eq!(sharded_service.num_users(), service.num_users());

        for &u in &users {
            assert_eq!(
                service.neighbors(u).expect("known user"),
                sharded_service.neighbors(u).expect("known user"),
                "shards={shards}: neighbors({u:?}) diverged"
            );
        }
        let sharded_batch = sharded_service.neighbors_many(&users).expect("batch");
        assert_eq!(batch, sharded_batch, "shards={shards}");

        // Ad-hoc scans.
        for &u in users.iter().take(8) {
            let query = snapshot.profiles().get(u);
            assert_eq!(
                service.query_profile(query, k + 2).expect("finite query"),
                sharded_service
                    .query_profile(query, k + 2)
                    .expect("finite query"),
                "shards={shards}: query_profile near {u:?} diverged"
            );
        }

        // All-or-nothing validation names the offending id.
        let bad = UserId::new(n as u32);
        let err = sharded_service
            .neighbors_many(&[UserId::new(0), bad])
            .expect_err("must reject");
        assert!(matches!(err, ServeError::UnknownUser { user, .. } if user == bad));
        assert!(sharded_service.neighbors(bad).is_err());

        sharded_refine.stop().expect("stop");
    }
    refine.stop().expect("stop");
}

/// Live updates through the sharded service: a submitted delta is
/// routed to its owner shard's durable queue, applied by a later
/// iteration, and surfaces in a served snapshot.
#[test]
fn updates_flow_through_the_sharded_service() {
    let n = 120;
    let workload = WorkloadConfig::recommender().build(n, 11);
    let cfg = EngineConfig::builder(n)
        .k(6)
        .num_partitions(4)
        .measure(workload.measure)
        .seed(11)
        .threads(2)
        .build()
        .expect("config");
    let engine = ShardedEngine::in_memory(cfg, workload.profiles, 3).expect("engine");
    let (service, refine) = spawn_sharded(
        engine,
        RefineOptions {
            convergence_threshold: Some(0.02),
            max_iterations: Some(10),
            idle_park: Duration::from_millis(1),
            repair: false,
            ..RefineOptions::default()
        },
    )
    .expect("spawn_sharded");

    // Served immediately from generation 0.
    assert_eq!(service.neighbors(UserId::new(0)).expect("known").len(), 6);

    let target = UserId::new(7);
    let mut fresh = Profile::new();
    fresh.set(ItemId::new(9_999), 5.0);
    service
        .submit_update(ProfileDelta::replace(target, fresh.clone()))
        .expect("valid update");

    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let batch = service.neighbors_many(&[target]).expect("batch");
        if batch.generation > 0 {
            let engine_view = refine.current_epoch();
            assert!(engine_view >= batch.generation);
        }
        // The update has surfaced once the served snapshot carries the
        // replaced profile.
        let done = service
            .query_profile(&fresh, 1)
            .expect("finite query")
            .first()
            .map(|n| n.id)
            == Some(target);
        if done {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "update never surfaced in the sharded snapshots"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    let stats = service.stats();
    assert_eq!(stats.updates_submitted, 1);
    assert_eq!(stats.updates_drained, 1);

    let engine = refine.stop().expect("stop");
    assert_eq!(
        engine.profile_of(target).expect("profile readable"),
        fresh,
        "the durable owner-shard log must have applied the delta"
    );
    // Post-shutdown submits fail closed.
    assert!(matches!(
        service.submit_update(ProfileDelta::set(UserId::new(1), ItemId::new(1), 1.0)),
        Err(ServeError::Stopped)
    ));
}

/// Recall floors hold under sharding: the 4-shard engine's converged
/// graph is as accurate as the unsharded engine's (it is the *same*
/// graph, but the floor keeps this suite meaningful on its own).
#[test]
fn sharded_recall_meets_the_floors() {
    for (workload_config, seed, floor) in [
        (WorkloadConfig::recommender(), 42u64, 0.93),
        (WorkloadConfig::tags(), 7, 0.80),
    ] {
        let n = 400;
        let k = 10;
        let built = workload_config.build(n, seed);
        let truth = brute_force_knn(&built.profiles, &built.measure, k, 4);
        let cfg = EngineConfig::builder(n)
            .k(k)
            .num_partitions(8)
            .measure(built.measure)
            .threads(4)
            .seed(seed)
            .build()
            .expect("config");
        let mut engine = ShardedEngine::in_memory(cfg, built.profiles, 4).expect("engine");
        run_until_converged(&mut engine, 0.01, 20);
        let recall = recall_at_k(engine.graph(), &truth).mean_recall;
        assert!(
            recall >= floor,
            "sharded recall {recall:.3} under the {floor} floor (seed {seed})"
        );
    }
}
