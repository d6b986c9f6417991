//! Crash-recovery property suite: kill a multi-iteration run at every
//! storage-operation index, resume, finish the schedule, and require
//! **bit-identical** state against a never-crashed twin — on both
//! backends, with torn writes, under sharding, and for transient
//! fault storms the retry policy must absorb.
//!
//! The driver queues one profile update before each iteration (so
//! every kill point races an in-flight update against the durable
//! log), arms the fault plan only around `run_iteration` (queueing an
//! update is the application's own durable append, not part of the
//! iteration being killed), and resumes on the fault wrapper's inner
//! backend — the bytes that actually survived the "crash".

use std::collections::BTreeMap;
use std::sync::Arc;

use ooc_knn::sim::generators::{clustered_profiles, ClusteredConfig};
use ooc_knn::store::{
    DiskBackend, FaultBackend, FaultKind, FaultPlan, MemBackend, StorageBackend, StreamId,
};
use ooc_knn::{
    EngineConfig, ItemId, IterationReport, KnnEngine, Measure, ProfileDelta, ProfileStore,
    ShardedEngine, UserId,
};

const N: usize = 30;
const K: usize = 3;
const M: usize = 4;
const SEED: u64 = 11;
const ITERS: u64 = 3;

fn workload() -> ProfileStore {
    let (store, _) = clustered_profiles(
        ClusteredConfig::new(N, SEED)
            .with_clusters(3)
            .with_ratings(8, 2),
    );
    store
}

fn config() -> EngineConfig {
    // A resumed engine restarts offer-time suppression from scratch,
    // so the twin must not carry in-process pruning state either —
    // report equality then holds iteration by iteration.
    config_with(false)
}

/// The schedule's configuration with offer-time suppression `prune`.
fn config_with(prune: bool) -> EngineConfig {
    EngineConfig::builder(N)
        .k(K)
        .num_partitions(M)
        .measure(Measure::Cosine)
        .prune_pairs(prune)
        .seed(SEED)
        .build()
        .expect("config")
}

/// The update queued before iteration `t` — a pure function of `t`, so
/// the crashed run and the twin schedule identical updates.
fn update_for(iteration: u64) -> ProfileDelta {
    ProfileDelta::set(
        UserId::new((iteration as u32 * 7) % N as u32),
        ItemId::new(5_000 + iteration as u32),
        1.5 + iteration as f32,
    )
}

/// Every committed stream at rest plus the update log, as raw bytes —
/// the bit-identical-state fingerprint. Tuple scratch (buckets and
/// spill runs) is re-derived every iteration and GC'd by recovery, so
/// it is not part of the durable contract.
fn stream_bytes(b: &dyn StorageBackend) -> BTreeMap<String, Vec<u8>> {
    let mut map = BTreeMap::new();
    for s in b.list().expect("list") {
        if s.is_tuple_scratch() {
            continue;
        }
        map.insert(s.to_string(), b.read(s).expect("read"));
    }
    map.insert("updates.log".into(), b.read_updates().expect("log"));
    map
}

/// A report with durations zeroed: everything else is deterministic
/// and must match across crash/resume boundaries.
fn deterministic(report: &IterationReport) -> IterationReport {
    IterationReport {
        phase_durations: Default::default(),
        ..report.clone()
    }
}

/// Runs the full 3-iteration schedule on a clean world.
fn run_clean(backend: Arc<dyn StorageBackend>, prune: bool) -> KnnEngine {
    let mut engine =
        KnnEngine::new_on(config_with(prune), workload(), backend).expect("clean build");
    while engine.iteration() < ITERS {
        engine
            .queue_update(&update_for(engine.iteration()))
            .expect("queue");
        engine.run_iteration().expect("clean iteration");
    }
    engine
}

/// Drives the schedule with the fault armed around each iteration.
/// `Err(())` means the fault fired mid-iteration (the "crash").
fn drive_faulted(fault: &FaultBackend, engine: &mut KnnEngine) -> Result<(), ()> {
    while engine.iteration() < ITERS {
        if engine.pending_updates().expect("pending") == 0 {
            engine
                .queue_update(&update_for(engine.iteration()))
                .expect("queue");
        }
        fault.arm();
        let result = engine.run_iteration();
        fault.disarm();
        if result.is_err() {
            return Err(());
        }
    }
    Ok(())
}

/// Reopens the survived bytes and finishes the schedule. The pending
/// check keeps the update schedule exact: a rollback preserves the
/// crashed iteration's queued update in the log; a commit that barely
/// survived consumed it.
fn resume_and_finish(backend: Arc<dyn StorageBackend>, prune: bool) -> KnnEngine {
    let mut engine = KnnEngine::resume_on(config_with(prune), backend).expect("resume");
    assert!(
        engine.recovery_report().is_some(),
        "protocol-on resume must report recovery"
    );
    while engine.iteration() < ITERS {
        if engine.pending_updates().expect("pending") == 0 {
            engine
                .queue_update(&update_for(engine.iteration()))
                .expect("queue");
        }
        engine.run_iteration().expect("post-resume iteration");
    }
    engine
}

/// The tentpole property: for every armed operation index `op` in the
/// schedule, kill there, resume, finish — and end bit-identical to the
/// never-crashed twin, reports included. With `prune` the kills also
/// land in phase 5's stale-seed sweep; the reports are then not
/// compared, since a resumed engine restarts suppression and its
/// counters legitimately differ from the twin's.
fn crash_at_every_op(
    make_backend: &dyn Fn() -> Arc<dyn StorageBackend>,
    kind: FaultKind,
    prune: bool,
) {
    let twin_backend = make_backend();
    let twin = run_clean(Arc::clone(&twin_backend), prune);
    let twin_streams = stream_bytes(twin_backend.as_ref());
    let twin_reports: Vec<IterationReport> = twin.reports().iter().map(deterministic).collect();

    // Probe with an unreachable kill point to learn the schedule's
    // armed-operation count.
    let probe = Arc::new(FaultBackend::new(make_backend()));
    probe.set_plan(FaultPlan {
        fail_at: u64::MAX,
        kind,
        seed: SEED,
    });
    let mut engine = KnnEngine::new_on(
        config_with(prune),
        workload(),
        Arc::clone(&probe) as Arc<dyn StorageBackend>,
    )
    .expect("probe build");
    drive_faulted(&probe, &mut engine).expect("unreachable kill point must not fire");
    let total_ops = probe.ops_observed();
    assert!(total_ops > 0, "the schedule must perform armed operations");
    drop(engine);

    for op in 0..total_ops {
        let fault = Arc::new(FaultBackend::new(make_backend()));
        fault.set_plan(FaultPlan {
            fail_at: op,
            kind,
            seed: SEED ^ op,
        });
        let mut engine = KnnEngine::new_on(
            config_with(prune),
            workload(),
            Arc::clone(&fault) as Arc<dyn StorageBackend>,
        )
        .expect("faulted build");
        let outcome = drive_faulted(&fault, &mut engine);
        assert!(outcome.is_err(), "kill at op {op} never fired");
        assert!(fault.is_dead(), "kill at op {op} left the backend alive");
        // Reports of iterations that completed before the crash are
        // final — they must already match the twin.
        let mut reports: BTreeMap<u64, IterationReport> = engine
            .reports()
            .iter()
            .map(|r| (r.iteration, deterministic(r)))
            .collect();
        drop(engine);

        let survivor = Arc::clone(fault.inner());
        let finished = resume_and_finish(Arc::clone(&survivor), prune);
        assert_eq!(
            finished.graph(),
            twin.graph(),
            "graph diverged after kill at op {op}"
        );
        assert_eq!(
            stream_bytes(survivor.as_ref()),
            twin_streams,
            "persisted bytes diverged after kill at op {op}"
        );
        for r in finished.reports() {
            reports.insert(r.iteration, deterministic(r));
        }
        // A kill inside the post-commit cleanup keeps the commit: that
        // iteration's report was lost with the "process" but its state
        // survived, so only require every *present* report to match.
        for (t, report) in reports.iter().filter(|_| !prune) {
            assert_eq!(
                report, &twin_reports[*t as usize],
                "report of iteration {t} diverged after kill at op {op}"
            );
        }
        let scrub = finished.verify().expect("scrub");
        assert!(
            scrub.is_clean(),
            "scrub found issues after kill at op {op}: {scrub}"
        );
    }
}

#[test]
fn mem_backend_survives_a_crash_at_every_op() {
    crash_at_every_op(&|| Arc::new(MemBackend::new()), FaultKind::Crash, false);
}

/// Suppression on, one update queued before every iteration: phase 5's
/// stale-seed sweep reads profile partitions after the updates land,
/// so some kills fall inside it. Graph and committed bytes must still
/// equal the pruned never-crashed twin's.
#[test]
fn mem_backend_with_pruning_survives_a_crash_at_every_op() {
    crash_at_every_op(&|| Arc::new(MemBackend::new()), FaultKind::Crash, true);
}

#[test]
fn mem_backend_survives_a_torn_write_at_every_op() {
    crash_at_every_op(&|| Arc::new(MemBackend::new()), FaultKind::Torn, false);
}

#[test]
fn mem_backend_survives_enospc_at_every_op() {
    crash_at_every_op(&|| Arc::new(MemBackend::new()), FaultKind::Enospc, false);
}

#[test]
fn disk_backend_survives_a_crash_at_every_op() {
    let dirs: std::sync::Mutex<Vec<ooc_knn::WorkingDir>> = std::sync::Mutex::new(Vec::new());
    crash_at_every_op(
        &|| {
            let b = DiskBackend::temp("crash_disk").expect("tempdir");
            dirs.lock().unwrap().push(b.working_dir().unwrap().clone());
            Arc::new(b)
        },
        FaultKind::Crash,
        false,
    );
    for wd in dirs.into_inner().unwrap() {
        wd.destroy().expect("cleanup");
    }
}

#[test]
fn disk_backend_survives_a_torn_write_at_every_op() {
    let dirs: std::sync::Mutex<Vec<ooc_knn::WorkingDir>> = std::sync::Mutex::new(Vec::new());
    crash_at_every_op(
        &|| {
            let b = DiskBackend::temp("torn_disk").expect("tempdir");
            dirs.lock().unwrap().push(b.working_dir().unwrap().clone());
            Arc::new(b)
        },
        FaultKind::Torn,
        false,
    );
    for wd in dirs.into_inner().unwrap() {
        wd.destroy().expect("cleanup");
    }
}

/// The sharded leg: kill every armed op on each shard in turn; the
/// recovery must converge every shard to the common committed
/// generation through the router.
fn sharded_crash_at_every_op(num_shards: usize, kind: FaultKind) {
    let clean_shards: Vec<Arc<dyn StorageBackend>> = (0..num_shards)
        .map(|_| Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>)
        .collect();
    let mut twin =
        ShardedEngine::new_on(config(), workload(), clean_shards.clone()).expect("twin build");
    while twin.iteration() < ITERS {
        twin.queue_update(&update_for(twin.iteration())).unwrap();
        twin.run_iteration().expect("twin iteration");
    }
    let twin_streams: Vec<BTreeMap<String, Vec<u8>>> = clean_shards
        .iter()
        .map(|s| stream_bytes(s.as_ref()))
        .collect();

    for victim in 0..num_shards {
        // Probe the armed-op count on this shard.
        let probe = Arc::new(FaultBackend::new(
            Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>
        ));
        probe.set_plan(FaultPlan {
            fail_at: u64::MAX,
            kind,
            seed: SEED,
        });
        let shards: Vec<Arc<dyn StorageBackend>> = (0..num_shards)
            .map(|s| {
                if s == victim {
                    Arc::clone(&probe) as Arc<dyn StorageBackend>
                } else {
                    Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>
                }
            })
            .collect();
        let mut engine = ShardedEngine::new_on(config(), workload(), shards).expect("probe");
        while engine.iteration() < ITERS {
            engine
                .queue_update(&update_for(engine.iteration()))
                .unwrap();
            probe.arm();
            engine.run_iteration().expect("probe iteration");
            probe.disarm();
        }
        let total_ops = probe.ops_observed();
        assert!(total_ops > 0, "shard {victim} performed no armed ops");
        drop(engine);

        // Killing every single op on every shard would square the
        // runtime; a stride covers every phase of every iteration on
        // every shard while the single-backend tests above cover the
        // exhaustive enumeration.
        for op in (0..total_ops).step_by(7) {
            let fault = Arc::new(FaultBackend::new(
                Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>
            ));
            fault.set_plan(FaultPlan {
                fail_at: op,
                kind,
                seed: SEED ^ op,
            });
            let shards: Vec<Arc<dyn StorageBackend>> = (0..num_shards)
                .map(|s| {
                    if s == victim {
                        Arc::clone(&fault) as Arc<dyn StorageBackend>
                    } else {
                        Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>
                    }
                })
                .collect();
            let survivors: Vec<Arc<dyn StorageBackend>> = shards
                .iter()
                .enumerate()
                .map(|(s, b)| {
                    if s == victim {
                        Arc::clone(fault.inner())
                    } else {
                        Arc::clone(b)
                    }
                })
                .collect();
            let mut engine =
                ShardedEngine::new_on(config(), workload(), shards).expect("faulted build");
            let mut crashed = false;
            while engine.iteration() < ITERS {
                if engine.pending_updates().expect("pending") == 0 {
                    engine
                        .queue_update(&update_for(engine.iteration()))
                        .unwrap();
                }
                fault.arm();
                let result = engine.run_iteration();
                fault.disarm();
                if result.is_err() {
                    crashed = true;
                    break;
                }
            }
            assert!(crashed, "kill at shard {victim} op {op} never fired");
            drop(engine);

            let mut resumed =
                ShardedEngine::resume_on(config(), survivors.clone()).expect("sharded resume");
            assert!(resumed.recovery_report().is_some());
            while resumed.iteration() < ITERS {
                if resumed.pending_updates().expect("pending") == 0 {
                    resumed
                        .queue_update(&update_for(resumed.iteration()))
                        .unwrap();
                }
                resumed.run_iteration().expect("post-resume iteration");
            }
            assert_eq!(
                resumed.graph(),
                twin.graph(),
                "graph diverged after kill at shard {victim} op {op}"
            );
            for (s, survivor) in survivors.iter().enumerate() {
                assert_eq!(
                    stream_bytes(survivor.as_ref()),
                    twin_streams[s],
                    "shard {s} bytes diverged after kill at shard {victim} op {op}"
                );
            }
            let scrub = resumed.verify().expect("scrub");
            assert!(
                scrub.is_clean(),
                "scrub found issues after kill at shard {victim} op {op}: {scrub}"
            );
        }
    }
}

#[test]
fn one_shard_world_survives_crashes() {
    sharded_crash_at_every_op(1, FaultKind::Crash);
}

#[test]
fn two_shard_world_survives_crashes_on_either_shard() {
    sharded_crash_at_every_op(2, FaultKind::Crash);
}

#[test]
fn two_shard_world_survives_torn_writes() {
    sharded_crash_at_every_op(2, FaultKind::Torn);
}

/// Storm length that outlasts the engine's retry policy (4 attempts
/// per operation): the operation it lands on fails the iteration.
const STORM: u32 = 4;

/// One run of [`retry_in_process`].
struct Retried {
    fault: Arc<FaultBackend>,
    engine: KnnEngine,
    /// Per completed iteration: its report, and whether the storm hit
    /// the attempt that produced it.
    reports: Vec<(IterationReport, bool)>,
    /// Whether the engine gave up: an iteration failed again after the
    /// storm was spent.
    gave_up: bool,
}

/// Drives the schedule with a `storm`-long transient fault armed at
/// op `fail_at`, retrying a failed iteration in the same process — no
/// resume. With `scrub`, every failed attempt must leave a clean
/// store behind it.
fn retry_in_process(prune: bool, fail_at: u64, storm: u32, scrub: bool) -> Retried {
    let fault = Arc::new(FaultBackend::new(
        Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>
    ));
    fault.set_plan(FaultPlan {
        fail_at,
        kind: FaultKind::Transient { times: storm },
        seed: SEED,
    });
    let mut engine = KnnEngine::new_on(
        config_with(prune),
        workload(),
        Arc::clone(&fault) as Arc<dyn StorageBackend>,
    )
    .expect("build");
    let mut reports = Vec::new();
    let mut gave_up = false;
    let mut queued_for = None;
    while engine.iteration() < ITERS && !gave_up {
        // A rolled-back attempt leaves its update in the log: queue
        // each iteration's update once, whatever its attempts do.
        if queued_for != Some(engine.iteration()) {
            engine
                .queue_update(&update_for(engine.iteration()))
                .expect("queue");
            queued_for = Some(engine.iteration());
        }
        let ops_before = fault.ops_observed();
        fault.arm();
        let result = engine.run_iteration();
        fault.disarm();
        let hit = (ops_before..fault.ops_observed()).contains(&fail_at);
        match result {
            Ok(report) => reports.push((report, hit)),
            Err(_) if !hit => gave_up = true,
            Err(_) => {
                if scrub {
                    let report = engine.verify().expect("scrub");
                    assert!(
                        report.is_clean(),
                        "op {fail_at}: failed attempt left {report}"
                    );
                }
            }
        }
    }
    Retried {
        fault,
        engine,
        reports,
        gave_up,
    }
}

/// A failed iteration is rolled back in memory and in storage, so
/// retrying it in the same process ends where a run that never failed
/// does: for a storm at every armed op, with and without pruning, the
/// graph, every report and the committed bytes equal the twin's. A
/// storm inside the commit's cleanup, after its record landed, leaves
/// the iteration committed; only that attempt's I/O counts (its
/// retries and the recovery that finished it) may differ.
fn retry_at_every_op(prune: bool) {
    let twin_backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let twin = run_clean(Arc::clone(&twin_backend), prune);
    let twin_streams = stream_bytes(twin_backend.as_ref());
    let total_ops = retry_in_process(prune, u64::MAX, STORM, true)
        .fault
        .ops_observed();
    assert!(total_ops > 0, "the schedule must perform armed operations");

    for op in 0..total_ops {
        let run = retry_in_process(prune, op, STORM, true);
        assert!(!run.gave_up, "storm at op {op}: the retry failed too");
        assert_eq!(
            run.engine.graph(),
            twin.graph(),
            "graph diverged, storm at op {op}"
        );
        assert_eq!(
            stream_bytes(run.fault.inner().as_ref()),
            twin_streams,
            "persisted bytes diverged, storm at op {op}"
        );
        assert_eq!(run.reports.len(), twin.reports().len(), "storm at op {op}");
        for ((report, hit), expected) in run.reports.iter().zip(twin.reports()) {
            let (mut report, mut expected) = (deterministic(report), deterministic(expected));
            if *hit {
                report.phase_io = Default::default();
                expected.phase_io = Default::default();
            }
            assert_eq!(report, expected, "report diverged, storm at op {op}");
        }
    }
}

#[test]
fn a_failed_iteration_retried_in_process_matches_the_twin() {
    retry_at_every_op(false);
}

#[test]
fn a_failed_iteration_retried_in_process_matches_the_twin_with_pruning() {
    retry_at_every_op(true);
}

/// A storm long enough to fail the rollback too: the next attempt
/// rolls back first and the run ends at the twin's state. Only where
/// the commit record had landed and the recovery that would finish
/// it failed does the engine refuse to go on; resuming from its
/// backend then finishes the schedule.
#[test]
fn a_failed_rollback_is_finished_by_the_next_attempt() {
    let twin_backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let twin = run_clean(Arc::clone(&twin_backend), false);
    let total_ops = retry_in_process(false, u64::MAX, STORM, true)
        .fault
        .ops_observed();
    for op in (0..total_ops).step_by(7) {
        let Retried {
            fault,
            mut engine,
            gave_up: stuck,
            ..
        } = retry_in_process(false, op, 2 * STORM, false);
        if stuck {
            let durable = engine.verify().expect("scrub");
            assert!(
                !durable.is_clean(),
                "storm at op {op}: gave up on a clean store"
            );
            drop(engine);
            engine = resume_and_finish(Arc::clone(fault.inner()), false);
        }
        assert_eq!(engine.graph(), twin.graph(), "storm at op {op}");
        assert_eq!(
            stream_bytes(fault.inner().as_ref()),
            stream_bytes(twin_backend.as_ref()),
            "storm at op {op}"
        );
        let scrub = engine.verify().expect("scrub");
        assert!(scrub.is_clean(), "storm at op {op}: {scrub}");
    }
}

/// Transient faults never crash the run: the engine's retry policy
/// absorbs them, the result is bit-identical to a fault-free twin, and
/// the retries surface on the iteration report.
#[test]
fn transient_fault_storms_are_absorbed_by_the_retry_policy() {
    let twin_backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let twin = run_clean(Arc::clone(&twin_backend), false);
    assert_eq!(
        twin.reports().iter().map(|r| r.retries()).sum::<u64>(),
        0,
        "a clean run must not retry"
    );

    for fail_at in [0u64, 3, 17, 100] {
        let fault = Arc::new(FaultBackend::new(
            Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>
        ));
        fault.set_plan(FaultPlan {
            fail_at,
            kind: FaultKind::Transient { times: 2 },
            seed: SEED,
        });
        let mut engine = KnnEngine::new_on(
            config(),
            workload(),
            Arc::clone(&fault) as Arc<dyn StorageBackend>,
        )
        .expect("build");
        drive_faulted(&fault, &mut engine).expect("transient faults must not kill the run");
        assert_eq!(engine.graph(), twin.graph(), "fail_at={fail_at}");
        assert_eq!(
            stream_bytes(fault.inner().as_ref()),
            stream_bytes(twin_backend.as_ref()),
            "fail_at={fail_at}"
        );
        assert_eq!(
            engine.io_snapshot().retries,
            2,
            "fail_at={fail_at}: both hiccups counted"
        );
    }
}

/// A pre-protocol working directory (no commit record, no staged
/// streams) resumes under the protocol untouched, and the first
/// committed iteration upgrades it in place. At rest, the commit
/// record is the only stream the protocol adds, so deleting it from a
/// committed run yields exactly the pre-protocol layout.
#[test]
fn legacy_layout_resumes_under_the_protocol() {
    let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let mut legacy =
        KnnEngine::new_on(config(), workload(), Arc::clone(&backend)).expect("legacy build");
    legacy.queue_update(&update_for(0)).unwrap();
    legacy.run_iteration().expect("legacy iteration");
    legacy.queue_update(&update_for(1)).unwrap();
    legacy.run_iteration().expect("legacy iteration");
    let carried = legacy.graph().clone();
    drop(legacy);
    backend.delete(StreamId::Commit).unwrap();

    let mut resumed = KnnEngine::resume_on(config(), Arc::clone(&backend)).expect("resume");
    let recovery = resumed.recovery_report().expect("recovery ran").clone();
    assert_eq!(recovery.committed_generation, None, "legacy layout");
    assert!(!recovery.rolled_back);
    assert_eq!(resumed.graph(), &carried);
    assert_eq!(resumed.iteration(), 2);
    resumed.queue_update(&update_for(2)).unwrap();
    resumed.run_iteration().expect("upgraded iteration");
    assert!(
        backend.exists(StreamId::Commit),
        "the first protocol iteration writes the commit record"
    );
    let scrub = resumed.verify().expect("scrub");
    assert!(scrub.is_clean(), "{scrub}");

    // The upgraded run's answer equals a protocol-on twin's.
    let twin = run_clean(Arc::new(MemBackend::new()), false);
    assert_eq!(resumed.graph(), twin.graph());
}

/// Stale scratch and staged leftovers are GC'd on resume, and the
/// recovered listing matches a clean twin's exactly.
#[test]
fn resume_collects_stale_scratch_and_staged_streams() {
    let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let mut engine = KnnEngine::new_on(config(), workload(), Arc::clone(&backend)).unwrap();
    engine.run_iteration().unwrap();
    drop(engine);
    // Plant a stale spill run and an orphaned staged backup from a
    // "previous" epoch, as an interrupted iteration would leave them.
    backend
        .write(StreamId::TupleRun(0, 1, 9), b"stale spill")
        .unwrap();
    backend
        .write(
            StreamId::Staged(ooc_knn::store::CommitTarget::Meta, 0),
            b"orphan",
        )
        .unwrap();

    let resumed = KnnEngine::resume_on(config(), Arc::clone(&backend)).unwrap();
    let recovery = resumed.recovery_report().unwrap();
    assert!(recovery.scratch_deleted >= 1, "{recovery:?}");
    assert!(recovery.staged_deleted >= 1, "{recovery:?}");
    assert!(!backend.exists(StreamId::TupleRun(0, 1, 9)));
    assert!(!backend.exists(StreamId::Staged(ooc_knn::store::CommitTarget::Meta, 0)));
    drop(resumed);

    let twin_backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let mut twin = KnnEngine::new_on(config(), workload(), Arc::clone(&twin_backend)).unwrap();
    twin.run_iteration().unwrap();
    drop(twin);
    assert_eq!(
        stream_bytes(backend.as_ref()),
        stream_bytes(twin_backend.as_ref()),
        "recovered listing must match the clean twin"
    );
}

/// Phase 4 keeps its top-K accumulators in RAM, so no iteration leaves
/// an accumulator stream behind. A legacy `.accum` stream, as an older
/// working directory holds one, is per-iteration scratch: planted in a
/// committed run, it is deleted on resume, on both backends.
#[test]
fn accumulator_streams_never_rest_and_legacy_ones_are_collected() {
    let disk = DiskBackend::temp("legacy_accum").expect("tempdir");
    let wd = disk.working_dir().unwrap().clone();
    let backends: [Arc<dyn StorageBackend>; 2] = [Arc::new(MemBackend::new()), Arc::new(disk)];
    for backend in backends {
        let accum_streams = || {
            backend
                .list()
                .unwrap()
                .into_iter()
                .filter(|s| matches!(s, StreamId::Accumulators(_)))
                .count()
        };
        let mut engine = KnnEngine::new_on(config(), workload(), Arc::clone(&backend)).unwrap();
        for t in 0..2 {
            engine.queue_update(&update_for(t)).unwrap();
            engine.run_iteration().unwrap();
            assert_eq!(accum_streams(), 0, "iteration {t} left accumulator streams");
        }
        drop(engine);

        backend
            .write(StreamId::Accumulators(1), b"legacy accumulators")
            .unwrap();
        assert_eq!(accum_streams(), 1);
        let mut resumed = KnnEngine::resume_on(config(), Arc::clone(&backend)).unwrap();
        let recovery = resumed.recovery_report().unwrap();
        assert!(recovery.scratch_deleted >= 1, "{recovery:?}");
        assert_eq!(accum_streams(), 0, "resume must delete the legacy stream");
        resumed.run_iteration().unwrap();
        assert_eq!(accum_streams(), 0);
        let scrub = resumed.verify().expect("scrub");
        assert!(scrub.is_clean(), "{scrub}");
    }
    wd.destroy().expect("cleanup");
}

/// The scrub flags corruption and leftovers a healthy store must not
/// have.
#[test]
fn scrub_reports_corruption_and_leftovers() {
    let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let mut engine = KnnEngine::new_on(config(), workload(), Arc::clone(&backend)).unwrap();
    engine.run_iteration().unwrap();
    let clean = engine.verify().expect("scrub");
    assert!(clean.is_clean(), "{clean}");
    assert!(clean.streams_checked > 10);

    // Corrupt a profile stream's framing and plant a staged leftover;
    // the scrub must surface both without erroring out.
    backend
        .write_raw(StreamId::Profiles(0), b"not a valid frame")
        .unwrap();
    backend
        .write(
            StreamId::Staged(ooc_knn::store::CommitTarget::Assignment, 3),
            b"x",
        )
        .unwrap();
    let report = engine.verify().expect("scrub");
    assert!(!report.is_clean(), "{report}");
    assert!(report.issues.len() >= 2, "{report}");
}
