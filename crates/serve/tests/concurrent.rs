//! Concurrency contract of the serving layer: readers racing the
//! refinement loop only ever observe whole, published generations.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use knn_core::{EngineConfig, KnnEngine};
use knn_graph::{KnnGraph, UserId};
use knn_serve::{spawn, spawn_sharded, KnnService, RefineOptions};
use knn_shard::ShardedEngine;
use knn_sim::generators::{clustered_profiles, ClusteredConfig};
use knn_sim::{ItemId, Profile, ProfileDelta, ProfileStore};
use knn_store::WorkingDir;

const N: usize = 160;
const K: usize = 4;
const M: usize = 4;
const SEED: u64 = 77;
const ITERATIONS: u64 = 4;

fn world() -> (EngineConfig, ProfileStore) {
    let (profiles, _) = clustered_profiles(
        ClusteredConfig::new(N, SEED)
            .with_clusters(4)
            .with_ratings(10, 2),
    );
    let config = EngineConfig::builder(N)
        .k(K)
        .num_partitions(M)
        .seed(SEED)
        .build()
        .expect("valid config");
    (config, profiles)
}

/// Runs a twin engine synchronously and records the exact graph after
/// every iteration: `expected[t]` is `G(t)`.
fn expected_generations() -> Vec<KnnGraph> {
    let (config, profiles) = world();
    let wd = WorkingDir::temp("serve_twin").expect("twin workdir");
    let mut engine = KnnEngine::new(config, profiles, wd).expect("twin engine");
    let mut expected = vec![engine.graph().clone()];
    for _ in 0..ITERATIONS {
        engine.run_iteration().expect("twin iteration");
        expected.push(engine.graph().clone());
    }
    engine.into_working_dir().destroy().expect("twin cleanup");
    expected
}

/// The tentpole guarantee: reader threads hammering the service while
/// the refinement loop swaps snapshots must only ever see graphs that
/// are byte-identical to some *completed* iteration's graph — never a
/// mixture of two generations — and each batched read must be
/// internally consistent with its snapshot's iteration number. It
/// holds behind `spawn_sharded` too, against the same twin graphs,
/// since graphs do not depend on the shard count.
#[test]
fn concurrent_readers_observe_only_complete_generations() {
    let expected = Arc::new(expected_generations());
    let options = RefineOptions {
        convergence_threshold: None,
        max_iterations: Some(ITERATIONS),
        idle_park: Duration::from_millis(1),
        repair: false,
        ..RefineOptions::default()
    };

    let (config, profiles) = world();
    let wd = WorkingDir::temp("serve_live").expect("live workdir");
    let engine = KnnEngine::new(config, profiles, wd).expect("live engine");
    let (service, refine) = spawn(engine, options.clone()).expect("spawn service");
    assert_readers_see_whole_generations(&service, &expected, || {
        refine.wait_for_epoch(ITERATIONS, Duration::from_secs(120))
    });
    let engine = refine.stop().expect("stop refinement");
    assert_eq!(engine.iteration(), ITERATIONS);
    engine.into_working_dir().destroy().expect("cleanup");

    let (config, profiles) = world();
    let engine = ShardedEngine::in_memory(config, profiles, 2).expect("sharded engine");
    let (service, refine) = spawn_sharded(engine, options).expect("spawn_sharded");
    assert_readers_see_whole_generations(&service, &expected, || {
        refine.wait_for_epoch(ITERATIONS, Duration::from_secs(120))
    });
    let engine = refine.stop().expect("stop sharded refinement");
    assert_eq!(engine.iteration(), ITERATIONS);
}

/// Races four readers against `service`'s refinement loop until
/// `reached_last_epoch` returns, checking every snapshot and batch
/// against the twin's `expected` generations.
fn assert_readers_see_whole_generations(
    service: &KnnService,
    expected: &Arc<Vec<KnnGraph>>,
    reached_last_epoch: impl FnOnce() -> bool,
) {
    let stop = Arc::new(AtomicBool::new(false));
    let torn_reads = Arc::new(AtomicU64::new(0));
    let mut readers = Vec::new();
    let mut epoch_sets = Vec::new();
    for reader_id in 0..4u32 {
        let service = service.clone();
        let expected = Arc::clone(expected);
        let stop = Arc::clone(&stop);
        let torn_reads = Arc::clone(&torn_reads);
        let epochs_seen = Arc::new(AtomicU64::new(0));
        epoch_sets.push(Arc::clone(&epochs_seen));
        readers.push(std::thread::spawn(move || {
            let mut seen = HashSet::new();
            let mut reads = 0u64;
            while !stop.load(Ordering::Acquire) {
                let snapshot = service.snapshot();
                let t = snapshot.iteration() as usize;
                // The graph must be exactly one completed generation.
                if t >= expected.len() || *snapshot.graph() != expected[t] {
                    torn_reads.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                // A batched query must agree with its own snapshot's
                // generation entry-for-entry.
                let users: Vec<UserId> = (0..8)
                    .map(|i| {
                        UserId::new(((reader_id as usize * 13 + i * 7 + reads as usize) % N) as u32)
                    })
                    .collect();
                let batch = service.neighbors_many(&users).expect("in-range users");
                let lists = &batch.results;
                // Atomicity of the batch: *some single* completed
                // generation must explain every returned list at once.
                let single_generation = expected.iter().any(|gen| {
                    users
                        .iter()
                        .zip(lists)
                        .all(|(u, list)| gen.neighbors(*u) == list.as_slice())
                });
                if !single_generation {
                    torn_reads.fetch_add(1, Ordering::Relaxed);
                }
                assert!(!batch.degraded, "a batch came back degraded");
                seen.insert(snapshot.epoch());
                reads += 1;
            }
            epochs_seen.store(seen.len() as u64, Ordering::Relaxed);
            reads
        }));
    }

    assert!(
        reached_last_epoch(),
        "refinement did not reach epoch {ITERATIONS}"
    );
    stop.store(true, Ordering::Release);
    let mut total_reads = 0u64;
    for reader in readers {
        total_reads += reader.join().expect("reader thread");
    }

    assert_eq!(
        torn_reads.load(Ordering::Relaxed),
        0,
        "a reader observed a torn snapshot"
    );
    assert!(total_reads > 0, "readers made no progress");
    let most_epochs = epoch_sets
        .iter()
        .map(|s| s.load(Ordering::Relaxed))
        .max()
        .expect("at least one reader");
    assert!(most_epochs >= 2, "no reader ever observed a snapshot swap");
    // The final snapshot is exactly the twin's final state.
    let last = service.snapshot();
    assert_eq!(last.iteration(), ITERATIONS);
    assert_eq!(*last.graph(), expected[ITERATIONS as usize]);
}

/// Updates submitted through the service surface in a later snapshot's
/// profile view without ever disturbing a reader mid-flight.
#[test]
fn submitted_updates_become_visible_in_a_later_snapshot() {
    let (config, profiles) = world();
    let wd = WorkingDir::temp("serve_updates").expect("workdir");
    let engine = KnnEngine::new(config, profiles, wd).expect("engine");
    let options = RefineOptions {
        convergence_threshold: None,
        max_iterations: None,
        idle_park: Duration::from_millis(1),
        repair: false,
        ..RefineOptions::default()
    };
    let (service, refine) = spawn(engine, options).expect("spawn");

    let user = UserId::new(5);
    let mut replacement = Profile::new();
    replacement.set(ItemId::new(424_242), 5.0);
    let before_epoch = service.snapshot().epoch();
    service
        .submit_update(ProfileDelta::replace(user, replacement.clone()))
        .expect("valid update");

    // The update must land within a few iterations.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    let updated = loop {
        let snapshot = service.snapshot();
        if snapshot.profiles().get(user) == &replacement {
            break snapshot;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "update never became visible"
        );
        refine.wait_for_epoch(snapshot.epoch() + 1, Duration::from_secs(120));
    };
    assert!(updated.epoch() > before_epoch);
    assert_eq!(service.stats().updates_drained, 1);

    let engine = refine.stop().expect("stop");
    // The engine's on-disk state agrees with what was served.
    assert_eq!(
        engine.export_profiles().expect("export").get(user),
        &replacement
    );
    engine.into_working_dir().destroy().expect("cleanup");
}

/// Ad-hoc profile queries answer from one snapshot and the anchored
/// variant agrees with the exact scan once the graph has converged.
#[test]
fn profile_queries_agree_between_scan_and_neighborhood() {
    let (config, profiles) = world();
    let probe = profiles.get(UserId::new(0)).clone();
    let wd = WorkingDir::temp("serve_queries").expect("workdir");
    let mut engine = KnnEngine::new(config, profiles, wd).expect("engine");
    // Converge offline first so the two-hop neighborhood is informative.
    engine.run_until_converged(0.02, 12).expect("converge");
    let options = RefineOptions {
        convergence_threshold: Some(1.1), // already converged: loop idles
        max_iterations: Some(0),
        idle_park: Duration::from_millis(1),
        repair: false,
        ..RefineOptions::default()
    };
    let (service, refine) = spawn(engine, options).expect("spawn");

    let exact = service.query_profile(&probe, K).expect("finite query");
    assert_eq!(exact.len(), K);
    // User 0's own profile: its top match is itself at maximal score.
    assert_eq!(exact[0].id, UserId::new(0));
    let near = service
        .query_profile_near(UserId::new(0), &probe, K)
        .expect("anchored");
    assert_eq!(near.len(), K);
    // The anchor is a candidate on both paths: the best match (user 0
    // itself, maximal self-similarity) must agree exactly.
    assert_eq!(near[0].id, exact[0].id);
    assert!((near[0].sim - exact[0].sim).abs() < 1e-6);

    assert!(service
        .query_profile_near(UserId::new(9999), &probe, K)
        .is_err());
    let stats = service.stats();
    assert_eq!(stats.profile_queries, 3);

    let engine = refine.stop().expect("stop");
    engine.into_working_dir().destroy().expect("cleanup");
}

/// The iteration cap limits refinement, not update application: an
/// update submitted after the cap is reached still forces one
/// iteration so the visibility contract holds.
#[test]
fn updates_are_applied_even_past_the_iteration_cap() {
    let (config, profiles) = world();
    let wd = WorkingDir::temp("serve_capped").expect("workdir");
    let engine = KnnEngine::new(config, profiles, wd).expect("engine");
    let options = RefineOptions {
        convergence_threshold: None,
        max_iterations: Some(1),
        idle_park: Duration::from_millis(1),
        repair: false,
        ..RefineOptions::default()
    };
    let (service, refine) = spawn(engine, options).expect("spawn");
    assert!(
        refine.wait_for_epoch(1, Duration::from_secs(120)),
        "first iteration"
    );

    let user = UserId::new(9);
    let mut fresh = Profile::new();
    fresh.set(ItemId::new(31_337), 4.0);
    service
        .submit_update(ProfileDelta::replace(user, fresh.clone()))
        .expect("accepted");

    assert!(
        refine.wait_for_epoch(2, Duration::from_secs(120)),
        "the update must force an iteration past the cap"
    );
    assert_eq!(service.snapshot().profiles().get(user), &fresh);

    let engine = refine.stop().expect("stop");
    engine.into_working_dir().destroy().expect("cleanup");
}

/// After stop, queries still answer from the final snapshot, further
/// submits fail loudly, and any update accepted before the stop is
/// either applied or parked in the engine's durable phase-5 log —
/// never silently dropped.
#[test]
fn stop_rejects_new_updates_and_preserves_accepted_ones() {
    let (config, profiles) = world();
    let wd = WorkingDir::temp("serve_stop").expect("workdir");
    let engine = KnnEngine::new(config, profiles, wd).expect("engine");
    let options = RefineOptions {
        convergence_threshold: None,
        max_iterations: None,
        idle_park: Duration::from_millis(1),
        repair: false,
        ..RefineOptions::default()
    };
    let (service, refine) = spawn(engine, options).expect("spawn");

    let user = UserId::new(4);
    let mut fresh = Profile::new();
    fresh.set(ItemId::new(55_555), 3.0);
    service
        .submit_update(ProfileDelta::replace(user, fresh.clone()))
        .expect("accepted before stop");

    // Stop races the drain on purpose: whichever side wins, the
    // accepted update must survive somewhere recoverable.
    let engine = refine.stop().expect("stop");
    let applied = engine.export_profiles().expect("export").get(user) == &fresh;
    let logged = engine.pending_updates().expect("pending") > 0;
    assert!(
        applied || logged,
        "accepted update neither applied nor parked in the phase-5 log"
    );

    // The service outlives the handle: reads still work, writes fail.
    assert_eq!(service.neighbors(user).expect("still serving").len(), K);
    let err = service.submit_update(ProfileDelta::set(user, ItemId::new(1), 1.0));
    assert!(matches!(err, Err(knn_serve::ServeError::Stopped)));

    engine.into_working_dir().destroy().expect("cleanup");
}

/// The batch contract: `neighbors_many` validates every id against the
/// snapshot before materializing anything, so one bad id anywhere in
/// the batch answers nothing (no partial results, deterministic error).
#[test]
fn neighbors_many_is_all_or_nothing() {
    let (config, profiles) = world();
    let wd = WorkingDir::temp("serve_batch").expect("workdir");
    let engine = KnnEngine::new(config, profiles, wd).expect("engine");
    let (service, refine) = spawn(engine, RefineOptions::default()).expect("spawn");

    // Bad id in front, middle, and back: all answer nothing.
    let bad = UserId::new(N as u32);
    let good = [UserId::new(0), UserId::new(1), UserId::new(2)];
    for users in [
        vec![bad, good[0], good[1]],
        vec![good[0], bad, good[1]],
        vec![good[0], good[1], bad],
    ] {
        let err = service.neighbors_many(&users).expect_err("must reject");
        assert!(
            matches!(err, knn_serve::ServeError::UnknownUser { user, .. } if user == bad),
            "error must name the offending id"
        );
    }
    // A clean batch still answers fully.
    let batch = service.neighbors_many(&good).expect("all in range");
    assert_eq!(batch.results.len(), good.len());
    assert!(batch.results.iter().all(|l| l.len() == K));

    let engine = refine.stop().expect("stop");
    engine.into_working_dir().destroy().expect("cleanup");
}

/// The backend choice threads through `spawn`: a service over a fully
/// in-memory engine serves, refines, and applies updates exactly like
/// a disk-backed one — no working directory anywhere.
#[test]
fn service_runs_fully_in_memory() {
    let (config, profiles) = world();
    let engine = KnnEngine::in_memory(config, profiles).expect("mem engine");
    assert!(engine.working_dir().is_none());
    let options = RefineOptions {
        convergence_threshold: None,
        max_iterations: None,
        idle_park: Duration::from_millis(1),
        repair: false,
        ..RefineOptions::default()
    };
    let (service, refine) = spawn(engine, options).expect("spawn");

    assert_eq!(service.neighbors(UserId::new(0)).expect("serving").len(), K);

    let user = UserId::new(9);
    let mut fresh = Profile::new();
    fresh.set(ItemId::new(77_777), 2.0);
    service
        .submit_update(ProfileDelta::replace(user, fresh.clone()))
        .expect("accepted");
    assert!(
        refine.wait_for_epoch(1, Duration::from_secs(120)),
        "the in-memory loop must publish"
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while service.snapshot().profiles().get(user) != &fresh {
        assert!(
            std::time::Instant::now() < deadline,
            "update never surfaced in a snapshot"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let engine = refine.stop().expect("stop");
    assert_eq!(engine.export_profiles().expect("export").get(user), &fresh);
    assert_eq!(engine.backend().name(), "mem");
}
