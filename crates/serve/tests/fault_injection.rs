//! Durability of accepted updates when the engine's phase-5 log
//! backend fails: a `StorageBackend` wrapper injects `append_updates`
//! failures and the tests pin the serving layer's contract — every
//! accepted update is applied, parked in the durable log, or returned
//! via [`ServeError::UnpersistedUpdates`]; never silently dropped.
//! The contracts that concern the background loop run against both
//! front-ends (`spawn`, and `spawn_sharded` over two failing shards).

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{failing_engine, fresh_profile, spawn_failing, wait_visible, FRONT_ENDS};
use knn_graph::UserId;
use knn_serve::{spawn, RefineOptions, ServeError};
use knn_sim::{ItemId, ProfileDelta};

/// Transient log failure: the failed delta is retried and applied
/// once the backend heals, and — the mid-drain bugfix — a *different*
/// user's delta drained in the same batch is not dropped with it.
#[test]
fn transient_append_failure_loses_nothing() {
    for kind in FRONT_ENDS {
        let (service, refine, backend) = spawn_failing(
            kind,
            RefineOptions {
                convergence_threshold: None,
                max_iterations: None,
                idle_park: Duration::from_millis(1),
                repair: false,
                ..RefineOptions::default()
            },
        );

        // Arm one failure, then submit two users' deltas in one batch.
        // Whichever drains first eats the failure; the other must
        // proceed.
        backend.fail_next(1);
        let p1 = fresh_profile(1);
        let p2 = fresh_profile(2);
        service
            .submit_update(ProfileDelta::replace(UserId::new(1), p1.clone()))
            .expect("accepted");
        service
            .submit_update(ProfileDelta::replace(UserId::new(2), p2.clone()))
            .expect("accepted");

        // Both become visible: the untouched user immediately, the
        // failed one on a retry pass (the injected failure self-heals
        // after one).
        assert!(
            wait_visible(&service, UserId::new(1), &p1, Duration::from_secs(30)),
            "{kind:?}: user 1's delta was dropped"
        );
        assert!(
            wait_visible(&service, UserId::new(2), &p2, Duration::from_secs(30)),
            "{kind:?}: user 2's delta was dropped"
        );
        assert!(backend.failures() >= 1, "{kind:?}: injection never fired");
        assert!(
            service.stats().queue_failures >= 1,
            "{kind:?}: queue failure not counted"
        );

        // Both deltas made it into the engine's own profile state.
        let exported = refine.stop().expect("clean stop after heal");
        assert_eq!(exported.get(UserId::new(1)), &p1, "{kind:?}");
        assert_eq!(exported.get(UserId::new(2)), &p2, "{kind:?}");
    }
}

/// Permanent log failure through shutdown: `stop` must return every
/// accepted-but-unpersisted delta in `UnpersistedUpdates`, in
/// per-user submission order, instead of dropping them.
#[test]
fn permanent_append_failure_returns_updates_on_stop() {
    for kind in FRONT_ENDS {
        let (service, refine, backend) = spawn_failing(
            kind,
            RefineOptions {
                convergence_threshold: None,
                max_iterations: Some(0),
                idle_park: Duration::from_millis(1),
                repair: false,
                ..RefineOptions::default()
            },
        );

        backend.fail_all();
        let submitted: Vec<ProfileDelta> = vec![
            ProfileDelta::replace(UserId::new(3), fresh_profile(3)),
            ProfileDelta::set(UserId::new(4), ItemId::new(950), 1.5),
            ProfileDelta::set(UserId::new(3), ItemId::new(951), 2.5),
        ];
        for delta in &submitted {
            service.submit_update(delta.clone()).expect("accepted");
        }

        let err = refine.stop().expect_err("stop must report unpersisted");
        match err {
            ServeError::UnpersistedUpdates { updates, source } => {
                assert!(source.is_some(), "{kind:?}: last queue error not attached");
                // Exactly the accepted deltas come back, and per-user
                // submission order is preserved.
                assert_eq!(updates.len(), submitted.len(), "{kind:?}");
                for delta in &submitted {
                    assert!(
                        updates.iter().any(|u| u == delta),
                        "{kind:?}: missing delta for user {}",
                        delta.user
                    );
                }
                let user3: Vec<&ProfileDelta> = updates
                    .iter()
                    .filter(|u| u.user == UserId::new(3))
                    .collect();
                assert_eq!(user3.len(), 2, "{kind:?}");
                assert_eq!(user3[0], &submitted[0], "{kind:?}: user 3 order broken");
                assert_eq!(user3[1], &submitted[2], "{kind:?}: user 3 order broken");
            }
            other => panic!("{kind:?}: expected UnpersistedUpdates, got {other:?}"),
        }
        // Per-user blocking: user 3's *second* delta is parked without
        // touching the backend once its first fails, so only the two
        // head-of-line deltas generate append attempts.
        assert!(backend.failures() >= 2, "{kind:?}");
    }
}

/// Same shutdown contract with the repair worker on: repaired
/// visibility must not launder away durability — deltas that were
/// *served* but never persisted still come back from `stop`.
#[test]
fn permanent_failure_with_repair_returns_served_updates() {
    for kind in FRONT_ENDS {
        let (service, refine, backend) = spawn_failing(
            kind,
            RefineOptions {
                convergence_threshold: None,
                max_iterations: Some(0),
                idle_park: Duration::from_millis(1),
                repair: true,
                ..RefineOptions::default()
            },
        );

        backend.fail_all();
        let user = UserId::new(5);
        let fresh = fresh_profile(5);
        service
            .submit_update(ProfileDelta::replace(user, fresh.clone()))
            .expect("accepted");

        // The repair worker still makes the update *visible*
        // (placement needs no storage), as a repaired epoch (the
        // counter moves right after the publish it counts)...
        assert!(
            wait_visible(&service, user, &fresh, Duration::from_secs(30)),
            "{kind:?}: repair path should not depend on the update log"
        );
        let deadline = Instant::now() + Duration::from_secs(30);
        while service.stats().repaired_epochs == 0 {
            assert!(Instant::now() < deadline, "{kind:?}: not a repaired epoch");
            std::thread::sleep(Duration::from_millis(1));
        }

        // ...but stopping surfaces that it was never persisted.
        let err = refine.stop().expect_err("stop must report unpersisted");
        match err {
            ServeError::UnpersistedUpdates { updates, .. } => {
                assert_eq!(updates.len(), 1, "{kind:?}");
                assert_eq!(updates[0], ProfileDelta::replace(user, fresh), "{kind:?}");
            }
            other => panic!("{kind:?}: expected UnpersistedUpdates, got {other:?}"),
        }
    }
}

/// Heal-before-stop with repair on: a delta that failed to queue
/// while parked must still reach the engine's durable log during the
/// terminal drain, and `stop` then succeeds.
#[test]
fn healed_before_stop_persists_parked_updates() {
    let (engine, backend) = failing_engine();
    let (service, refine) = spawn(
        engine,
        RefineOptions {
            convergence_threshold: None,
            max_iterations: Some(0),
            idle_park: Duration::from_millis(1),
            repair: true,
            ..RefineOptions::default()
        },
    )
    .expect("spawn");

    backend.fail_all();
    let user = UserId::new(6);
    let fresh = fresh_profile(6);
    service
        .submit_update(ProfileDelta::replace(user, fresh.clone()))
        .expect("accepted");
    assert!(
        wait_visible(&service, user, &fresh, Duration::from_secs(30)),
        "repaired visibility"
    );
    // Wait until the queue attempt actually failed at least once, so
    // the delta is genuinely parked when the backend heals.
    let deadline = Instant::now() + Duration::from_secs(30);
    while backend.failures() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(backend.failures() >= 1, "injection never fired");

    backend.heal();
    // Stop succeeds: the parked delta reaches the durable phase-5 log
    // during the terminal drain. It is *applied* by the next
    // iteration — run one on the recovered engine to prove the log
    // really carries it.
    let mut engine = refine.stop().expect("terminal drain persists after heal");
    engine.run_iteration().expect("apply recovered log");
    let exported = engine.export_profiles().expect("export");
    assert_eq!(exported.get(user), &fresh);
}

/// Regression pin for the original mid-drain bug shape under load:
/// many users, failures injected mid-stream, nothing lost.
#[test]
fn interleaved_failures_under_load_lose_nothing() {
    let (engine, backend) = failing_engine();
    let (service, refine) = spawn(
        engine,
        RefineOptions {
            convergence_threshold: None,
            max_iterations: None,
            idle_park: Duration::from_millis(1),
            repair: false,
            ..RefineOptions::default()
        },
    )
    .expect("spawn");

    let stop_flapping = Arc::new(AtomicBool::new(false));
    let flapper = {
        let backend = Arc::clone(&backend);
        let stop_flapping = Arc::clone(&stop_flapping);
        std::thread::spawn(move || {
            while !stop_flapping.load(Ordering::Acquire) {
                backend.fail_next(1);
                std::thread::sleep(Duration::from_millis(1));
            }
            backend.heal();
        })
    };

    let mut finals = Vec::new();
    for round in 0..3u32 {
        for u in 0..16u32 {
            let user = UserId::new(u);
            let fresh = fresh_profile(round * 100 + u);
            service
                .submit_update(ProfileDelta::replace(user, fresh.clone()))
                .expect("accepted");
            if round == 2 {
                finals.push((user, fresh));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    stop_flapping.store(true, Ordering::Release);
    flapper.join().expect("flapper join");

    // Every user's *last* replace wins and none are dropped.
    for (user, fresh) in &finals {
        assert!(
            wait_visible(&service, *user, fresh, Duration::from_secs(60)),
            "final delta for user {user} was dropped"
        );
    }
    let engine = refine.stop().expect("clean stop after heal");
    let exported = engine.export_profiles().expect("export");
    for (user, fresh) in &finals {
        assert_eq!(exported.get(*user), fresh, "engine lost user {user}");
    }
}
