//! The fast-path repair contract: an accepted update becomes
//! queryable without waiting for (or ever running) a full refinement
//! iteration, on both the unsharded and the sharded service — plus
//! the non-finite-query guard on both query front-ends.

use std::time::{Duration, Instant};

use knn_core::{EngineConfig, KnnEngine};
use knn_graph::UserId;
use knn_serve::{spawn, spawn_sharded, RefineOptions, ServeError};
use knn_shard::ShardedEngine;
use knn_sim::generators::{clustered_profiles, ClusteredConfig};
use knn_sim::{ItemId, Profile, ProfileDelta, ProfileStore};

const N: usize = 160;
const K: usize = 4;
const M: usize = 4;
const SEED: u64 = 99;

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

fn repair_options() -> RefineOptions {
    RefineOptions {
        convergence_threshold: None,
        // Zero *refinement* iterations budgeted: visibility must come
        // from the repair worker. (A queued update still forces one
        // reconciling iteration past the cap — the durable log must
        // not grow unboundedly — but the repaired publish strictly
        // precedes it: both go through one view lock, and the worker
        // publishes before it forwards.)
        max_iterations: Some(0),
        idle_park: Duration::from_millis(1),
        repair: true,
        ..RefineOptions::default()
    }
}

fn fresh_profile() -> Profile {
    Profile::from_unsorted_pairs(vec![(990, 3.0), (991, 1.0)]).expect("finite profile")
}

fn nan_query() -> Profile {
    Profile::from_sorted_pairs_unchecked(vec![(ItemId::new(1), f32::NAN)])
}

/// Visibility without iterations, unsharded: the repaired snapshot
/// carries the new profile, is tagged `repaired`, and the user's row
/// was re-placed (k entries, none of them the user itself).
#[test]
fn update_visible_without_any_iteration() {
    let (config, profiles) = world();
    let engine = KnnEngine::in_memory(config, profiles).expect("engine");
    let (service, refine) = spawn(engine, repair_options()).expect("spawn");
    assert!(!service.snapshot().repaired(), "epoch 0 is exact");

    let user = UserId::new(7);
    let fresh = fresh_profile();
    service
        .submit_update(ProfileDelta::replace(user, fresh.clone()))
        .expect("accepted");

    let deadline = Instant::now() + Duration::from_secs(30);
    let snapshot = loop {
        let snapshot = service.snapshot();
        if snapshot.profiles().get(user) == &fresh {
            break snapshot;
        }
        assert!(Instant::now() < deadline, "update never became visible");
        std::thread::sleep(Duration::from_millis(1));
    };

    // The *first* epoch carrying the fresh profile is the worker's
    // repaired publish (both publishers share one view lock and the
    // worker publishes before forwarding), so a repaired epoch is
    // counted by the time the update is visible — whatever epoch this
    // particular poll happened to catch.
    let stats = service.stats();
    assert!(stats.repaired_epochs >= 1, "no repaired epoch published");
    assert_eq!(stats.updates_drained, 1);
    assert!(
        snapshot.iteration() <= 1,
        "visibility waited for refinement"
    );
    let row = snapshot.neighbors(user).expect("in range");
    assert_eq!(row.len(), K, "re-placed row is full");
    assert!(row.iter().all(|nb| nb.id != user), "no self-loop");

    // The delta also reached the engine's durable log: after at most
    // one (forced reconciling) iteration the engine's own profile
    // state carries it.
    let mut engine = refine.stop().expect("stop");
    assert!(engine.iteration() <= 1, "only the forced reconcile ran");
    if engine.export_profiles().expect("export").get(user) != &fresh {
        engine.run_iteration().expect("iterate");
    }
    assert_eq!(
        engine.export_profiles().expect("export").get(user),
        &fresh,
        "durable log lost the repaired update"
    );
}

/// Visibility without iterations, sharded: the repair worker
/// republishes and a self-query finds the updated user at the top.
#[test]
fn sharded_update_visible_without_any_iteration() {
    let (config, profiles) = world();
    let engine = ShardedEngine::in_memory(config, profiles, 3).expect("sharded engine");
    let (service, refine) = spawn_sharded(engine, repair_options()).expect("spawn_sharded");

    let user = UserId::new(7);
    let fresh = fresh_profile();
    service
        .submit_update(ProfileDelta::replace(user, fresh.clone()))
        .expect("accepted");

    // The fresh profile's items are disjoint from the generated world,
    // so only the updated user can score 1.0 against it.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let top = service.query_profile(&fresh, 1).expect("finite query");
        if top.first().map(|nb| nb.id) == Some(user) && top[0].sim > 0.999 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "sharded update never became visible"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let stats = service.stats();
    assert!(stats.repaired_epochs >= 1, "no repaired epoch published");
    assert_eq!(stats.updates_drained, 1);
    // The user's own row was re-placed.
    let row = service.neighbors(user).expect("in range");
    assert_eq!(row.len(), K);
    assert!(row.iter().all(|nb| nb.id != user));

    let engine = refine.stop().expect("stop");
    assert!(engine.iteration() <= 1, "only the forced reconcile ran");
}

/// A NaN weight in an ad-hoc query must be rejected, not ranked:
/// best-first order is `total_cmp`, under which NaN sorts above every
/// real score, so an unvalidated NaN query would return garbage as
/// the *top* result.
#[test]
fn nan_query_is_rejected_not_ranked_first() {
    let (config, profiles) = world();
    let engine = KnnEngine::in_memory(config, profiles).expect("engine");
    let (service, refine) = spawn(
        engine,
        RefineOptions {
            convergence_threshold: None,
            max_iterations: Some(0),
            idle_park: Duration::from_millis(1),
            repair: false,
            ..RefineOptions::default()
        },
    )
    .expect("spawn");

    let err = service
        .query_profile(&nan_query(), 3)
        .expect_err("NaN query");
    assert!(matches!(err, ServeError::NonFiniteQuery), "got {err:?}");
    let err = service
        .query_profile_near(UserId::new(0), &nan_query(), 3)
        .expect_err("NaN query near");
    assert!(matches!(err, ServeError::NonFiniteQuery), "got {err:?}");

    // A finite query on the same service still answers.
    let finite = Profile::from_unsorted_pairs(vec![(1, 1.0)]).expect("finite");
    assert_eq!(service.query_profile(&finite, 3).expect("finite").len(), 3);

    refine.stop().expect("stop");
}

/// The same guard behind `spawn_sharded`.
#[test]
fn sharded_nan_query_is_rejected() {
    let (config, profiles) = world();
    let engine = ShardedEngine::in_memory(config, profiles, 3).expect("sharded engine");
    let (service, refine) = spawn_sharded(
        engine,
        RefineOptions {
            convergence_threshold: None,
            max_iterations: Some(0),
            idle_park: Duration::from_millis(1),
            repair: false,
            ..RefineOptions::default()
        },
    )
    .expect("spawn_sharded");

    let err = service
        .query_profile(&nan_query(), 3)
        .expect_err("NaN query");
    assert!(matches!(err, ServeError::NonFiniteQuery), "got {err:?}");

    let finite = Profile::from_unsorted_pairs(vec![(1, 1.0)]).expect("finite");
    assert_eq!(service.query_profile(&finite, 3).expect("finite").len(), 3);

    refine.stop().expect("stop");
}
