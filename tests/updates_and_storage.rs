//! Integration tests for the lazy-update semantics (phase 5) and
//! storage failure behaviour.

use ooc_knn::core::reference::reference_iteration;
use ooc_knn::sim::generators::{clustered_profiles, ClusteredConfig};
use ooc_knn::sim::DeltaOp;
use ooc_knn::{
    EngineConfig, EngineError, ItemId, KnnEngine, KnnGraph, Measure, Profile, ProfileDelta,
    ProfileStore, UserId, WorkingDir,
};

fn workload(n: usize, seed: u64) -> ProfileStore {
    let (store, _) = clustered_profiles(
        ClusteredConfig::new(n, seed)
            .with_clusters(4)
            .with_ratings(12, 2),
    );
    store
}

#[test]
fn queued_updates_take_effect_exactly_one_iteration_later() {
    let n = 60;
    let profiles = workload(n, 1);
    let g0 = KnnGraph::random_init(n, 4, 1);

    // Expected trajectory computed in memory: iteration 0 sees the
    // original profiles; iterations 1+ see the patched ones.
    let mut patched = profiles.clone();
    patched.set(
        UserId::new(3),
        Profile::from_unsorted_pairs(vec![(5000, 4.0)]).unwrap(),
    );
    let expected_iter0 = reference_iteration(&g0, &profiles, &Measure::Cosine, 4, false);
    let expected_iter1 = reference_iteration(&expected_iter0, &patched, &Measure::Cosine, 4, false);

    let config = EngineConfig::builder(n)
        .k(4)
        .num_partitions(4)
        .measure(Measure::Cosine)
        .seed(1)
        .build()
        .unwrap();
    let wd = WorkingDir::temp("itest_updates").unwrap();
    let mut engine = KnnEngine::with_initial_graph(config, g0, profiles, wd).unwrap();
    engine
        .queue_update(&ProfileDelta::replace(
            UserId::new(3),
            Profile::from_unsorted_pairs(vec![(5000, 4.0)]).unwrap(),
        ))
        .unwrap();
    engine.run_iteration().unwrap();
    assert_eq!(engine.graph(), &expected_iter0, "update visible too early");
    engine.run_iteration().unwrap();
    assert_eq!(
        engine.graph(),
        &expected_iter1,
        "update not applied after boundary"
    );
    engine.into_working_dir().destroy().unwrap();
}

#[test]
fn update_stream_across_iterations_applies_in_order() {
    let n = 40;
    let profiles = workload(n, 2);
    let config = EngineConfig::builder(n)
        .k(3)
        .num_partitions(4)
        .seed(2)
        .build()
        .unwrap();
    let wd = WorkingDir::temp("itest_update_stream").unwrap();
    let mut engine = KnnEngine::new(config, profiles, wd).unwrap();
    let u = UserId::new(7);
    engine
        .queue_update(&ProfileDelta::set(u, ItemId::new(42), 1.0))
        .unwrap();
    engine
        .queue_update(&ProfileDelta::set(u, ItemId::new(42), 2.0))
        .unwrap();
    engine.run_iteration().unwrap();
    assert_eq!(
        engine.profile_of(u).unwrap().get(ItemId::new(42)),
        Some(2.0)
    );
    engine
        .queue_update(&ProfileDelta::remove(u, ItemId::new(42)))
        .unwrap();
    engine
        .queue_update(&ProfileDelta::new(u, DeltaOp::Set(ItemId::new(43), 9.0)))
        .unwrap();
    engine.run_iteration().unwrap();
    let p = engine.profile_of(u).unwrap();
    assert_eq!(p.get(ItemId::new(42)), None);
    assert_eq!(p.get(ItemId::new(43)), Some(9.0));
    engine.into_working_dir().destroy().unwrap();
}

#[test]
fn invalid_updates_are_rejected_without_corrupting_the_queue() {
    let n = 20;
    let profiles = workload(n, 3);
    let config = EngineConfig::builder(n)
        .k(3)
        .num_partitions(2)
        .seed(3)
        .build()
        .unwrap();
    let wd = WorkingDir::temp("itest_bad_updates").unwrap();
    let mut engine = KnnEngine::new(config, profiles, wd).unwrap();
    assert!(matches!(
        engine.queue_update(&ProfileDelta::set(UserId::new(999), ItemId::new(0), 1.0)),
        Err(EngineError::InvalidUpdate { .. })
    ));
    assert!(matches!(
        engine.queue_update(&ProfileDelta::set(UserId::new(0), ItemId::new(0), f32::NAN)),
        Err(EngineError::InvalidUpdate { .. })
    ));
    // The engine still runs and applies nothing.
    let report = engine.run_iteration().unwrap();
    assert_eq!(report.updates_applied, 0);
    engine.into_working_dir().destroy().unwrap();
}

#[test]
fn corrupt_partition_file_surfaces_a_typed_error() {
    let n = 30;
    let profiles = workload(n, 5);
    let config = EngineConfig::builder(n)
        .k(3)
        .num_partitions(3)
        .seed(5)
        .build()
        .unwrap();
    let wd = WorkingDir::temp("itest_corrupt").unwrap();
    let mut engine = KnnEngine::new(config, profiles, wd).unwrap();
    engine.run_iteration().unwrap();
    // Truncate one profile partition file behind the engine's back.
    let victim = engine.working_dir().expect("disk-backed").profiles_path(1);
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
    let err = engine.run_iteration().unwrap_err();
    assert!(matches!(err, EngineError::Store(_)), "got {err:?}");
    engine.into_working_dir().destroy().unwrap();
}

#[test]
fn working_dir_state_survives_engine_restart() {
    // The profile files and update log persist: a new engine over the
    // same directory (warm start from the old graph) continues where
    // the previous one stopped.
    let n = 50;
    let profiles = workload(n, 6);
    let config = EngineConfig::builder(n)
        .k(4)
        .num_partitions(5)
        .measure(Measure::Cosine)
        .seed(6)
        .build()
        .unwrap();
    let wd = WorkingDir::temp("itest_restart").unwrap();
    let root = wd.root().to_path_buf();
    let mut engine = KnnEngine::new(config.clone(), profiles.clone(), wd).unwrap();
    engine.run_iteration().unwrap();
    let g1 = engine.graph().clone();
    drop(engine);

    // Restart: same config/seed, warm graph, fresh engine over the
    // existing directory (profiles are re-sharded identically).
    let wd = WorkingDir::create(&root).unwrap();
    let mut engine =
        KnnEngine::with_initial_graph(config, g1.clone(), profiles.clone(), wd).unwrap();
    engine.run_iteration().unwrap();
    let expected = reference_iteration(&g1, &profiles, &Measure::Cosine, 4, false);
    assert_eq!(engine.graph(), &expected);
    engine.into_working_dir().destroy().unwrap();
}
