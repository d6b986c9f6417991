//! Cluster-configured engines flow through the serving layer
//! unchanged: `spawn` and `spawn_sharded` accept an engine built with
//! clustering on (cluster placement and cluster-seeded `G(0)`), the refinement
//! loop publishes its generations, and the refined graph matches a
//! synchronous twin's — serving adds no nondeterminism on top of the
//! clustering pre-pass.

use std::time::Duration;

use knn_core::{EngineConfig, KnnEngine};
use knn_graph::UserId;
use knn_serve::{spawn, spawn_sharded, RefineOptions};
use knn_shard::ShardedEngine;
use knn_sim::generators::{clustered_profiles, ClusteredConfig};
use knn_sim::ProfileStore;

const N: usize = 120;
const K: usize = 4;
const M: usize = 5;
const SEED: u64 = 51;
const ITERATIONS: u64 = 3;

fn world() -> (EngineConfig, ProfileStore) {
    let (profiles, _) = clustered_profiles(
        ClusteredConfig::new(N, SEED)
            .with_clusters(4)
            .with_ratings(10, 2),
    );
    let config = EngineConfig::builder(N)
        .k(K)
        .num_partitions(M)
        .clustering(true)
        .threads(2)
        .seed(SEED)
        .build()
        .expect("valid config");
    (config, profiles)
}

/// `G(t)` after `t` synchronous iterations of a cluster-configured
/// engine — the reference both serving paths must land on.
fn twin_graph() -> knn_graph::KnnGraph {
    let (config, profiles) = world();
    let mut twin = KnnEngine::in_memory(config, profiles).expect("twin engine");
    for _ in 0..ITERATIONS {
        twin.run_iteration().expect("twin iteration");
    }
    twin.graph().clone()
}

fn options() -> RefineOptions {
    RefineOptions {
        convergence_threshold: None,
        max_iterations: Some(ITERATIONS),
        idle_park: Duration::from_millis(1),
        repair: false,
        ..RefineOptions::default()
    }
}

#[test]
fn cluster_engine_serves_and_refines() {
    let expected = twin_graph();

    let (config, profiles) = world();
    let engine = KnnEngine::in_memory(config, profiles).expect("engine");
    assert!(engine.clusters().is_some(), "pre-pass did not run");
    let (service, refine) = spawn(engine, options()).expect("spawn");

    assert_eq!(service.neighbors(UserId::new(0)).expect("serving").len(), K);
    assert!(
        refine.wait_for_epoch(ITERATIONS, Duration::from_secs(120)),
        "the refinement loop never published epoch {ITERATIONS}"
    );

    let engine = refine.stop().expect("stop");
    assert_eq!(
        engine.graph(),
        &expected,
        "served refinement diverged from the synchronous twin"
    );
    assert!(
        engine.clusters().is_some(),
        "cluster table lost through serving"
    );
}

#[test]
fn cluster_engine_serves_sharded() {
    let expected = twin_graph();

    let (config, profiles) = world();
    let engine = ShardedEngine::in_memory(config, profiles, 3).expect("sharded engine");
    assert_eq!(engine.num_shards(), 3);
    let (service, refine) = spawn_sharded(engine, options()).expect("spawn_sharded");

    assert_eq!(service.neighbors(UserId::new(0)).expect("serving").len(), K);
    assert!(
        refine.wait_for_epoch(ITERATIONS, Duration::from_secs(120)),
        "the sharded refinement loop never published epoch {ITERATIONS}"
    );

    let engine = refine.stop().expect("stop");
    assert_eq!(
        engine.graph(),
        &expected,
        "sharded served refinement diverged from the synchronous twin"
    );
}
