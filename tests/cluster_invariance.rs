//! Acceptance bar for the `knn-cluster` locality layer: clustering
//! changes *placement and initialization*, never *results*.
//!
//! 1. The placement — greedy or cluster packing — does not change the
//!    computed graph at all: one iteration is a pure function of
//!    `G(t)`, the profiles, the measure, and `K`.
//! 2. A clustering engine (cluster placement + cluster-seeded `G(0)`)
//!    is deterministic across thread counts and shard counts, like
//!    every other configuration.
//! 3. Converged recall floors hold with clustering on (the same floors
//!    `recall_regression.rs` pins for the default).
//! 4. `resume` round-trips the persisted cluster assignment.

use std::sync::Arc;

use ooc_knn::core::metrics::IterationReport;
use ooc_knn::store::backend::{read_meta, write_meta};
use ooc_knn::{
    brute_force_knn, recall_at_k, EngineConfig, EngineError, KnnEngine, KnnGraph, MemBackend,
    ShardedEngine, StorageBackend, WorkloadConfig,
};

fn cluster_config(n: usize, k: usize, m: usize, seed: u64, threads: usize) -> EngineConfig {
    EngineConfig::builder(n)
        .k(k)
        .num_partitions(m)
        .clustering(true)
        .threads(threads)
        .seed(seed)
        // Force real spill traffic so the locality path is exercised
        // out-of-core, not just in staging memory.
        .spill_threshold(64)
        .tuple_table_memory(Some(1024))
        .build()
        .expect("config")
}

/// The deterministic projection of a report (see
/// `parallel_equivalence.rs`).
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

/// Partition layout is an I/O concern: for a FIXED `G(0)`, greedy
/// placement and the cluster packer yield the same graph after every
/// iteration. Only the locality metrics may differ.
#[test]
fn partitioner_choice_never_changes_the_graph() {
    let n = 90;
    let workload = WorkloadConfig::communities().build(n, 17);
    let g0 = KnnGraph::random_init(n, 5, 17);
    let mut reference: Option<KnnGraph> = None;
    for clustering in [false, true] {
        let config = EngineConfig::builder(n)
            .k(5)
            .num_partitions(6)
            .clustering(clustering)
            .measure(workload.measure)
            .seed(17)
            .build()
            .expect("config");
        let mut engine = KnnEngine::with_initial_graph_on(
            config,
            g0.clone(),
            workload.profiles.clone(),
            Arc::new(MemBackend::new()),
        )
        .expect("engine");
        for _ in 0..3 {
            engine.run_iteration().expect("iteration");
        }
        match &reference {
            None => reference = Some(engine.graph().clone()),
            Some(expected) => {
                assert_eq!(
                    engine.graph(),
                    expected,
                    "clustering={clustering} changed the graph"
                )
            }
        }
    }
}

/// A fully cluster-configured engine honors the determinism contract:
/// identical graphs and identical deterministic report fields at every
/// thread count and shard count.
#[test]
fn cluster_engine_is_thread_and_shard_invariant() {
    let n = 80;
    let mut runs: Vec<(String, KnnGraph, Vec<_>)> = Vec::new();
    for threads in [1usize, 2, 4] {
        let workload = WorkloadConfig::communities().build(n, 23);
        let config = cluster_config(n, 5, 6, 23, threads);
        let mut engine = KnnEngine::in_memory(config, workload.profiles).expect("engine");
        let mut reports = Vec::new();
        for _ in 0..3 {
            reports.push(deterministic_fields(&engine.run_iteration().expect("iter")));
        }
        runs.push((
            format!("threads={threads}"),
            engine.graph().clone(),
            reports,
        ));
    }
    for shards in [1usize, 2, 3] {
        let workload = WorkloadConfig::communities().build(n, 23);
        let config = cluster_config(n, 5, 6, 23, 2);
        let mut engine =
            ShardedEngine::in_memory(config, workload.profiles, shards).expect("sharded engine");
        let mut reports = Vec::new();
        for _ in 0..3 {
            reports.push(deterministic_fields(
                &engine.run_iteration().expect("iter").report,
            ));
        }
        runs.push((format!("shards={shards}"), engine.graph().clone(), reports));
    }
    let (ref_name, ref_graph, ref_reports) = &runs[0];
    for (name, graph, reports) in &runs[1..] {
        assert_eq!(graph, ref_graph, "{name} diverged from {ref_name}");
        assert_eq!(reports, ref_reports, "{name} reports diverged");
    }
}

/// The `recall_regression.rs` floors, re-pinned with clustering on
/// (cluster placement and cluster-seeded initialization): locality
/// buys I/O, never recall.
fn converged_recall_clustered(workload: &WorkloadConfig, n: usize, k: usize, seed: u64) -> f64 {
    let built = workload.build(n, seed);
    let truth = brute_force_knn(&built.profiles, &built.measure, k, 4);
    let config = EngineConfig::builder(n)
        .k(k)
        .num_partitions(8)
        .clustering(true)
        .measure(built.measure)
        .threads(4)
        .seed(seed)
        .build()
        .expect("config");
    let mut engine = KnnEngine::in_memory(config, built.profiles).expect("engine");
    let outcome = engine.run_until_converged(0.01, 20).expect("run");
    assert!(
        outcome.converged,
        "{} (cluster) did not converge (final change {:.4})",
        built.name, outcome.final_change_fraction
    );
    recall_at_k(engine.graph(), &truth).mean_recall
}

#[test]
fn recall_floor_on_clustered_ratings_with_cluster_partitioner() {
    let recall = converged_recall_clustered(&WorkloadConfig::recommender(), 400, 10, 42);
    assert!(
        recall >= 0.93,
        "mean recall@10 regressed to {recall:.4} (floor 0.93)"
    );
}

#[test]
fn recall_floor_on_zipf_tags_with_cluster_partitioner() {
    // Zipf sets have no planted communities — the pre-pass clusters
    // whatever structure the sketches expose, and recall must not pay
    // for it.
    let recall = converged_recall_clustered(&WorkloadConfig::tags(), 400, 10, 7);
    assert!(
        recall >= 0.80,
        "mean recall@10 regressed to {recall:.4} (floor 0.80)"
    );
}

/// The persisted cluster table survives resume: same labels, same
/// graph, and the resumed engine keeps iterating deterministically.
#[test]
fn resume_round_trips_the_cluster_assignment() {
    let n = 60;
    let workload = WorkloadConfig::communities().build(n, 31);
    let config = cluster_config(n, 4, 5, 31, 2);
    let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());

    let mut engine = KnnEngine::new_on(
        config.clone(),
        workload.profiles.clone(),
        Arc::clone(&backend),
    )
    .expect("engine");
    let labels = engine.clusters().expect("pre-pass ran").labels().to_vec();
    engine.run_iteration().expect("iter");
    let graph_after_1 = engine.graph().clone();
    drop(engine);

    let mut resumed = KnnEngine::resume_on(config.clone(), Arc::clone(&backend)).expect("resume");
    assert_eq!(resumed.iteration(), 1);
    assert_eq!(resumed.graph(), &graph_after_1);
    assert_eq!(
        resumed.clusters().expect("clusters reloaded").labels(),
        labels.as_slice(),
        "cluster table did not round-trip"
    );

    // A non-clustering config on the same backend still resumes: the
    // extra metadata keys and the cluster stream are simply unused (a
    // plain engine never reads them), and graph recovery is unchanged.
    let plain = EngineConfig::builder(n)
        .k(4)
        .num_partitions(5)
        .threads(2)
        .seed(31)
        .spill_threshold(64)
        .tuple_table_memory(Some(1024))
        .build()
        .expect("config");
    let plain_resume = KnnEngine::resume_on(plain, Arc::clone(&backend)).expect("plain resume");
    assert_eq!(plain_resume.graph(), &graph_after_1, "graph recovery broke");
    assert!(plain_resume.clusters().is_none());

    // A stored cluster method other than k-means (code 0; a retired
    // method wrote 1) must be rejected at resume, like any other
    // metadata disagreement.
    let meta = read_meta(backend.as_ref()).expect("meta");
    let tampered: Vec<(u32, u64)> = meta
        .iter()
        .map(|&(key, value)| (key, if key == 7 { 1 } else { value }))
        .collect();
    assert_ne!(tampered, meta, "meta key 7 (cluster_method) is written");
    write_meta(backend.as_ref(), &tampered).expect("rewrite meta");
    assert!(
        matches!(
            KnnEngine::resume_on(config.clone(), Arc::clone(&backend)),
            Err(EngineError::InputMismatch { .. })
        ),
        "resume accepted a different cluster_method"
    );
    write_meta(backend.as_ref(), &meta).expect("restore meta");

    // The cluster-configured resume keeps iterating normally.
    resumed.run_iteration().expect("resumed iteration");
    assert_eq!(resumed.iteration(), 2);
}
