//! Cross-crate integration tests: the out-of-core engine against its
//! in-memory references, across every axis that must not change the
//! result.

use ooc_knn::core::reference::{reference_iteration, reference_run};
use ooc_knn::sim::generators::{clustered_profiles, ClusteredConfig};
use ooc_knn::{
    brute_force_knn, recall_at_k, EngineConfig, KnnEngine, KnnGraph, Measure, ProfileStore,
    WorkingDir,
};

fn workload(n: usize, seed: u64) -> ProfileStore {
    let (store, _) = clustered_profiles(
        ClusteredConfig::new(n, seed)
            .with_clusters(5)
            .with_ratings(15, 3),
    );
    store
}

fn run_engine(
    n: usize,
    k: usize,
    seed: u64,
    iterations: usize,
    mutate: impl FnOnce(ooc_knn::core::EngineConfigBuilder) -> ooc_knn::core::EngineConfigBuilder,
) -> KnnGraph {
    let profiles = workload(n, seed);
    let g0 = KnnGraph::random_init(n, k, seed);
    let config = mutate(
        EngineConfig::builder(n)
            .k(k)
            .measure(Measure::Cosine)
            .seed(seed),
    )
    .build()
    .expect("config");
    let wd = WorkingDir::temp("itest_engine").expect("workdir");
    let mut engine = KnnEngine::with_initial_graph(config, g0, profiles, wd).expect("engine");
    for _ in 0..iterations {
        engine.run_iteration().expect("iteration");
    }
    let result = engine.graph().clone();
    engine.into_working_dir().destroy().expect("cleanup");
    result
}

#[test]
fn engine_transition_equals_reference_transition() {
    let n = 120;
    let profiles = workload(n, 3);
    let g0 = KnnGraph::random_init(n, 6, 3);
    let expected = reference_run(&g0, &profiles, &Measure::Cosine, 6, false, 2);
    let got = run_engine(n, 6, 3, 2, |b| b.num_partitions(6));
    assert_eq!(got, expected);
}

#[test]
fn result_is_invariant_across_partition_counts_and_partitioners() {
    let baseline = run_engine(80, 4, 5, 2, |b| b.num_partitions(2));
    for m in [4, 8, 16] {
        let got = run_engine(80, 4, 5, 2, |b| b.num_partitions(m));
        assert_eq!(got, baseline, "m={m} changed the result graph");
    }
    for clustering in [false, true] {
        let got = run_engine(80, 4, 5, 2, |b| b.num_partitions(8).clustering(clustering));
        assert_eq!(
            got, baseline,
            "clustering={clustering} changed the result graph"
        );
    }
}

#[test]
fn result_is_invariant_across_threads_and_slots() {
    let baseline = run_engine(100, 5, 7, 2, |b| b.num_partitions(5));
    for threads in [2, 4] {
        let got = run_engine(100, 5, 7, 2, |b| b.num_partitions(5).threads(threads));
        assert_eq!(got, baseline, "threads={threads} changed the result");
    }
    for slots in [3, 5] {
        let got = run_engine(100, 5, 7, 2, |b| b.num_partitions(5).cache_slots(slots));
        assert_eq!(got, baseline, "slots={slots} changed the result");
    }
}

#[test]
fn reverse_join_matches_reference_reverse_join() {
    let n = 100;
    let profiles = workload(n, 13);
    let g0 = KnnGraph::random_init(n, 5, 13);
    let expected = reference_iteration(&g0, &profiles, &Measure::Cosine, 5, true);
    let got = run_engine(n, 5, 13, 1, |b| b.num_partitions(5).include_reverse(true));
    assert_eq!(got, expected);
}

#[test]
fn all_measures_run_end_to_end() {
    for measure in Measure::ALL {
        let n = 60;
        let profiles = workload(n, 17);
        let g0 = KnnGraph::random_init(n, 4, 17);
        let expected = reference_iteration(&g0, &profiles, &measure, 4, false);
        let config = EngineConfig::builder(n)
            .k(4)
            .num_partitions(4)
            .measure(measure)
            .seed(17)
            .build()
            .expect("config");
        let wd = WorkingDir::temp("itest_measures").expect("workdir");
        let mut engine = KnnEngine::with_initial_graph(config, g0, profiles, wd).expect("engine");
        engine.run_iteration().expect("iteration");
        assert_eq!(
            engine.graph(),
            &expected,
            "{measure} diverged from reference"
        );
        engine.into_working_dir().destroy().expect("cleanup");
    }
}

#[test]
fn converged_engine_approaches_brute_force_truth() {
    let n = 300;
    let profiles = workload(n, 21);
    let truth = brute_force_knn(&profiles, &Measure::Cosine, 8, 2);
    let config = EngineConfig::builder(n)
        .k(8)
        .num_partitions(8)
        .measure(Measure::Cosine)
        .include_reverse(true)
        .threads(2)
        .seed(21)
        .build()
        .expect("config");
    let wd = WorkingDir::temp("itest_recall").expect("workdir");
    let mut engine = KnnEngine::new(config, profiles, wd).expect("engine");
    engine.run_until_converged(0.01, 15).expect("convergence");
    let recall = recall_at_k(engine.graph(), &truth);
    assert!(
        recall.mean_recall > 0.9,
        "converged recall {:.3} too low",
        recall.mean_recall
    );
    engine.into_working_dir().destroy().expect("cleanup");
}
