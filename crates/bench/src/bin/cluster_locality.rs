//! **Experiment C1 — what locality-aware placement buys.**
//!
//! Paired, alternating runs **in one process** on the
//! planted-community workload: the engine default (greedy placement,
//! uniform-random `G(0)`) versus clustering on (the `knn-cluster`
//! pre-pass packs clusters into partitions and seeds `G(0)`).
//!
//! Part 1 measures the I/O side on identical tuple workloads: phase
//! 4's partition load/unload operations, the intra-partition tuple
//! fraction, and the replication objective; a sharded twin of each variant must land on the same
//! graph.
//! Part 2 measures the initialization side: iterations needed to reach
//! the pinned `recall_regression.rs` floors from a random versus a
//! cluster-seeded start, and the converged recall of both (the floors
//! must hold either way — locality buys I/O and iterations, never
//! recall).
//!
//! Emits one JSON document on stdout (committed as
//! `BENCH_cluster.json`) and human-readable tables on stderr.
//!
//! Usage: `cluster_locality [--users N] [--k N] [--partitions N]
//! [--shards N] [--threads N] [--seed N] [--iters N]`

use std::time::Instant;

use knn_baseline::{brute_force_knn, recall_at_k};
use knn_bench::{opt_or, TextTable};
use knn_core::{EngineConfig, KnnEngine};
use knn_datasets::WorkloadConfig;
use knn_shard::ShardedEngine;
use knn_sim::Measure;

/// One paired variant: the engine's clustering switch (the baseline
/// is the engine default, the treatment the full locality stack).
#[derive(Clone, Copy)]
struct Variant {
    name: &'static str,
    clustering: bool,
}

const VARIANTS: [Variant; 2] = [
    Variant {
        name: "greedy",
        clustering: false,
    },
    Variant {
        name: "cluster",
        clustering: true,
    },
];

#[allow(clippy::too_many_arguments)]
fn config(
    n: usize,
    k: usize,
    m: usize,
    threads: usize,
    seed: u64,
    measure: Measure,
    v: Variant,
) -> EngineConfig {
    EngineConfig::builder(n)
        .k(k)
        .num_partitions(m)
        .clustering(v.clustering)
        .measure(measure)
        .threads(threads)
        .seed(seed)
        .build()
        .expect("config")
}

struct LocalityRun {
    variant: &'static str,
    partition_ops: Vec<u64>,
    replication_cost: Vec<u64>,
    intra_fraction: Vec<f64>,
}

fn join_u64(xs: &[u64]) -> String {
    xs.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
}

fn join_f64(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn sum(xs: &[u64]) -> u64 {
    xs.iter().sum()
}

/// Fractional reduction of `treated` vs `base` (positive = treated is
/// smaller).
fn reduction(base: u64, treated: u64) -> f64 {
    if base == 0 {
        return 0.0;
    }
    1.0 - treated as f64 / base as f64
}

struct FloorRun {
    variant: &'static str,
    iters_to_floor: Option<usize>,
    converged_iters: usize,
    recall_per_iter: Vec<f64>,
    final_recall: f64,
}

/// Runs one variant until convergence (change < 1%) or `max_iters`,
/// scoring recall against `truth` after every iteration.
#[allow(clippy::too_many_arguments)]
fn run_to_floor(
    workload: &WorkloadConfig,
    n: usize,
    k: usize,
    threads: usize,
    seed: u64,
    floor: f64,
    max_iters: usize,
    v: Variant,
) -> FloorRun {
    let built = workload.build(n, seed);
    let truth = brute_force_knn(&built.profiles, &built.measure, k, threads);
    let cfg = config(n, k, 8, threads, seed, built.measure, v);
    let mut engine = KnnEngine::in_memory(cfg, built.profiles).expect("engine");
    let mut recall_per_iter = Vec::new();
    let mut iters_to_floor = None;
    let mut converged_iters = max_iters;
    for iter in 1..=max_iters {
        let report = engine.run_iteration().expect("iteration");
        let recall = recall_at_k(engine.graph(), &truth).mean_recall;
        recall_per_iter.push(recall);
        if iters_to_floor.is_none() && recall >= floor {
            iters_to_floor = Some(iter);
        }
        if report.changed_fraction < 0.01 {
            converged_iters = iter;
            break;
        }
    }
    FloorRun {
        variant: v.name,
        iters_to_floor,
        converged_iters,
        final_recall: recall_per_iter.last().copied().unwrap_or(0.0),
        recall_per_iter,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = opt_or(&args, "users", 600);
    let k: usize = opt_or(&args, "k", 8);
    let m: usize = opt_or(&args, "partitions", 8);
    let shards: usize = opt_or(&args, "shards", 3);
    let threads: usize = opt_or(&args, "threads", 2);
    let seed: u64 = opt_or(&args, "seed", 42);
    let iters: usize = opt_or(&args, "iters", 4);

    eprintln!(
        "C1 cluster locality: n={n}, K={k}, m={m}, shards={shards}, threads={threads}, \
         seed={seed}, iters={iters}"
    );
    let started = Instant::now();

    // ---- Part 1: partition operations, paired and alternating.
    // Both variants run in lockstep in this one process: the same
    // workload bytes, the same iteration cadence, only placement and
    // G(0) differ.
    let workload = WorkloadConfig::communities().build(n, seed);
    let mut single: Vec<(KnnEngine, LocalityRun)> = VARIANTS
        .iter()
        .map(|&v| {
            let cfg = config(n, k, m, threads, seed, workload.measure, v);
            let engine = KnnEngine::in_memory(cfg, workload.profiles.clone()).expect("engine");
            (
                engine,
                LocalityRun {
                    variant: v.name,
                    partition_ops: Vec::new(),
                    replication_cost: Vec::new(),
                    intra_fraction: Vec::new(),
                },
            )
        })
        .collect();
    let mut sharded: Vec<ShardedEngine> = VARIANTS
        .iter()
        .map(|&v| {
            let cfg = config(n, k, m, threads, seed, workload.measure, v);
            ShardedEngine::in_memory(cfg, workload.profiles.clone(), shards).expect("engine")
        })
        .collect();

    for _ in 0..iters {
        for ((engine, run), shard_engine) in single.iter_mut().zip(&mut sharded) {
            let report = engine.run_iteration().expect("iteration");
            run.partition_ops.push(report.cache.total_ops());
            run.replication_cost.push(report.replication_cost);
            run.intra_fraction
                .push(report.intra_partition_tuple_fraction());
            shard_engine.run_iteration().expect("sharded iteration");
        }
    }
    // The determinism contract, checked in anger: the sharded twin of
    // each variant lands on the same graph as its single-process run.
    for ((engine, run), shard_engine) in single.iter().zip(&sharded) {
        assert_eq!(
            engine.graph(),
            shard_engine.graph(),
            "{}: sharded twin diverged",
            run.variant
        );
    }

    let ops_reduction = reduction(
        sum(&single[0].1.partition_ops),
        sum(&single[1].1.partition_ops),
    );

    let mut table = TextTable::new(&["variant", "partition ops", "repl cost", "intra frac"]);
    for (_, run) in &single {
        table.row(&[
            run.variant.to_string(),
            sum(&run.partition_ops).to_string(),
            sum(&run.replication_cost).to_string(),
            format!(
                "{:.3}",
                run.intra_fraction.iter().sum::<f64>() / run.intra_fraction.len().max(1) as f64
            ),
        ]);
    }
    eprintln!("{}", table.render());
    eprintln!("partition ops: -{:.1}%", ops_reduction * 100.0);

    // ---- Part 2: iterations-to-floor from random vs cluster-seeded
    // G(0), on the exact workloads and floors recall_regression.rs
    // pins.
    let floors: [(&str, WorkloadConfig, usize, usize, u64, f64); 2] = [
        (
            "recommender",
            WorkloadConfig::recommender(),
            400,
            10,
            42,
            0.93,
        ),
        ("tags", WorkloadConfig::tags(), 400, 10, 7, 0.80),
    ];
    let mut floor_rows = Vec::new();
    let mut table = TextTable::new(&[
        "workload",
        "variant",
        "iters to floor",
        "converged",
        "final recall",
    ]);
    for (label, workload, fn_users, fk, fseed, floor) in &floors {
        let runs: Vec<FloorRun> = VARIANTS
            .iter()
            .map(|&v| run_to_floor(workload, *fn_users, *fk, 4, *fseed, *floor, 20, v))
            .collect();
        for run in &runs {
            table.row(&[
                label.to_string(),
                run.variant.to_string(),
                run.iters_to_floor
                    .map(|i| i.to_string())
                    .unwrap_or_else(|| "never".to_string()),
                run.converged_iters.to_string(),
                format!("{:.4}", run.final_recall),
            ]);
        }
        floor_rows.push((label, floor, runs));
    }
    eprintln!("{}", table.render());

    let locality_json: Vec<String> = single
        .iter()
        .map(|(_, run)| {
            format!(
                r#"{{"variant":"{}","partition_ops":[{}],"replication_cost":[{}],"intra_partition_tuple_fraction":[{}]}}"#,
                run.variant,
                join_u64(&run.partition_ops),
                join_u64(&run.replication_cost),
                join_f64(&run.intra_fraction),
            )
        })
        .collect();
    let floor_json: Vec<String> = floor_rows
        .iter()
        .map(|(label, floor, runs)| {
            let variants: Vec<String> = runs
                .iter()
                .map(|r| {
                    format!(
                        r#"{{"variant":"{}","iters_to_floor":{},"converged_iters":{},"final_recall":{:.4},"recall_per_iter":[{}]}}"#,
                        r.variant,
                        r.iters_to_floor
                            .map(|i| i.to_string())
                            .unwrap_or_else(|| "null".to_string()),
                        r.converged_iters,
                        r.final_recall,
                        join_f64(&r.recall_per_iter),
                    )
                })
                .collect();
            format!(
                r#"{{"workload":"{label}","floor":{floor},"variants":[{}]}}"#,
                variants.join(",")
            )
        })
        .collect();
    println!(
        r#"{{"bench":"cluster_locality","users":{n},"k":{k},"partitions":{m},"shards":{shards},"threads":{threads},"seed":{seed},"iters":{iters},"wall_s":{:.2},"locality":{{"graphs_equal":true,"runs":[{}],"partition_ops_reduction":{:.4}}},"convergence":[{}]}}"#,
        started.elapsed().as_secs_f64(),
        locality_json.join(","),
        ops_reduction,
        floor_json.join(",")
    );
}
