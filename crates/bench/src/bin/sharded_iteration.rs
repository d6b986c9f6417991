//! **Experiment S6 — sharded iteration: overhead of the shard layer.**
//!
//! Runs the same seeded workload through a 1-shard and an N-shard
//! [`ShardedEngine`] **in one process**, in lockstep: after every
//! iteration the two graphs are asserted equal (the shard-count
//! determinism contract, checked in anger), the summed I/O meters are
//! asserted equal at the end, and the JSON records the iteration time
//! each shard count takes relative to one shard.
//!
//! Runs on per-shard `MemBackend`s so the numbers isolate the routing
//! overhead of the shard layer rather than disk latency.
//!
//! Emits one JSON document on stdout (committed as
//! `BENCH_shards.json`) and a human-readable table on stderr.
//!
//! Usage: `sharded_iteration [--sizes LIST] [--shards LIST] [--k N]
//! [--partitions N] [--threads N] [--seed N] [--iters N]`
//! (defaults: sizes `2000,10000`, shards `4`, the 1-shard baseline is
//! always run).

use std::time::Instant;

use knn_bench::{opt_or, TextTable};
use knn_core::EngineConfig;
use knn_datasets::WorkloadConfig;
use knn_shard::ShardedEngine;

struct Run {
    users: usize,
    shards: usize,
    iter_ms: Vec<f64>,
    tuples_unique: Vec<u64>,
    edges: usize,
}

fn join_u64(xs: &[u64]) -> String {
    xs.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

fn parse_list(arg: &str, what: &str) -> Vec<usize> {
    arg.split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| panic!("--{what} takes comma-separated counts"))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sizes = parse_list(&opt_or(&args, "sizes", "2000,10000".to_string()), "sizes");
    let mut shard_counts = parse_list(&opt_or(&args, "shards", "4".to_string()), "shards");
    // The 1-shard engine is the paired baseline every other count is
    // checked and measured against.
    if shard_counts.first() != Some(&1) {
        shard_counts.insert(0, 1);
    }
    let k: usize = opt_or(&args, "k", 8);
    let m: usize = opt_or(&args, "partitions", 8);
    let threads: usize = opt_or(&args, "threads", 2);
    let seed: u64 = opt_or(&args, "seed", 42);
    let iters: usize = opt_or(&args, "iters", 4);

    eprintln!(
        "S6 sharded iteration: sizes={sizes:?}, shards={shard_counts:?}, K={k}, m={m}, \
         threads={threads}, seed={seed}, iters={iters}"
    );

    let started = Instant::now();
    let mut runs: Vec<Run> = Vec::new();
    for &n in &sizes {
        let workload = WorkloadConfig::recommender().build(n, seed);
        let config = EngineConfig::builder(n)
            .k(k)
            .num_partitions(m)
            .measure(workload.measure)
            .threads(threads)
            .seed(seed)
            .build()
            .expect("config");

        // All shard counts advance in lockstep so every iteration's
        // graph (and, at the end, the summed I/O meters) can be
        // compared pairwise against the 1-shard baseline.
        let mut engines: Vec<ShardedEngine> = shard_counts
            .iter()
            .map(|&shards| {
                ShardedEngine::in_memory(config.clone(), workload.profiles.clone(), shards)
                    .expect("engine")
            })
            .collect();
        let mut per_engine: Vec<Run> = shard_counts
            .iter()
            .map(|&shards| Run {
                users: n,
                shards,
                iter_ms: Vec::with_capacity(iters),
                tuples_unique: Vec::with_capacity(iters),
                edges: 0,
            })
            .collect();

        for _ in 0..iters {
            for (engine, run) in engines.iter_mut().zip(&mut per_engine) {
                let t0 = Instant::now();
                let report = engine.run_iteration().expect("iteration");
                run.iter_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                run.tuples_unique.push(report.report.tuples.unique);
            }
            for engine in engines.iter().skip(1) {
                assert_eq!(
                    engines[0].graph(),
                    engine.graph(),
                    "shards={} diverged from the 1-shard baseline",
                    engine.num_shards()
                );
            }
        }
        for engine in engines.iter().skip(1) {
            assert_eq!(
                engines[0].io_snapshot(),
                engine.io_snapshot(),
                "summed IoStats of shards={} diverged",
                engine.num_shards()
            );
        }
        for (engine, mut run) in engines.into_iter().zip(per_engine) {
            run.edges = engine.graph().num_edges();
            runs.push(run);
        }
    }

    let mut table = TextTable::new(&["users", "shards", "mean iter ms", "vs 1-shard"]);
    for group in runs.chunks(shard_counts.len()) {
        let base = mean(&group[0].iter_ms);
        for r in group {
            table.row(&[
                r.users.to_string(),
                r.shards.to_string(),
                format!("{:.1}", mean(&r.iter_ms)),
                format!("{:.2}x", mean(&r.iter_ms) / base),
            ]);
        }
    }
    eprintln!("{}", table.render());

    let rows: Vec<String> = runs
        .chunks(shard_counts.len())
        .flat_map(|group| {
            let base = mean(&group[0].iter_ms);
            group.iter().map(move |r| {
                let fmt_ms = |xs: &[f64]| {
                    xs.iter()
                        .map(|ms| format!("{ms:.2}"))
                        .collect::<Vec<_>>()
                        .join(",")
                };
                format!(
                    r#"{{"users":{},"shards":{},"iter_ms":[{}],"mean_iter_ms":{:.2},"overhead_vs_1shard":{:.3},"tuples_unique":[{}],"graphs_equal":true,"edges":{}}}"#,
                    r.users,
                    r.shards,
                    fmt_ms(&r.iter_ms),
                    mean(&r.iter_ms),
                    mean(&r.iter_ms) / base,
                    join_u64(&r.tuples_unique),
                    r.edges
                )
            })
        })
        .collect();
    println!(
        r#"{{"bench":"sharded_iteration","backend":"mem","k":{k},"partitions":{m},"threads":{threads},"seed":{seed},"iters":{iters},"wall_s":{:.2},"results":[{}]}}"#,
        started.elapsed().as_secs_f64(),
        rows.join(",")
    );
}
