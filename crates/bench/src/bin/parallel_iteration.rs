//! **Experiment S3 — partition-parallel iteration scaling.**
//!
//! Runs identical engine workloads at several worker-thread budgets
//! (`EngineConfig::threads`, the engine-wide knob driving phases 1, 2,
//! 4, and 5) and reports per-iteration wall time, per-phase time, and
//! the speedup over the first listed thread count (`speedup_vs_first`
//! in the JSON — put 1 first for a true single-thread baseline, as the
//! default list does). Every engine is seeded
//! identically, so all graphs are equal by construction — asserted
//! after every iteration, making the bench double as a determinism
//! smoke test.
//!
//! Runs on `MemBackend` so the numbers isolate the compute scaling of
//! the iteration pipeline rather than disk latency (the storage axis
//! is experiment S2, `backends`).
//!
//! Besides wall times, the JSON carries the per-iteration
//! scoring-funnel trajectory (`p4_ms`, `sims_per_iter`,
//! `sims_skipped`, `sims_pruned`, `accums_seeded`): as the graph
//! converges, phase 2 suppresses most offers (`sims_skipped` counts
//! the suppressed directed offers), so fewer tuples reach phase 4 and
//! its cost falls with them — the committed
//! artifact runs 8 iterations per configuration so the steady-state
//! regime is on record, not just the cold bootstrap (the paired
//! funnel-vs-rescore measurement is experiment S5, `scoring_funnel`).
//!
//! Emits one JSON document on stdout (for the BENCH trajectory,
//! committed as `BENCH_parallel.json`) and a human-readable table on
//! stderr.
//!
//! Usage: `parallel_iteration [--sizes LIST] [--threads LIST]
//! [--k N] [--partitions N] [--seed N] [--iters N]`
//! (defaults: sizes `10000,50000`, threads `1,2,4,8`).

use std::sync::Arc;
use std::time::Instant;

use knn_bench::{opt_or, TextTable};
use knn_core::{EngineConfig, KnnEngine};
use knn_datasets::WorkloadConfig;
use knn_store::MemBackend;

struct Run {
    users: usize,
    threads: usize,
    iter_ms: Vec<f64>,
    /// Mean per-phase milliseconds across the measured iterations
    /// (the coarse summary; the per-iteration arrays below are the
    /// trajectory).
    phase_ms: [f64; 5],
    /// Per-iteration phase-1 wall time (partitioning + layout).
    p1_ms: Vec<f64>,
    /// Per-iteration phase-2 wall time (the tuple pipeline).
    p2_ms: Vec<f64>,
    /// Per-iteration phase-4 wall time (the hot-path trajectory: the
    /// scoring funnel makes later iterations cheaper).
    p4_ms: Vec<f64>,
    /// Per-iteration phase-2 spill traffic.
    spilled_per_iter: Vec<u64>,
    /// Per-iteration scoring-funnel counters.
    sims_per_iter: Vec<u64>,
    skipped_per_iter: Vec<u64>,
    pruned_per_iter: Vec<u64>,
    seeded_per_iter: Vec<u64>,
    sims_computed: u64,
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
    let sizes = parse_list(&opt_or(&args, "sizes", "10000,50000".to_string()), "sizes");
    let thread_counts = parse_list(&opt_or(&args, "threads", "1,2,4,8".to_string()), "threads");
    let k: usize = opt_or(&args, "k", 8);
    let m: usize = opt_or(&args, "partitions", 8);
    let seed: u64 = opt_or(&args, "seed", 42);
    let iters: usize = opt_or(&args, "iters", 3);

    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    eprintln!(
        "S3 parallel iteration: sizes={sizes:?}, threads={thread_counts:?}, K={k}, m={m}, \
         seed={seed}, iters={iters}, host_cpus={host_cpus}"
    );
    if thread_counts.iter().any(|&t| t > host_cpus) {
        eprintln!(
            "WARNING: host exposes only {host_cpus} CPU(s); thread counts above that \
             timeslice one core and cannot show wall-clock speedup. The graph-equality \
             determinism checks still run in full."
        );
    }

    let started = Instant::now();
    let mut runs: Vec<Run> = Vec::new();
    for &n in &sizes {
        let workload = WorkloadConfig::recommender().build(n, seed);
        let mut reference_graph = None;
        for &threads in &thread_counts {
            let config = EngineConfig::builder(n)
                .k(k)
                .num_partitions(m)
                .measure(workload.measure)
                .threads(threads)
                .seed(seed)
                .build()
                .expect("config");
            let mut engine = KnnEngine::new_on(
                config,
                workload.profiles.clone(),
                Arc::new(MemBackend::new()),
            )
            .expect("engine");
            let mut iter_ms = Vec::with_capacity(iters);
            let mut phase_ms = [0f64; 5];
            let mut p1_ms = Vec::with_capacity(iters);
            let mut p2_ms = Vec::with_capacity(iters);
            let mut p4_ms = Vec::with_capacity(iters);
            let mut spilled_per_iter = Vec::with_capacity(iters);
            let mut sims_per_iter = Vec::with_capacity(iters);
            let mut skipped_per_iter = Vec::with_capacity(iters);
            let mut pruned_per_iter = Vec::with_capacity(iters);
            let mut seeded_per_iter = Vec::with_capacity(iters);
            let mut sims = 0u64;
            for _ in 0..iters {
                let t0 = Instant::now();
                let report = engine.run_iteration().expect("iteration");
                iter_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                for (acc, d) in phase_ms.iter_mut().zip(report.phase_durations) {
                    *acc += d.as_secs_f64() * 1e3 / iters as f64;
                }
                // Per-iteration per-phase trajectory, symmetric across
                // the pipeline's hot phases (1, 2, and 4).
                p1_ms.push(report.phase_durations[0].as_secs_f64() * 1e3);
                p2_ms.push(report.phase_durations[1].as_secs_f64() * 1e3);
                p4_ms.push(report.phase_durations[3].as_secs_f64() * 1e3);
                spilled_per_iter.push(report.phase_io[1].spill_bytes);
                sims_per_iter.push(report.sims_computed);
                skipped_per_iter.push(report.sims_skipped);
                pruned_per_iter.push(report.sims_pruned);
                seeded_per_iter.push(report.accums_seeded);
                sims += report.sims_computed;
            }
            // The determinism guarantee, checked in anger: every
            // thread count lands on the identical graph.
            match &reference_graph {
                None => reference_graph = Some(engine.graph().clone()),
                Some(g) => assert_eq!(
                    g,
                    engine.graph(),
                    "threads={threads} diverged from threads={}",
                    thread_counts[0]
                ),
            }
            runs.push(Run {
                users: n,
                threads,
                iter_ms,
                phase_ms,
                p1_ms,
                p2_ms,
                p4_ms,
                spilled_per_iter,
                sims_per_iter,
                skipped_per_iter,
                pruned_per_iter,
                seeded_per_iter,
                sims_computed: sims,
                edges: engine.graph().num_edges(),
            });
        }
    }

    let mut table = TextTable::new(&[
        "users",
        "threads",
        "mean iter ms",
        "p1 ms",
        "p2 ms",
        "p4 ms",
        "p5 ms",
        "speedup",
        "sims/iter",
        "skipped/iter",
        "pruned/iter",
    ]);
    for group in runs.chunks(thread_counts.len()) {
        let base = mean(&group[0].iter_ms);
        for r in group {
            table.row(&[
                r.users.to_string(),
                r.threads.to_string(),
                format!("{:.1}", mean(&r.iter_ms)),
                format!("{:.1}", r.phase_ms[0]),
                format!("{:.1}", r.phase_ms[1]),
                format!("{:.1}", r.phase_ms[3]),
                format!("{:.1}", r.phase_ms[4]),
                format!("{:.2}x", base / mean(&r.iter_ms)),
                join_u64(&r.sims_per_iter),
                join_u64(&r.skipped_per_iter),
                join_u64(&r.pruned_per_iter),
            ]);
        }
    }
    eprintln!("{}", table.render());

    // The BENCH-trajectory JSON document.
    let rows: Vec<String> = runs
        .chunks(thread_counts.len())
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
                    r#"{{"users":{},"threads":{},"iter_ms":[{}],"mean_iter_ms":{:.2},"phase_ms":[{}],"p1_ms":[{}],"p2_ms":[{}],"p4_ms":[{}],"speedup_vs_first":{:.3},"sims_computed":{},"sims_per_iter":[{}],"sims_skipped":[{}],"sims_pruned":[{}],"accums_seeded":[{}],"bytes_spilled":[{}],"edges":{}}}"#,
                    r.users,
                    r.threads,
                    fmt_ms(&r.iter_ms),
                    mean(&r.iter_ms),
                    fmt_ms(&r.phase_ms),
                    fmt_ms(&r.p1_ms),
                    fmt_ms(&r.p2_ms),
                    fmt_ms(&r.p4_ms),
                    base / mean(&r.iter_ms),
                    r.sims_computed,
                    join_u64(&r.sims_per_iter),
                    join_u64(&r.skipped_per_iter),
                    join_u64(&r.pruned_per_iter),
                    join_u64(&r.seeded_per_iter),
                    join_u64(&r.spilled_per_iter),
                    r.edges
                )
            })
        })
        .collect();
    println!(
        r#"{{"bench":"parallel_iteration","backend":"mem","k":{k},"partitions":{m},"seed":{seed},"iters":{iters},"host_cpus":{host_cpus},"wall_s":{:.2},"results":[{}]}}"#,
        started.elapsed().as_secs_f64(),
        rows.join(",")
    );
}
