//! **Experiment S6 — the phase-1/2 tuple pipeline, out of core.**
//!
//! Runs one engine on the columnar tuple pipeline (SoA staging,
//! per-source dedup, varint-delta spill codec, loser-tree streaming
//! merge) with a small spill threshold, so phase 2 stays on the
//! out-of-core path the paper's memory constraint forces, and reports
//! per-iteration phase-1/2 wall clock and spill traffic.
//!
//! CI's bounded-memory job runs it with `--tuple-memory` and
//! `--backend disk` under `/usr/bin/time -v` to pin peak RSS.
//!
//! Emits one JSON document on stdout and a line per iteration on
//! stderr.
//!
//! Usage: `tuple_pipeline [--users N] [--iters N] [--k N]
//! [--partitions N] [--seed N] [--spill N] [--tuple-memory BYTES]
//! [--backend mem|disk]`

use std::sync::Arc;
use std::time::Instant;

use knn_bench::opt_or;
use knn_core::{EngineConfig, KnnEngine};
use knn_datasets::WorkloadConfig;
use knn_store::{DiskBackend, MemBackend, StorageBackend};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let users: usize = opt_or(&args, "users", 50_000);
    let iters: usize = opt_or(&args, "iters", 6);
    let k: usize = opt_or(&args, "k", 8);
    let m: usize = opt_or(&args, "partitions", 8);
    let seed: u64 = opt_or(&args, "seed", 42);
    let spill: usize = opt_or(&args, "spill", 8192);
    let tuple_memory: usize = opt_or(&args, "tuple-memory", 0); // 0 = no budget
    let backend_kind: String = opt_or(&args, "backend", "mem".to_string());

    eprintln!(
        "S6 tuple pipeline: users={users}, iters={iters}, K={k}, m={m}, seed={seed}, \
         spill={spill}, tuple_memory={tuple_memory}, backend={backend_kind}"
    );
    let workload = WorkloadConfig::recommender().build(users, seed);
    let mut workdir = None;
    let backend: Arc<dyn StorageBackend> = if backend_kind == "disk" {
        let disk = DiskBackend::temp("tuple_pipeline").expect("disk backend");
        workdir = Some(disk.working_dir().expect("workdir").clone());
        Arc::new(disk)
    } else {
        Arc::new(MemBackend::new())
    };
    let config = EngineConfig::builder(users)
        .k(k)
        .num_partitions(m)
        .measure(workload.measure)
        .threads(1)
        .spill_threshold(spill)
        .tuple_table_memory((tuple_memory > 0).then_some(tuple_memory))
        .seed(seed)
        .build()
        .expect("config");
    let started = Instant::now();
    let mut engine = KnnEngine::new_on(config, workload.profiles, backend).expect("engine");

    let mut rows_json = Vec::new();
    for i in 0..iters {
        let r = engine.run_iteration().expect("iteration");
        let spill = &r.phase_io[1];
        eprintln!(
            "iter {i}: p1 {:.1} ms, p2 {:.1} ms, spilled {} B in {} runs, {} merges",
            r.phase_durations[0].as_secs_f64() * 1e3,
            r.phase_durations[1].as_secs_f64() * 1e3,
            spill.spill_bytes,
            spill.spill_runs,
            spill.merge_passes
        );
        rows_json.push(format!(
            r#"{{"iter":{i},"p1_ms":{:.2},"p2_ms":{:.2},"spilled_bytes":{},"spill_runs":{},"merge_passes":{},"tuples_unique":{}}}"#,
            r.phase_durations[0].as_secs_f64() * 1e3,
            r.phase_durations[1].as_secs_f64() * 1e3,
            spill.spill_bytes,
            spill.spill_runs,
            spill.merge_passes,
            r.tuples.unique
        ));
    }
    println!(
        r#"{{"bench":"tuple_pipeline","backend":"{backend_kind}","users":{users},"k":{k},"partitions":{m},"seed":{seed},"iters":{iters},"spill_threshold":{spill},"tuple_table_memory":{tuple_memory},"wall_s":{:.2},"results":[{}]}}"#,
        started.elapsed().as_secs_f64(),
        rows_json.join(",")
    );
    if let Some(wd) = workdir {
        wd.destroy().expect("cleanup");
    }
}
