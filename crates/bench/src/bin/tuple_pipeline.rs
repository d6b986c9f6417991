//! **Experiment S6 — the tuple pipeline, out of core.**
//!
//! Runs one engine in its default configuration on the recommender
//! workload and reports per-iteration wall clock, phase 2 (the live
//! pass) and phase 4 (candidate generation and scoring) times, and the
//! bytes the iteration wrote.
//!
//! CI's bounded-memory job runs it with `--backend disk` under
//! `/usr/bin/time -v` to pin peak RSS.
//!
//! Emits one JSON document on stdout and a line per iteration on
//! stderr.
//!
//! Usage: `tuple_pipeline [--users N] [--iters N] [--k N]
//! [--partitions N] [--seed N] [--backend mem|disk]`

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
    let backend_kind: String = opt_or(&args, "backend", "mem".to_string());

    eprintln!(
        "S6 tuple pipeline: users={users}, iters={iters}, K={k}, m={m}, seed={seed}, \
         backend={backend_kind}"
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
        .seed(seed)
        .build()
        .expect("config");
    let started = Instant::now();
    let mut engine = KnnEngine::new_on(config, workload.profiles, backend).expect("engine");

    let mut rows_json = Vec::new();
    for i in 0..iters {
        let r = engine.run_iteration().expect("iteration");
        let ms = |phase: usize| r.phase_durations[phase].as_secs_f64() * 1e3;
        let written: u64 = r.phase_io.iter().map(|io| io.bytes_written).sum();
        eprintln!(
            "iter {i}: {:.1} ms, p2 {:.1} ms, p4 {:.1} ms, wrote {written} B, {} tuples",
            r.total_duration().as_secs_f64() * 1e3,
            ms(1),
            ms(3),
            r.tuples.unique
        );
        rows_json.push(format!(
            r#"{{"iter":{i},"iter_ms":{:.2},"p1_ms":{:.2},"p2_ms":{:.2},"p4_ms":{:.2},"bytes_written":{written},"tuples_offered":{},"tuples_unique":{}}}"#,
            r.total_duration().as_secs_f64() * 1e3,
            ms(0),
            ms(1),
            ms(3),
            r.tuples.offered,
            r.tuples.unique
        ));
    }
    println!(
        r#"{{"bench":"tuple_pipeline","backend":"{backend_kind}","users":{users},"k":{k},"partitions":{m},"seed":{seed},"iters":{iters},"wall_s":{:.2},"results":[{}]}}"#,
        started.elapsed().as_secs_f64(),
        rows_json.join(",")
    );
    if let Some(wd) = workdir {
        wd.destroy().expect("cleanup");
    }
}
