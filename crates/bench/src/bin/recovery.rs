//! **Experiment R1 — recovery wall time.**
//!
//! How fast does the crash-consistent commit protocol recover? For a
//! sweep of world sizes, crash an iteration halfway through its
//! storage schedule and measure the storage-level `recover()` and the
//! full engine resume, against the working-directory size on disk.
//!
//! Emits one JSON document on stdout (for the BENCH trajectory) and a
//! human-readable table on stderr.
//!
//! Usage: `recovery [--users N] [--k N] [--partitions N] [--seed N]
//! [--iters N]`

use std::sync::Arc;
use std::time::Instant;

use knn_bench::{opt_or, TextTable};
use knn_core::{EngineConfig, KnnEngine};
use knn_datasets::WorkloadConfig;
use knn_graph::UserId;
use knn_sim::{ItemId, ProfileDelta};
use knn_store::{DiskBackend, FaultBackend, FaultKind, FaultPlan, StorageBackend};

fn update_for(iteration: u64, n: usize) -> ProfileDelta {
    ProfileDelta::set(
        UserId::new((iteration as u32 * 13) % n as u32),
        ItemId::new(20_000_000 + iteration as u32),
        2.5,
    )
}

fn dir_bytes(path: &std::path::Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            let meta = entry.metadata().expect("metadata");
            if meta.is_dir() {
                total += dir_bytes(&entry.path());
            } else {
                total += meta.len();
            }
        }
    }
    total
}

struct RecoveryPoint {
    users: usize,
    workdir_bytes: u64,
    recover_ms: f64,
    resume_ms: f64,
    rolled_back: bool,
    restored: u64,
}

/// Builds a world, crashes an extra iteration halfway through its
/// storage schedule, and times recovery on the survived bytes.
fn crash_and_recover(users: usize, k: usize, m: usize, seed: u64, iters: u64) -> RecoveryPoint {
    let workload = WorkloadConfig::recommender().build(users, seed);
    let cfg = EngineConfig::builder(users)
        .k(k)
        .num_partitions(m)
        .measure(workload.measure)
        .seed(seed)
        .build()
        .expect("config");

    let disk = DiskBackend::temp("bench_recovery").expect("disk backend");
    let wd = disk.working_dir().expect("workdir").clone();
    let fault = Arc::new(FaultBackend::new(Arc::new(disk)));
    let mut engine = KnnEngine::new_on(
        cfg.clone(),
        workload.profiles,
        Arc::clone(&fault) as Arc<dyn StorageBackend>,
    )
    .expect("engine");
    while engine.iteration() < iters {
        engine
            .queue_update(&update_for(engine.iteration(), users))
            .expect("queue");
        engine.run_iteration().expect("iteration");
    }

    // Probe one iteration's armed-op count, then kill the next one
    // halfway through the same schedule.
    fault.set_plan(FaultPlan {
        fail_at: u64::MAX,
        kind: FaultKind::Crash,
        seed,
    });
    engine
        .queue_update(&update_for(iters, users))
        .expect("queue");
    fault.arm();
    engine.run_iteration().expect("probe iteration");
    fault.disarm();
    let ops_per_iteration = fault.ops_observed();

    fault.set_plan(FaultPlan {
        fail_at: ops_per_iteration / 2,
        kind: FaultKind::Crash,
        seed,
    });
    engine
        .queue_update(&update_for(iters + 1, users))
        .expect("queue");
    fault.arm();
    let killed = engine.run_iteration();
    fault.disarm();
    assert!(killed.is_err(), "the mid-schedule crash must fire");
    drop(engine);

    let survivor = Arc::clone(fault.inner());
    let workdir_bytes = dir_bytes(wd.root());

    let started = Instant::now();
    let report = knn_store::recover(survivor.as_ref()).expect("recover");
    let recover_ms = started.elapsed().as_secs_f64() * 1e3;

    let started = Instant::now();
    let resumed = KnnEngine::resume_on(cfg, Arc::clone(&survivor)).expect("resume");
    let resume_ms = started.elapsed().as_secs_f64() * 1e3;
    drop(resumed);
    wd.destroy().expect("cleanup");

    RecoveryPoint {
        users,
        workdir_bytes,
        recover_ms,
        resume_ms,
        rolled_back: report.rolled_back,
        restored: report.restored,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = opt_or(&args, "users", 16_000);
    let k: usize = opt_or(&args, "k", 8);
    let m: usize = opt_or(&args, "partitions", 8);
    let seed: u64 = opt_or(&args, "seed", 42);
    let iters: u64 = opt_or(&args, "iters", 3);

    eprintln!("R1 recovery: n={n}, K={k}, m={m}, seed={seed}, iters={iters}");
    let started = Instant::now();

    let mut points = Vec::new();
    for users in [n / 4, n / 2, n] {
        points.push(crash_and_recover(users.max(64), k, m, seed, iters));
    }

    let mut table = TextTable::new(&[
        "users",
        "workdir MB",
        "recover ms",
        "resume ms",
        "rolled back",
        "restored",
    ]);
    let mut rows = Vec::new();
    for p in &points {
        table.row(&[
            p.users.to_string(),
            format!("{:.1}", p.workdir_bytes as f64 / 1e6),
            format!("{:.1}", p.recover_ms),
            format!("{:.1}", p.resume_ms),
            p.rolled_back.to_string(),
            p.restored.to_string(),
        ]);
        rows.push(format!(
            r#"{{"users":{},"workdir_bytes":{},"recover_ms":{:.2},"resume_ms":{:.2},"rolled_back":{},"restored":{}}}"#,
            p.users, p.workdir_bytes, p.recover_ms, p.resume_ms, p.rolled_back, p.restored
        ));
    }
    eprintln!("{}", table.render());

    println!(
        r#"{{"bench":"recovery","users":{n},"k":{k},"partitions":{m},"seed":{seed},"iters":{iters},"wall_s":{:.2},"recovery":[{}]}}"#,
        started.elapsed().as_secs_f64(),
        rows.join(",")
    );
}
