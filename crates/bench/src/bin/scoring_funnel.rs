//! **Experiment S5 — the scoring-funnel effect, paired.**
//!
//! Runs two engines over the identical seeded workload in lockstep:
//! one with the scoring funnel (phase 2's offer-time suppression +
//! phase 4's bound filtering, the defaults) and one forced down the
//! classic full-rescore path. The `sims_skipped` column counts the
//! directed offers phase 2 suppressed, so they never reached phase 4. Because the two alternate iteration by
//! iteration inside one process, machine-level drift (thermal
//! throttling, timeslicing) hits both equally — the per-iteration
//! ratios isolate the funnel's real effect, which separate runs on a
//! noisy host cannot.
//!
//! After every iteration the two graphs are asserted **identical** —
//! the funnel's exactness contract, checked in anger at benchmark
//! scale.
//!
//! The expected shape: early iterations pay the funnel's bookkeeping
//! with little to suppress (a cold random graph churns everywhere);
//! once the graph approaches its fixed point, suppression removes
//! most kernel evaluations and phase 4's wall clock follows. The
//! steady-state summary aggregates the last three iterations.
//!
//! Emits one JSON document on stdout (committed as
//! `BENCH_scoring_funnel.json`) and a table on stderr.
//!
//! Usage: `scoring_funnel [--users N] [--iters N] [--k N]
//! [--partitions N] [--seed N]`

use std::sync::Arc;
use std::time::Instant;

use knn_bench::{opt_or, TextTable};
use knn_core::{EngineConfig, KnnEngine};
use knn_datasets::WorkloadConfig;
use knn_store::MemBackend;

struct IterRow {
    funnel_p4_ms: f64,
    plain_p4_ms: f64,
    funnel_sims: u64,
    plain_sims: u64,
    skipped: u64,
    pruned: u64,
    seeded: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let users: usize = opt_or(&args, "users", 50_000);
    let iters: usize = opt_or(&args, "iters", 8);
    let k: usize = opt_or(&args, "k", 8);
    let m: usize = opt_or(&args, "partitions", 8);
    let seed: u64 = opt_or(&args, "seed", 42);

    eprintln!("S5 scoring funnel: users={users}, iters={iters}, K={k}, m={m}, seed={seed}");
    let workload = WorkloadConfig::recommender().build(users, seed);
    let build = |funnel_on: bool| {
        let config = EngineConfig::builder(users)
            .k(k)
            .num_partitions(m)
            .measure(workload.measure)
            .threads(1)
            .prune_pairs(funnel_on)
            .bound_filter(funnel_on)
            .seed(seed)
            .build()
            .expect("config");
        KnnEngine::new_on(
            config,
            workload.profiles.clone(),
            Arc::new(MemBackend::new()),
        )
        .expect("engine")
    };
    let mut funnel = build(true);
    let mut plain = build(false);

    let started = Instant::now();
    let mut rows: Vec<IterRow> = Vec::new();
    for _ in 0..iters {
        let rf = funnel.run_iteration().expect("funnel iteration");
        let rp = plain.run_iteration().expect("plain iteration");
        // The exactness contract: the funnel never changes the graph.
        assert_eq!(
            funnel.graph(),
            plain.graph(),
            "scoring funnel diverged from the full-rescore path"
        );
        rows.push(IterRow {
            funnel_p4_ms: rf.phase_durations[3].as_secs_f64() * 1e3,
            plain_p4_ms: rp.phase_durations[3].as_secs_f64() * 1e3,
            funnel_sims: rf.sims_computed,
            plain_sims: rp.sims_computed,
            skipped: rf.sims_skipped,
            pruned: rf.sims_pruned,
            seeded: rf.accums_seeded,
        });
    }

    let mut table = TextTable::new(&[
        "iter",
        "funnel p4 ms",
        "plain p4 ms",
        "p4 speedup",
        "funnel sims",
        "plain sims",
        "sims saved",
        "skipped",
        "pruned",
    ]);
    for (i, r) in rows.iter().enumerate() {
        table.row(&[
            i.to_string(),
            format!("{:.1}", r.funnel_p4_ms),
            format!("{:.1}", r.plain_p4_ms),
            format!("{:.2}x", r.plain_p4_ms / r.funnel_p4_ms),
            r.funnel_sims.to_string(),
            r.plain_sims.to_string(),
            format!(
                "{:.1}%",
                100.0 * (1.0 - r.funnel_sims as f64 / r.plain_sims.max(1) as f64)
            ),
            r.skipped.to_string(),
            r.pruned.to_string(),
        ]);
    }
    eprintln!("{}", table.render());

    // Steady-state summary: the last three iterations (the regime a
    // long-running refinement loop lives in).
    let window = &rows[rows.len().saturating_sub(3)..];
    let steady_funnel_p4: f64 = window.iter().map(|r| r.funnel_p4_ms).sum::<f64>();
    let steady_plain_p4: f64 = window.iter().map(|r| r.plain_p4_ms).sum::<f64>();
    let steady_funnel_sims: u64 = window.iter().map(|r| r.funnel_sims).sum();
    let steady_plain_sims: u64 = window.iter().map(|r| r.plain_sims).sum();
    eprintln!(
        "steady state (last {} iters): p4 speedup {:.2}x, sims reduced {:.1}%",
        window.len(),
        steady_plain_p4 / steady_funnel_p4,
        100.0 * (1.0 - steady_funnel_sims as f64 / steady_plain_sims.max(1) as f64),
    );

    let rows_json: Vec<String> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            format!(
                r#"{{"iter":{i},"funnel_p4_ms":{:.2},"plain_p4_ms":{:.2},"p4_speedup":{:.3},"funnel_sims":{},"plain_sims":{},"sims_skipped":{},"sims_pruned":{},"accums_seeded":{}}}"#,
                r.funnel_p4_ms,
                r.plain_p4_ms,
                r.plain_p4_ms / r.funnel_p4_ms,
                r.funnel_sims,
                r.plain_sims,
                r.skipped,
                r.pruned,
                r.seeded
            )
        })
        .collect();
    println!(
        r#"{{"bench":"scoring_funnel","users":{users},"k":{k},"partitions":{m},"seed":{seed},"iters":{iters},"graphs_identical":true,"steady_p4_speedup":{:.3},"steady_sims_reduction":{:.3},"wall_s":{:.2},"results":[{}]}}"#,
        steady_plain_p4 / steady_funnel_p4,
        1.0 - steady_funnel_sims as f64 / steady_plain_sims.max(1) as f64,
        started.elapsed().as_secs_f64(),
        rows_json.join(",")
    );
}
