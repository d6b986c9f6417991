//! **Experiment S3 — serving under closed-loop overload.**
//!
//! Drives mixed read/update load against a [`KnnService`] over a
//! single engine and one over a sharded engine, with *bounded*
//! admission: reader threads hammer `neighbors` back-to-back while
//! writer threads submit a
//! closed-loop update storm that deliberately outruns the refinement
//! loop. Reports read-latency percentiles (p50/p99/p999), saturation
//! throughput, and the overload accounting — rejected/shed/coalesced
//! updates and the peak pending depth, which must never exceed the
//! configured capacity.
//!
//! Emits one JSON document on stdout (for the BENCH trajectory) and a
//! human-readable table on stderr.
//!
//! Usage: `serve_load [--users N] [--k N] [--partitions N] [--shards N]
//! [--seed N] [--millis N] [--threads LIST] [--writers N]
//! [--capacity N]` (LIST comma-separated reader counts, default `1,4`)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use knn_bench::{opt_or, TextTable};
use knn_core::{EngineConfig, KnnEngine};
use knn_datasets::WorkloadConfig;
use knn_graph::UserId;
use knn_serve::{spawn, spawn_sharded, AdmissionConfig, KnnService, RefineOptions, ServeError};
use knn_shard::ShardedEngine;
use knn_sim::{ItemId, ProfileDelta};

struct Measurement {
    mode: &'static str,
    readers: usize,
    queries: u64,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    accepted: u64,
    rejected: u64,
    shed: u64,
    coalesced: u64,
    peak_pending: u64,
    breaker_open_ms: u64,
    cache_hits: u64,
    cache_misses: u64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Closed-loop mixed load for `window`: `readers` query threads timing
/// every call, `writers` update threads submitting as fast as
/// admission lets them (sleeping the `retry_after_hint` on rejection —
/// a well-behaved client). Returns latency percentiles over all reads
/// plus the service's own overload accounting.
fn measure(
    service: &KnnService,
    mode: &'static str,
    readers: usize,
    writers: usize,
    window: Duration,
    n: usize,
    capacity: usize,
) -> Measurement {
    let before = service.stats();
    let stop = Arc::new(AtomicBool::new(false));
    let mut reader_handles = Vec::new();
    for reader in 0..readers {
        let service = service.clone();
        let stop = Arc::clone(&stop);
        reader_handles.push(std::thread::spawn(move || {
            let mut state = 0x9E37_79B9u64.wrapping_mul(reader as u64 + 1) | 1;
            let mut latencies_us = Vec::with_capacity(1 << 16);
            while !stop.load(Ordering::Relaxed) {
                let user = UserId::new((lcg(&mut state) % n as u64) as u32);
                let started = Instant::now();
                std::hint::black_box(service.neighbors(user).expect("in-range user"));
                latencies_us.push(started.elapsed().as_secs_f64() * 1e6);
            }
            latencies_us
        }));
    }
    let mut writer_handles = Vec::new();
    for writer in 0..writers {
        let service = service.clone();
        let stop = Arc::clone(&stop);
        writer_handles.push(std::thread::spawn(move || {
            let mut state = 0xC2B2_AE3Du64.wrapping_mul(writer as u64 + 1) | 1;
            let mut accepted = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let user = UserId::new((lcg(&mut state) % n as u64) as u32);
                let item = ItemId::new(1_000 + (lcg(&mut state) % 512) as u32);
                let weight = 1.0 + (lcg(&mut state) % 16) as f32 * 0.25;
                match service.submit_update(ProfileDelta::set(user, item, weight)) {
                    Ok(()) => accepted += 1,
                    Err(ServeError::Overloaded { retry_after_hint }) => {
                        std::thread::sleep(retry_after_hint.min(Duration::from_millis(5)));
                    }
                    Err(other) => panic!("writer hit unexpected error: {other}"),
                }
            }
            accepted
        }));
    }

    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let mut latencies: Vec<f64> = Vec::new();
    for handle in reader_handles {
        latencies.extend(handle.join().expect("reader"));
    }
    let accepted: u64 = writer_handles
        .into_iter()
        .map(|w| w.join().expect("writer"))
        .sum();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    let after = service.stats();
    let peak_pending = after.peak_pending;
    assert!(
        peak_pending <= capacity as u64,
        "{mode}: pending depth {peak_pending} exceeded capacity {capacity}"
    );

    let queries = latencies.len() as u64;
    Measurement {
        mode,
        readers,
        queries,
        qps: queries as f64 / window.as_secs_f64(),
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        p999_us: percentile(&latencies, 0.999),
        accepted,
        rejected: after.rejected - before.rejected,
        shed: after.shed - before.shed,
        coalesced: after.coalesced - before.coalesced,
        peak_pending,
        breaker_open_ms: after.breaker_open_ms,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = opt_or(&args, "users", 4_000);
    let k: usize = opt_or(&args, "k", 8);
    let m: usize = opt_or(&args, "partitions", 8);
    let shards: usize = opt_or(&args, "shards", 4);
    let seed: u64 = opt_or(&args, "seed", 42);
    let millis: u64 = opt_or(&args, "millis", 1_000);
    let writers: usize = opt_or(&args, "writers", 2);
    let capacity: usize = opt_or(&args, "capacity", 256);
    let thread_list: String = opt_or(&args, "threads", "1,4".to_string());
    let thread_counts: Vec<usize> = thread_list
        .split(',')
        .map(|t| {
            t.trim()
                .parse()
                .expect("--threads takes comma-separated counts")
        })
        .collect();

    eprintln!(
        "S3 serve load: n={n}, K={k}, m={m}, shards={shards}, seed={seed}, \
         window={millis}ms, writers={writers}, capacity={capacity}"
    );

    let options = RefineOptions {
        convergence_threshold: None,
        max_iterations: None,
        idle_park: Duration::from_millis(1),
        repair: false,
        admission: AdmissionConfig::bounded(capacity),
        ..RefineOptions::default()
    };
    let window = Duration::from_millis(millis);
    let started = Instant::now();
    let mut results: Vec<Measurement> = Vec::new();

    {
        let workload = WorkloadConfig::recommender().build(n, seed);
        let config = EngineConfig::builder(n)
            .k(k)
            .num_partitions(m)
            .measure(workload.measure)
            .seed(seed)
            .build()
            .expect("config");
        let engine = KnnEngine::in_memory(config, workload.profiles).expect("engine");
        let (service, refine) = spawn(engine, options.clone()).expect("spawn");
        for &t in &thread_counts {
            results.push(measure(&service, "single", t, writers, window, n, capacity));
        }
        refine.stop().expect("stop single");
    }

    {
        let workload = WorkloadConfig::recommender().build(n, seed);
        let config = EngineConfig::builder(n)
            .k(k)
            .num_partitions(m)
            .measure(workload.measure)
            .seed(seed)
            .build()
            .expect("config");
        let engine =
            ShardedEngine::in_memory(config, workload.profiles, shards).expect("sharded engine");
        let (service, refine) = spawn_sharded(engine, options).expect("spawn_sharded");
        for &t in &thread_counts {
            results.push(measure(
                &service, "sharded", t, writers, window, n, capacity,
            ));
        }
        refine.stop().expect("stop sharded");
    }

    let mut table = TextTable::new(&[
        "mode",
        "readers",
        "q/s",
        "p50 µs",
        "p99 µs",
        "p999 µs",
        "accepted",
        "rejected",
        "shed",
        "coalesced",
        "peak",
    ]);
    for r in &results {
        table.row(&[
            r.mode.to_string(),
            r.readers.to_string(),
            format!("{:.0}", r.qps),
            format!("{:.1}", r.p50_us),
            format!("{:.1}", r.p99_us),
            format!("{:.1}", r.p999_us),
            r.accepted.to_string(),
            r.rejected.to_string(),
            r.shed.to_string(),
            r.coalesced.to_string(),
            r.peak_pending.to_string(),
        ]);
    }
    eprintln!("{}", table.render());

    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                r#"{{"mode":"{}","readers":{},"queries":{},"qps":{:.1},"p50_us":{:.1},"p99_us":{:.1},"p999_us":{:.1},"accepted":{},"rejected":{},"shed":{},"coalesced":{},"peak_pending":{},"breaker_open_ms":{},"cache_hits":{},"cache_misses":{}}}"#,
                r.mode,
                r.readers,
                r.queries,
                r.qps,
                r.p50_us,
                r.p99_us,
                r.p999_us,
                r.accepted,
                r.rejected,
                r.shed,
                r.coalesced,
                r.peak_pending,
                r.breaker_open_ms,
                r.cache_hits,
                r.cache_misses
            )
        })
        .collect();
    println!(
        r#"{{"bench":"serve_load","users":{n},"k":{k},"partitions":{m},"shards":{shards},"seed":{seed},"window_ms":{millis},"writers":{writers},"capacity":{capacity},"wall_s":{:.2},"results":[{}]}}"#,
        started.elapsed().as_secs_f64(),
        rows.join(",")
    );
}
