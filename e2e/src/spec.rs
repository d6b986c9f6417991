//! The benchmark's definition: its workloads, its metric names, and
//! the bounds — the single source `BENCHMARK.json` is generated from
//! (`e2e spec`) and `diff` judges by.

use crate::json::Json;

/// Which profile generator a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dataset {
    /// `WorkloadConfig::recommender()`: cosine over ~29-entry
    /// clustered rating vectors — the kernel-heavy regime.
    Recommender,
    /// `WorkloadConfig::ZipfSets` with short profiles: Jaccard over
    /// 8-item sets — a cheap kernel and a lot of tuples.
    ZipfShort,
}

/// Where the engine keeps its streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Store {
    /// `MemBackend`, default spill settings: the store does almost
    /// nothing.
    Mem,
    /// `DiskBackend`, two cache slots, a small spill threshold and a
    /// tuple-table byte budget: the paper's out-of-core regime.
    DiskSpill,
}

/// How a load-generator thread paces itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// The next operation is sent when the previous one completes.
    Closed,
    /// Operations are due at a fixed rate per second regardless of
    /// completions; each is timed from when it was due.
    Open(f64),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: Dataset,
    pub store: Store,
    pub users: usize,
    pub k: usize,
    pub partitions: usize,
    /// 1 serves through `spawn`; more through `spawn_sharded`.
    pub shards: usize,
    pub engine_threads: usize,
    /// Sampled recall@K the graph must reach.
    pub floor: f64,
    /// Iterations run in total, floor or not.
    pub iterations: usize,
    /// Users whose exact top-K is computed as ground truth.
    pub truth_sample: usize,
    /// Share of `--seconds` the traffic window lasts.
    pub window_share: f64,
    /// How the writer paces itself. The reader is a closed loop on every
    /// workload: an open-loop reader sleeps between requests, each
    /// request then finds the graph out of its core's cache, and how far
    /// out is the host's doing — at 2 000 requests/s the median service
    /// time moved by a third between runs of the same code, alone or in
    /// bursts, sleeping or spinning. A loop that never sleeps keeps its
    /// working set and repeats within a twentieth.
    pub writer: Pace,
    /// Ingest queue capacity (`OverloadPolicy::Reject`).
    pub capacity: usize,
    /// Whether the fast-path repair worker publishes updates at once;
    /// without it an update shows after the next exact iteration.
    pub repair: bool,
}

/// Users per `neighbors_many` request.
pub const BATCH: usize = 32;
/// Every n-th reader request is a `query_profile` with a fresh profile.
pub const ADHOC_EVERY: u64 = 64;
/// Every n-th reader request is a block of single `neighbors` calls.
pub const BLOCK_EVERY: u64 = 256;
pub const BLOCK_LEN: usize = 1024;
/// Engine worker threads while serving, on every workload: the serving
/// engine is reopened from what the batch engine left.
pub const SERVE_THREADS: usize = 1;
/// Times set-up is repeated in one run; the median is reported.
pub const SETUP_REPEATS: usize = 3;
/// Pairs the similarity probe scores.
pub const SIM_PROBE_PAIRS: usize = 1_000_000;

pub const RUN_SECONDS: u64 = 15;

pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "batch-mem-cosine",
            why: "largest cosine world, in memory, 2 engine threads: phase 4 and the kernel carry the run, the store does almost nothing; a kernel or funnel change must show here, a store or codec change must not",
            dataset: Dataset::Recommender,
            store: Store::Mem,
            users: 12_000,
            k: 24,
            partitions: 8,
            shards: 1,
            engine_threads: 2,
            floor: 0.93,
            iterations: 8,
            truth_sample: 300,
            window_share: 0.6,
            writer: Pace::Open(200.0),
            capacity: 1024,
            repair: true,
        },
        Workload {
            name: "batch-disk-spill",
            why: "short Jaccard sets on disk, spilling, 2 cache slots, commit protocol: tuple pipeline, codec, merge, cache and staging carry the run and the kernel is cheap; the out-of-core regime of the paper",
            dataset: Dataset::ZipfShort,
            store: Store::DiskSpill,
            users: 6_000,
            k: 24,
            partitions: 16,
            shards: 1,
            engine_threads: 2,
            floor: 0.80,
            iterations: 8,
            truth_sample: 300,
            window_share: 0.6,
            writer: Pace::Open(200.0),
            capacity: 1024,
            repair: true,
        },
        Workload {
            name: "serve-read-mostly",
            why: "small world behind spawn with repair on: a closed-loop reader beside 200 updates/s, so lookups, the query_profile scan, the query cache, repair and snapshot publish show",
            dataset: Dataset::Recommender,
            store: Store::Mem,
            users: 5_000,
            k: 24,
            partitions: 8,
            shards: 1,
            engine_threads: 1,
            floor: 0.93,
            iterations: 8,
            truth_sample: 300,
            window_share: 1.0,
            writer: Pace::Open(200.0),
            capacity: 1024,
            repair: true,
        },
        Workload {
            name: "serve-write-storm",
            why: "same world behind spawn_sharded, 2 shards, repair off: a closed-loop writer against admission control beside a closed-loop reader; the only run through router, exchange fabric and coherence gather",
            dataset: Dataset::Recommender,
            store: Store::Mem,
            users: 5_000,
            k: 24,
            partitions: 8,
            shards: 2,
            engine_threads: 1,
            floor: 0.93,
            iterations: 8,
            truth_sample: 300,
            window_share: 1.0,
            writer: Pace::Closed,
            capacity: 256,
            repair: false,
        },
    ]
}

/// The 1k-user variant the smoke test runs.
pub fn smoke(mut w: Workload) -> Workload {
    w.users = 1_000;
    w.truth_sample = 100;
    w.window_share = 1.0;
    w
}

pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end: the share of the parent's median it may worsen by.
    pub bound: f64,
    /// A count that repeats exactly for a seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

/// What a user of the system sees. Every workload runs the whole chain
/// (profiles → graph at the floor → served → update visible), so every
/// workload reports every one of these.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("converge_s", "s", "lower", 0.20),
    e2e("recall", "ratio", "higher", 0.05),
    e2e("peak_rss_mib", "MiB", "lower", 0.25),
    e2e("lookup_rps", "req/s", "higher", 0.25),
    e2e("lookup_p50_us", "us", "lower", 0.25),
    e2e("visible_p50_ms", "ms", "lower", 0.25),
    e2e("accepted_ups", "upd/s", "higher", 0.25),
];

/// Single layers, named `<crate>.<metric>`. No bounds: they explain a
/// move in an end-to-end metric, they are not judged themselves.
pub const PER_LAYER: &[Metric] = &[
    layer("datasets.generate_ms", "ms", "lower"),
    layer("baseline.truth_ms", "ms", "lower"),
    layer("sim.score_ns_per_pair", "ns", "lower"),
    layer("sim.bound_ns_per_pair", "ns", "lower"),
    count("sim.entries_per_pair", "count", "lower"),
    count("sim.bytes_per_pair", "B", "lower"),
    layer("core.construct_ms", "ms", "lower"),
    count("core.iters_to_floor", "count", "lower"),
    layer("core.phase1_ms", "ms", "lower"),
    layer("core.phase2_ms", "ms", "lower"),
    layer("core.phase3_ms", "ms", "lower"),
    layer("core.phase4_ms", "ms", "lower"),
    layer("core.phase5_ms", "ms", "lower"),
    layer("core.phase4_ns_per_sim", "ns", "lower"),
    layer("core.phase2_ns_per_tuple", "ns", "lower"),
    count("core.sims_computed", "count", "lower"),
    count("core.sims_skipped", "count", "higher"),
    count("core.sims_pruned", "count", "higher"),
    count("core.sims_avoided_ratio", "ratio", "higher"),
    count("core.tuples_offered", "count", "lower"),
    count("core.tuples_unique", "count", "lower"),
    count("core.tuple_dup_ratio", "ratio", "lower"),
    count("core.partition_ops", "count", "lower"),
    count("core.predicted_ops", "count", "lower"),
    count("core.replication_cost", "count", "lower"),
    layer("core.iter_steady_ms", "ms", "lower"),
    layer("core.resume_ms", "ms", "lower"),
    layer("core.verify_ms", "ms", "lower"),
    count("store.bytes_read", "B", "lower"),
    count("store.bytes_written", "B", "lower"),
    count("store.read_ops", "count", "lower"),
    count("store.write_ops", "count", "lower"),
    count("store.spill_bytes", "B", "lower"),
    count("store.spill_runs", "count", "lower"),
    count("store.merge_passes", "count", "lower"),
    count("store.retries", "count", "lower"),
    count("store.rollbacks", "count", "lower"),
    count("store.write_amp", "ratio", "lower"),
    count("store.at_rest_bytes_per_user", "B", "lower"),
    layer("store.busy_ms", "ms", "lower"),
    layer("store.read_ms", "ms", "lower"),
    layer("store.write_ms", "ms", "lower"),
    layer("store.copy_ms", "ms", "lower"),
    layer("store.profiles.bytes", "B", "lower"),
    layer("store.profiles.ops", "count", "lower"),
    layer("store.edges.bytes", "B", "lower"),
    layer("store.edges.ops", "count", "lower"),
    layer("store.accum.bytes", "B", "lower"),
    layer("store.accum.ops", "count", "lower"),
    layer("store.tuples.bytes", "B", "lower"),
    layer("store.tuples.ops", "count", "lower"),
    layer("store.spill.bytes", "B", "lower"),
    layer("store.spill.ops", "count", "lower"),
    layer("store.knn.bytes", "B", "lower"),
    layer("store.knn.ops", "count", "lower"),
    layer("store.meta.bytes", "B", "lower"),
    layer("store.meta.ops", "count", "lower"),
    layer("store.log.bytes", "B", "lower"),
    layer("store.log.ops", "count", "lower"),
    layer("store.staged.bytes", "B", "lower"),
    layer("store.staged.ops", "count", "lower"),
    layer("store.commit.bytes", "B", "lower"),
    layer("store.commit.ops", "count", "lower"),
    layer("store.exchange.bytes", "B", "lower"),
    layer("store.exchange.ops", "count", "lower"),
    count("shard.exchange_bytes", "B", "lower"),
    count("shard.exchange_tuples", "count", "lower"),
    count("shard.exchange_payloads", "count", "lower"),
    count("shard.io_skew", "ratio", "lower"),
    layer("shard.degraded_reads", "ratio", "lower"),
    layer("serve.spawn_ms", "ms", "lower"),
    layer("serve.neighbors_ns", "ns", "lower"),
    layer("serve.cache_hit_ratio", "ratio", "higher"),
    layer("serve.submit_p50_us", "us", "lower"),
    layer("serve.updates_submitted", "count", "higher"),
    layer("serve.updates_drained", "count", "higher"),
    layer("serve.rejected", "count", "lower"),
    layer("serve.shed", "count", "lower"),
    layer("serve.coalesced", "count", "lower"),
    layer("serve.peak_pending", "count", "lower"),
    layer("serve.queue_failures", "count", "lower"),
    layer("serve.breaker_open_ms", "ms", "lower"),
    layer("serve.repaired_epochs", "count", "higher"),
    layer("serve.exact_epochs", "count", "higher"),
    layer("serve.repaired_visible_share", "ratio", "higher"),
    layer("serve.bg_iterations", "count", "higher"),
    layer("serve.bg_iter_ms", "ms", "lower"),
    layer("serve.stop_ms", "ms", "lower"),
    layer("serve.lookup_p99_us", "us", "lower"),
    layer("serve.adhoc_p50_ms", "ms", "lower"),
    layer("serve.visible_p99_ms", "ms", "lower"),
    layer("serve.drain_s", "s", "lower"),
    layer("serve.peak_rss_mib", "MiB", "lower"),
    layer("gen.late_p99_ms", "ms", "lower"),
    layer("host.cpu_probe_ms", "ms", "lower"),
    layer("host.mem_probe_gbps", "GB/s", "higher"),
    layer("host.probe_drift", "ratio", "lower"),
];

pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let workloads = workloads()
        .iter()
        .map(|w| Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better)),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better)),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "e2e/Cargo.toml",
        "--",
    ];
    Json::obj(vec![
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("e2e")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_definition_meets_the_contract_limits() {
        let ws = workloads();
        assert!((2..=8).contains(&ws.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = ws.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &ws {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s takes the largest bound");
        assert!(benchmark_json().pretty().len() <= 64 * 1024);
    }

    /// `BENCHMARK.json` is generated (`e2e spec`), never edited.
    #[test]
    fn benchmark_json_at_the_repository_root_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(Json::parse(&on_disk).unwrap(), benchmark_json());
    }

    #[test]
    fn smoke_keeps_the_workload_and_shrinks_the_world() {
        for w in workloads() {
            let s = smoke(w.clone());
            assert_eq!((s.name, s.shards, s.store), (w.name, w.shards, w.store));
            assert_eq!(s.users, 1_000);
        }
    }
}
