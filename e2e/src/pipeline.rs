//! One workload, start to finish: generate profiles and ground truth,
//! build the graph to the recall floor, (on disk: drop, resume, scrub),
//! serve it under load while updates stream in, drain, stop, and check
//! everything that came out. Each layer is timed from outside, around
//! its public calls, and read through the values those calls return.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use knn_baseline::recall_at_k;
use knn_core::{EngineConfig, EngineError, IterationReport, KnnEngine};
use knn_datasets::WorkloadConfig;
use knn_graph::{KnnGraph, Neighbor, UserId};
use knn_serve::{spawn, spawn_sharded, AdmissionConfig, RefineOptions, ServiceStats};
use knn_shard::ShardedEngine;
use knn_sim::{
    BoundSketch, ItemId, Measure, ProfileArena, ProfileDelta, ProfileStats, ProfileStore,
    Similarity,
};
use knn_store::backend::read_deltas;
use knn_store::{DiskBackend, IoSnapshot, MemBackend, StorageBackend};

use crate::host;
use crate::json::Json;
use crate::load::{run_reader, run_writer, Handle, ReaderPlan, Rng, Service, WriterPlan};
use crate::spec::{self, Dataset, Store, Workload};
use crate::stats::{median, p50, percentile, supported_tail, windowed_p99, Tail};
use crate::timed::{CallLog, StoreTotals, TimedBackend, KINDS};
use crate::trace::{Span, Tracer};

/// Tuples per bucket before phase 2 spills, on the spill workload (the
/// engine's default is 2^20, which never spills at these sizes), and
/// the byte budget of one scan table. Smaller values spill thousands
/// more runs, and creating and deleting that many files made phase 2's
/// time swing by half with the state of the file system's journal.
const SMALL_SPILL_THRESHOLD: usize = 16_384;
const TUPLE_TABLE_BUDGET: usize = 4 << 20;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for disk backends, inside the checkout.
    pub work_dir: PathBuf,
}

/// Everything one run of one workload produced.
pub struct Outcome {
    pub values: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate breaches, in words.
    pub breaches: Vec<String>,
    /// Digest of the graph after the fixed iteration total; a pure
    /// function of workload and seed.
    pub digest: u64,
    pub detail: Json,
    pub spans: Vec<Span>,
}

/// The engine behind either front-end.
enum Engine {
    Single(KnnEngine),
    Sharded(ShardedEngine),
}

/// What only a sharded iteration reports.
struct ShardExtras {
    per_shard_bytes: Vec<u64>,
    exchange_bytes: u64,
    exchange_tuples: u64,
    exchange_payloads: u64,
}

impl Engine {
    fn iterate(&mut self) -> Result<(IterationReport, Option<ShardExtras>), EngineError> {
        match self {
            Engine::Single(e) => Ok((e.run_iteration()?, None)),
            Engine::Sharded(e) => {
                let r = e.run_iteration()?;
                let extras = ShardExtras {
                    per_shard_bytes: r.per_shard_io.iter().map(IoSnapshot::bytes_total).collect(),
                    exchange_bytes: r.exchange.bytes,
                    exchange_tuples: r.exchange.tuples,
                    exchange_payloads: r.exchange.payloads,
                };
                Ok((r.report, Some(extras)))
            }
        }
    }

    fn graph(&self) -> &KnnGraph {
        match self {
            Engine::Single(e) => e.graph(),
            Engine::Sharded(e) => e.graph(),
        }
    }

    fn io(&self) -> IoSnapshot {
        match self {
            Engine::Single(e) => e.io_snapshot(),
            Engine::Sharded(e) => e.io_snapshot(),
        }
    }

    fn stored_bytes(&self) -> Result<u64, EngineError> {
        Ok(match self {
            Engine::Single(e) => e.backend().storage_usage()?,
            Engine::Sharded(e) => {
                let mut total = 0;
                for shard in e.shards() {
                    total += shard.storage_usage()?;
                }
                total
            }
        })
    }

    /// Durations of the iterations this engine object has run.
    fn iteration_ms(&self) -> Vec<f64> {
        let ms = |r: &IterationReport| r.total_duration().as_secs_f64() * 1e3;
        match self {
            Engine::Single(e) => e.reports().iter().map(ms).collect(),
            Engine::Sharded(e) => e.reports().iter().map(|r| ms(&r.report)).collect(),
        }
    }

    /// The profiles the engine holds durably: what phase 5 has applied
    /// plus what still waits in the update log.
    fn durable_profiles(&self) -> Result<ProfileStore, EngineError> {
        let (mut profiles, pending) = match self {
            Engine::Single(e) => (e.export_profiles()?, read_deltas(e.backend().as_ref())?),
            Engine::Sharded(e) => (e.export_profiles()?, read_deltas(e.router().as_ref())?),
        };
        profiles.apply_deltas(&pending);
        Ok(profiles)
    }
}

fn generate(w: &Workload, seed: u64) -> (ProfileStore, Measure) {
    let config = match w.dataset {
        Dataset::Recommender => WorkloadConfig::recommender(),
        Dataset::ZipfShort => WorkloadConfig::ZipfSets {
            items: 20_000,
            per_user: 8,
            skew: 1.0,
        },
    };
    let built = config.build(w.users, seed);
    (built.profiles, built.measure)
}

/// `count` distinct users, seeded, ascending.
fn sample_users(num_users: usize, count: usize, seed: u64) -> Vec<UserId> {
    let mut rng = Rng(seed ^ 0x7A07_5A3F);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < count.min(num_users) {
        picked.insert(rng.below(num_users) as u32);
    }
    picked.into_iter().map(UserId::new).collect()
}

/// The exact top-`k` of each sampled user, by scoring it against every
/// other user the way `knn_baseline::brute_force_knn` does; all other
/// rows stay empty, which `recall_at_k` skips. One thread: this host
/// gives two busy threads anything between one and two cores' worth, so
/// a two-worker set-up took either 0.12 s or 0.22 s for minutes on end.
fn sampled_truth(
    profiles: &ProfileStore,
    measure: Measure,
    sample: &[UserId],
    k: usize,
) -> KnnGraph {
    let n = profiles.num_users();
    let top_k = |&s: &UserId| {
        let source = profiles.get(s);
        let mut scored: Vec<Neighbor> = (0..n as u32)
            .map(UserId::new)
            .filter(|&d| d != s)
            .map(|d| Neighbor::new(d, measure.score(source, profiles.get(d))))
            .collect();
        if scored.len() > k {
            scored.select_nth_unstable(k);
            scored.truncate(k);
        }
        scored.sort_unstable();
        (s, scored)
    };
    let mut truth = KnnGraph::new(n, k);
    for (user, row) in sample.iter().map(top_k) {
        truth
            .set_neighbors(user, row)
            .expect("a sorted, self-free, k-bounded row");
    }
    truth
}

/// FNV-1a over every edge's target and score bits, in row order.
fn digest(graph: &KnnGraph) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u32| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in 0..graph.num_vertices() as u32 {
        for n in graph.neighbors(UserId::new(v)) {
            eat(n.id.raw());
            eat(n.sim.to_bits());
        }
        eat(u32::MAX);
    }
    hash
}

/// Times `score_ref` and `upper_bound_ref` over seeded pairs of the
/// workload's own profiles: (score ns, bound ns, entries, bytes) per
/// pair. Entries and bytes are computed, not measured: the two entry
/// slices a pair walks plus both sides' precomputed stats and sketch.
fn sim_probe(profiles: &ProfileStore, measure: Measure, seed: u64) -> (f64, f64, f64, f64) {
    let n = profiles.num_users();
    let mut builder = ProfileArena::builder(n, profiles.total_entries());
    for (user, profile) in profiles.iter() {
        let pairs = profile.iter().map(|(i, w)| (i.raw(), w)).collect();
        builder
            .push(user.raw(), pairs)
            .expect("stored profiles are valid rows");
    }
    let arena = builder.finish();
    let mut rng = Rng(seed ^ 0x51B0_7E57);
    let pairs: Vec<(u32, u32)> = (0..spec::SIM_PROBE_PAIRS)
        .map(|_| (rng.below(n) as u32, rng.below(n) as u32))
        .collect();

    let started = Instant::now();
    let mut sum = 0.0f32;
    for &(a, b) in &pairs {
        sum += measure.score_ref(arena.view(a), arena.view(b));
    }
    let score_ns = started.elapsed().as_nanos() as f64 / pairs.len() as f64;
    let started = Instant::now();
    for &(a, b) in &pairs {
        sum += measure.upper_bound_ref(arena.view(a), arena.view(b));
    }
    let bound_ns = started.elapsed().as_nanos() as f64 / pairs.len() as f64;
    std::hint::black_box(sum);

    let entries: usize = pairs
        .iter()
        .map(|&(a, b)| arena.view(a).entries().len() + arena.view(b).entries().len())
        .sum();
    let entries_per_pair = entries as f64 / pairs.len() as f64;
    let fixed = 2 * (std::mem::size_of::<ProfileStats>() + std::mem::size_of::<BoundSketch>());
    let bytes_per_pair =
        entries_per_pair * std::mem::size_of::<(ItemId, f32)>() as f64 + fixed as f64;
    (score_ns, bound_ns, entries_per_pair, bytes_per_pair)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Lays one finished iteration out as spans: the iteration, its five
/// phases back to back from the report's durations, and under each
/// phase one span per stream kind for the store calls that started in
/// it. Calls of one kind run on up to `threads` workers at once, so a
/// kind's span is its summed call time divided by the worker count —
/// its share of the phase's wall clock, not a literal interval.
fn trace_iteration(
    tracer: &Tracer,
    parent: u64,
    started: Instant,
    ended: Instant,
    report: &IterationReport,
    calls: &[crate::timed::Call],
    threads: usize,
) {
    if !tracer.on() {
        return;
    }
    let iteration = tracer.record(
        parent,
        0,
        "engine.iteration",
        tracer.ns(started),
        tracer.ns(ended),
    );
    let mut phase_start = started;
    for (p, &duration) in report.phase_durations.iter().enumerate() {
        let phase_end = phase_start + duration;
        let (lo, hi) = (tracer.ns(phase_start), tracer.ns(phase_end));
        let name = format!("core.phase{}", p + 1);
        let phase = tracer.record(iteration, 0, &name, lo, hi);
        // The last phase also takes what ran after it (commit, persist).
        let last = p + 1 == report.phase_durations.len();
        let mut busy = [0u64; KINDS.len()];
        for call in calls {
            if call.start >= phase_start && (call.start < phase_end || last) {
                busy[call.kind] += call.nanos;
            }
        }
        let mut cursor = lo;
        for (kind, &nanos) in busy.iter().enumerate() {
            if nanos > 0 {
                let end = (cursor + nanos / threads.max(1) as u64).min(hi);
                tracer.record(phase, 0, &format!("store.{}", KINDS[kind]), cursor, end);
                cursor = end;
            }
        }
        phase_start = phase_end;
    }
}

/// Runs one workload. Never panics on a gate breach — breaches are
/// counted as failed operations and reported; only a broken harness
/// invariant or an engine error aborts.
pub fn run(options: &Options) -> Result<Outcome, String> {
    let w = &options.workload;
    let tracer = Tracer::new(options.trace);
    let call_log = options.trace.then(|| Arc::new(CallLog::default()));
    let mut values = Values::default();
    let mut breaches: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let run_started = Instant::now();
    let root = tracer.fresh_id();

    let probe_before = host::probe();

    // ---- set-up: profiles and sampled ground truth, several times ----
    let sample = sample_users(w.users, w.truth_sample, options.seed);
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut truth_ms = Vec::new();
    let mut world = None;
    for _ in 0..spec::SETUP_REPEATS {
        let t0 = Instant::now();
        let (profiles, measure) =
            tracer.scope(root, "setup.generate", |_| generate(w, options.seed));
        let t1 = Instant::now();
        let truth = tracer.scope(root, "setup.truth", |_| {
            sampled_truth(&profiles, measure, &sample, w.k)
        });
        let t2 = Instant::now();
        setup_s.push((t2 - t0).as_secs_f64());
        generate_ms.push(ms(t1 - t0));
        truth_ms.push(ms(t2 - t1));
        world = Some((profiles, measure, truth));
    }
    let (profiles, measure, truth) = world.expect("at least one set-up pass");
    values.set("setup_s", median(&setup_s));
    values.set("datasets.generate_ms", median(&generate_ms));
    values.set("baseline.truth_ms", median(&truth_ms));
    let profile_bytes = (profiles.total_entries() * std::mem::size_of::<(ItemId, f32)>()) as f64;
    let initial_profiles = Arc::new(profiles.clone());

    if options.trace {
        let (score_ns, bound_ns, entries, bytes) = sim_probe(&profiles, measure, options.seed);
        values.set("sim.score_ns_per_pair", score_ns);
        values.set("sim.bound_ns_per_pair", bound_ns);
        values.set("sim.entries_per_pair", entries);
        values.set("sim.bytes_per_pair", bytes);
    }

    // ---- construct ----
    let config_with = |threads: usize| {
        let mut builder = EngineConfig::builder(w.users)
            .k(w.k)
            .num_partitions(w.partitions)
            .measure(measure)
            .threads(threads)
            // Set, not left to the KNN_TEST_PRUNE default, so the
            // environment cannot change what is measured.
            .prune_pairs(true)
            .bound_filter(true)
            .commit_protocol(true)
            .seed(options.seed);
        if w.store == Store::DiskSpill {
            builder = builder
                .cache_slots(2)
                .spill_threshold(SMALL_SPILL_THRESHOLD)
                .tuple_table_memory(Some(TUPLE_TABLE_BUDGET));
        }
        builder.build().map_err(|e| format!("engine config: {e}"))
    };
    let config = config_with(w.engine_threads)?;

    let disk_dir = options
        .work_dir
        .join(format!("{}-{}", w.name, std::process::id()));
    let cleanup = DirGuard(&disk_dir);
    // One backend per shard, opened once: the batch engine writes them,
    // the serving engine reopens them.
    let mut backends: Vec<Arc<dyn StorageBackend>> = Vec::new();
    for shard in 0..w.shards {
        let bare: Arc<dyn StorageBackend> = match w.store {
            Store::Mem => Arc::new(MemBackend::new()),
            Store::DiskSpill => Arc::new(
                DiskBackend::create(disk_dir.join(format!("shard{shard}")))
                    .map_err(|e| format!("working directory: {e}"))?,
            ),
        };
        backends.push(match &call_log {
            Some(log) => TimedBackend::wrap(bare, log),
            None => bare,
        });
    }

    let construct_started = Instant::now();
    let mut engine = tracer.scope(root, "engine.construct", |_| {
        if w.shards == 1 {
            KnnEngine::new_on(config, profiles, Arc::clone(&backends[0]))
                .map(Engine::Single)
                .map_err(|e| format!("engine construction: {e}"))
        } else {
            ShardedEngine::new_on(config, profiles, backends.clone())
                .map(Engine::Sharded)
                .map_err(|e| format!("sharded engine construction: {e}"))
        }
    })?;
    let construct = construct_started.elapsed();
    values.set("core.construct_ms", ms(construct));
    if let Some(log) = &call_log {
        log.take(); // construction's calls belong to no iteration
    }

    // ---- iterate: to the floor, then on to the fixed total ----
    let mut clock = construct;
    let mut converge_s = None;
    let mut to_floor = [Duration::ZERO; 5];
    let mut sims = (0u64, 0u64, 0u64);
    let mut tuples = (0u64, 0u64);
    let mut ops = (0u64, 0u64);
    let mut replication = 0u64;
    let mut steady_ms = Vec::new();
    let mut recall_curve = Vec::new();
    let mut shard_bytes = vec![0u64; w.shards];
    let mut exchange = (0u64, 0u64, 0u64);
    let mut store_totals = StoreTotals::default();
    for _ in 0..w.iterations {
        attempted += 1;
        let started = Instant::now();
        let (report, extras) = engine.iterate().map_err(|e| format!("iteration: {e}"))?;
        let ended = Instant::now();
        clock += ended - started;
        let calls = call_log.as_ref().map(|l| l.take()).unwrap_or_default();
        trace_iteration(
            &tracer,
            root,
            started,
            ended,
            &report,
            &calls,
            w.engine_threads,
        );
        calls.iter().for_each(|c| store_totals.add(c));
        // Recall is evaluated off the clock.
        let recall = recall_at_k(engine.graph(), &truth).mean_recall;
        recall_curve.push(recall);
        if converge_s.is_some() {
            steady_ms.push(ms(ended - started));
        } else {
            for (sum, d) in to_floor.iter_mut().zip(report.phase_durations) {
                *sum += d;
            }
        }
        sims.0 += report.sims_computed;
        sims.1 += report.sims_skipped;
        sims.2 += report.sims_pruned;
        tuples.0 += report.tuples.offered;
        tuples.1 += report.tuples.unique;
        ops.0 += report.cache.total_ops();
        ops.1 += report.predicted.total_ops();
        replication += report.replication_cost;
        if let Some(x) = extras {
            for (sum, b) in shard_bytes.iter_mut().zip(x.per_shard_bytes) {
                *sum += b;
            }
            exchange.0 += x.exchange_bytes;
            exchange.1 += x.exchange_tuples;
            exchange.2 += x.exchange_payloads;
        }
        if converge_s.is_none() && recall >= w.floor {
            converge_s = Some(clock.as_secs_f64());
            values.set("core.iters_to_floor", recall_curve.len() as f64);
        }
    }
    match converge_s {
        Some(s) => {
            values.set("converge_s", s);
        }
        None => {
            failed += 1;
            breaches.push(format!(
                "recall {:.4} is below the floor {} after {} iterations",
                recall_curve.last().copied().unwrap_or(0.0),
                w.floor,
                w.iterations
            ));
        }
    }
    for (p, name) in [
        "core.phase1_ms",
        "core.phase2_ms",
        "core.phase3_ms",
        "core.phase4_ms",
        "core.phase5_ms",
    ]
    .into_iter()
    .enumerate()
    {
        values.set(name, ms(to_floor[p]));
    }
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    // Per-unit costs use the whole batch stage's counts against the
    // whole stage's phase time, so they do not depend on where the
    // floor fell.
    let (phase2_all, phase4_all) = match &engine {
        Engine::Single(e) => phase_totals(e.reports().iter()),
        Engine::Sharded(e) => phase_totals(e.reports().iter().map(|r| &r.report)),
    };
    values.set(
        "core.phase4_ns_per_sim",
        ratio(phase4_all.as_nanos() as u64, sims.0),
    );
    values.set(
        "core.phase2_ns_per_tuple",
        ratio(phase2_all.as_nanos() as u64, tuples.0),
    );
    values.set("core.sims_computed", sims.0 as f64);
    values.set("core.sims_skipped", sims.1 as f64);
    values.set("core.sims_pruned", sims.2 as f64);
    values.set(
        "core.sims_avoided_ratio",
        ratio(sims.1 + sims.2, sims.0 + sims.1 + sims.2),
    );
    values.set("core.tuples_offered", tuples.0 as f64);
    values.set("core.tuples_unique", tuples.1 as f64);
    values.set("core.tuple_dup_ratio", ratio(tuples.0 - tuples.1, tuples.0));
    values.set("core.partition_ops", ops.0 as f64);
    values.set("core.predicted_ops", ops.1 as f64);
    values.set("core.replication_cost", replication as f64);
    values.set("core.iter_steady_ms", median(&steady_ms));

    let io = engine.io();
    let stored = engine
        .stored_bytes()
        .map_err(|e| format!("storage usage: {e}"))?;
    values.set("store.bytes_read", io.bytes_read as f64);
    values.set("store.bytes_written", io.bytes_written as f64);
    values.set("store.read_ops", io.read_ops as f64);
    values.set("store.write_ops", io.write_ops as f64);
    values.set("store.spill_bytes", io.spill_bytes as f64);
    values.set("store.spill_runs", io.spill_runs as f64);
    values.set("store.merge_passes", io.merge_passes as f64);
    values.set("store.retries", io.retries as f64);
    values.set("store.rollbacks", io.rollbacks as f64);
    values.set("store.write_amp", io.bytes_written as f64 / profile_bytes);
    values.set(
        "store.at_rest_bytes_per_user",
        stored as f64 / w.users as f64,
    );
    if w.shards > 1 {
        let mean = shard_bytes.iter().sum::<u64>() as f64 / w.shards as f64;
        let max = shard_bytes.iter().copied().max().unwrap_or(0) as f64;
        values.set("shard.exchange_bytes", exchange.0 as f64);
        values.set("shard.exchange_tuples", exchange.1 as f64);
        values.set("shard.exchange_payloads", exchange.2 as f64);
        values.set("shard.io_skew", if mean > 0.0 { max / mean } else { 0.0 });
    }
    let graph_digest = digest(engine.graph());

    // ---- the serving process reopens what the batch process left ----
    // Drop the engine, resume on the same backends with the serving
    // thread budget, and scrub: the graph must come back unchanged.
    let before_drop = engine.graph().clone();
    drop(engine);
    attempted += 2;
    let serve_config = config_with(spec::SERVE_THREADS)?;
    let started = Instant::now();
    let engine = tracer.scope(root, "engine.resume", |_| {
        if w.shards == 1 {
            KnnEngine::resume_on(serve_config, Arc::clone(&backends[0]))
                .map(Engine::Single)
                .map_err(|e| format!("resume: {e}"))
        } else {
            ShardedEngine::resume_on(serve_config, backends.clone())
                .map(Engine::Sharded)
                .map_err(|e| format!("sharded resume: {e}"))
        }
    })?;
    values.set("core.resume_ms", ms(started.elapsed()));
    let started = Instant::now();
    let scrub = tracer
        .scope(root, "engine.verify", |_| match &engine {
            Engine::Single(e) => e.verify(),
            Engine::Sharded(e) => e.verify(),
        })
        .map_err(|e| format!("verify: {e}"))?;
    values.set("core.verify_ms", ms(started.elapsed()));
    if !scrub.is_clean() {
        failed += 1;
        breaches.push(format!("verify() found issues: {:?}", scrub.issues));
    }
    if engine.graph() != &before_drop {
        failed += 1;
        breaches.push("the resumed graph differs from the one dropped".into());
    }
    drop(before_drop);
    if let Some(log) = &call_log {
        log.take().iter().for_each(|c| store_totals.add(c));
    }

    // Peak memory of building the graph: read before serving adds its
    // snapshot copies (whose count depends on timing) and before the
    // closing probe allocates its buffer.
    if let Some(rss) = host::peak_rss_mib() {
        values.set("peak_rss_mib", rss);
    }

    // ---- serve under load ----
    let window = Duration::from_secs_f64(options.seconds * w.window_share);
    let refine = RefineOptions {
        idle_park: Duration::from_millis(1),
        repair: w.repair,
        admission: AdmissionConfig::bounded(w.capacity),
        ..RefineOptions::default()
    };
    let started = Instant::now();
    let (service, handle) = tracer.scope(root, "serve.spawn", |_| match engine {
        Engine::Single(e) => spawn(e, refine)
            .map(|(s, h)| (Service::Single(s), Handle::Single(h)))
            .map_err(|e| format!("spawn: {e}")),
        Engine::Sharded(e) => spawn_sharded(e, refine)
            .map(|(s, h)| (Service::Sharded(s), Handle::Sharded(h)))
            .map_err(|e| format!("spawn_sharded: {e}")),
    })?;
    values.set("serve.spawn_ms", ms(started.elapsed()));

    let reader_plan = ReaderPlan {
        k: w.k,
        seed: options.seed,
        window,
        profiles: Arc::clone(&initial_profiles),
    };
    let writer_plan = WriterPlan {
        pace: w.writer,
        seed: options.seed,
        window,
        num_users: w.users,
    };
    let window_span = tracer.fresh_id();
    let window_started = Instant::now();
    let (reader, writer) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| run_reader(&service, &reader_plan, &tracer, window_span));
        let writer = scope.spawn(|| run_writer(&service, &writer_plan, &tracer, window_span));
        (
            reader.join().expect("reader thread panicked"),
            writer.join().expect("writer thread panicked"),
        )
    });
    tracer.push(Span {
        id: window_span,
        parent: root,
        req: 0,
        name: "serve.window".into(),
        start_ns: tracer.ns(window_started),
        end_ns: tracer.now_ns(),
    });
    tracer.extend(reader.spans);
    tracer.extend(writer.spans);

    let stop_started = Instant::now();
    let stopped = tracer.scope(root, "serve.stop", |_| match handle {
        Handle::Single(h) => h.stop().map(Engine::Single),
        Handle::Sharded(h) => h.stop().map(Engine::Sharded),
    });
    let stop = stop_started.elapsed();
    // Storm end → every accepted update visible → stop() returned.
    let drain = writer.all_visible_after + stop;
    let stats: ServiceStats = service.stats();
    let engine = stopped.map_err(|e| format!("stop: {e}"))?;

    attempted += reader.requests + writer.accepted.len() as u64 + writer.failed;
    failed += reader.failed + writer.failed + writer.never_visible;
    if reader.failed > 0 {
        breaches.push(format!(
            "{} reader requests errored or returned a malformed answer",
            reader.failed
        ));
    }
    if writer.failed > 0 {
        breaches.push(format!("{} updates were refused or errored", writer.failed));
    }
    if writer.never_visible > 0 {
        breaches.push(format!(
            "{} accepted updates never showed in a served snapshot",
            writer.never_visible
        ));
    }

    let lookup_tail = windowed_p99(&reader.lookups, window.as_secs_f64());
    let visible_tail = windowed_p99(&writer.visible, window.as_secs_f64());
    values.set(
        "lookup_rps",
        reader.requests as f64 / reader.elapsed.as_secs_f64(),
    );
    values.set("lookup_p50_us", p50(&reader.lookups));
    values.set("serve.lookup_p99_us", lookup_tail.value);
    values.set("serve.adhoc_p50_ms", p50(&reader.adhoc));
    values.set("visible_p50_ms", p50(&writer.visible));
    values.set("serve.visible_p99_ms", visible_tail.value);
    values.set(
        "accepted_ups",
        writer.accepted.len() as f64 / writer.storm.as_secs_f64(),
    );
    values.set("serve.drain_s", drain.as_secs_f64());

    values.set("serve.neighbors_ns", median(&reader.block_ns));
    values.set(
        "serve.cache_hit_ratio",
        ratio(stats.cache_hits, stats.cache_hits + stats.cache_misses),
    );
    values.set("serve.submit_p50_us", median(&writer.submit_us));
    values.set("serve.updates_submitted", stats.updates_submitted as f64);
    values.set("serve.updates_drained", stats.updates_drained as f64);
    values.set("serve.rejected", stats.rejected as f64);
    values.set("serve.shed", stats.shed as f64);
    values.set("serve.coalesced", stats.coalesced as f64);
    values.set("serve.peak_pending", stats.peak_pending as f64);
    values.set("serve.queue_failures", stats.queue_failures as f64);
    values.set("serve.breaker_open_ms", stats.breaker_open_ms as f64);
    values.set("serve.repaired_epochs", stats.repaired_epochs as f64);
    values.set(
        "serve.exact_epochs",
        stats.snapshot_epoch.saturating_sub(stats.repaired_epochs) as f64,
    );
    values.set(
        "serve.repaired_visible_share",
        ratio(writer.via_repair, writer.visible.len() as u64),
    );
    // The resumed engine's reports start empty: all of them are
    // background iterations.
    let background_ms = engine.iteration_ms();
    values.set("serve.bg_iterations", background_ms.len() as f64);
    values.set("serve.bg_iter_ms", median(&background_ms));
    values.set("serve.stop_ms", ms(stop));
    values.set(
        "shard.degraded_reads",
        ratio(reader.degraded, reader.batches),
    );
    // Only an open loop can run late; a closed-loop writer reports 0.
    let mut late = writer.late_ms.clone();
    late.sort_by(f64::total_cmp);
    values.set(
        "gen.late_p99_ms",
        if late.is_empty() {
            0.0
        } else {
            percentile(&late, supported_tail(late.len(), 0.99))
        },
    );

    // ---- after stop(): nothing accepted was lost; final recall ----
    let accepted: Vec<ProfileDelta> = writer
        .accepted
        .iter()
        .map(|&(user, item, weight)| ProfileDelta::set(user, item, weight))
        .collect();
    let mut expected = (*initial_profiles).clone();
    expected.apply_deltas(&accepted);
    let durable = engine
        .durable_profiles()
        .map_err(|e| format!("reading back the durable state: {e}"))?;
    let lost = expected
        .iter()
        .filter(|&(user, profile)| durable.get(user) != profile)
        .count() as u64;
    if lost > 0 {
        failed += lost;
        breaches.push(format!(
            "{lost} users' durable profiles (applied + update log) differ from the accepted updates"
        ));
    }
    let final_truth = sampled_truth(&expected, measure, &sample, w.k);
    let final_recall = recall_at_k(engine.graph(), &final_truth).mean_recall;
    values.set("recall", final_recall);
    if final_recall < w.floor {
        failed += 1;
        breaches.push(format!(
            "recall {final_recall:.4} of the graph stop() returned is below the floor {}",
            w.floor
        ));
    }
    if let Some(log) = &call_log {
        log.take().iter().for_each(|c| store_totals.add(c));
        values.set("store.busy_ms", store_totals.busy_ns as f64 / 1e6);
        values.set("store.read_ms", store_totals.read_ns as f64 / 1e6);
        values.set("store.write_ms", store_totals.write_ns as f64 / 1e6);
        values.set("store.copy_ms", store_totals.copy_ns as f64 / 1e6);
        for (kind, &(_, bytes, calls)) in KINDS.iter().zip(&store_totals.kinds) {
            values.set(&format!("store.{kind}.bytes"), bytes as f64);
            values.set(&format!("store.{kind}.ops"), calls as f64);
        }
    }
    drop(engine);
    drop(cleanup);

    if let Some(rss) = host::peak_rss_mib() {
        values.set("serve.peak_rss_mib", rss);
    }
    tracer.push(Span {
        id: root,
        parent: 0,
        req: 0,
        name: "workload".into(),
        start_ns: tracer.ns(run_started),
        end_ns: tracer.now_ns(),
    });
    let probe_after = host::probe();
    values.set("host.cpu_probe_ms", probe_before.cpu_ms);
    values.set("host.mem_probe_gbps", probe_before.mem_gbps);
    values.set("host.probe_drift", host::drift(probe_before, probe_after));

    // An end-to-end metric that is missing or not a positive number is
    // itself a breach: the contract has no null.
    for m in spec::END_TO_END {
        let produced = values.get(m.name).is_some_and(|v| v.is_finite() && v > 0.0);
        // (A missing converge_s was already counted, with its reason.)
        let counted = m.name == "converge_s" && converge_s.is_none();
        if !produced && !counted {
            failed += 1;
            breaches.push(format!("end-to-end metric {} was not produced", m.name));
        }
    }

    let tail_json = |t: Tail| {
        Json::obj(vec![
            ("samples", Json::Num(t.samples as f64)),
            ("windows", Json::Num(t.windows as f64)),
            ("percentile", Json::Num(t.percentile)),
        ])
    };
    let detail = Json::obj(vec![
        ("users", Json::Num(w.users as f64)),
        ("k", Json::Num(w.k as f64)),
        ("partitions", Json::Num(w.partitions as f64)),
        ("shards", Json::Num(w.shards as f64)),
        ("engine_threads", Json::Num(w.engine_threads as f64)),
        ("truth_sample", Json::Num(sample.len() as f64)),
        ("iterations", Json::Num(w.iterations as f64)),
        (
            "recall_curve",
            Json::Arr(recall_curve.iter().map(|&r| Json::num(r)).collect()),
        ),
        ("window_s", Json::Num(window.as_secs_f64())),
        ("wall_s", Json::Num(run_started.elapsed().as_secs_f64())),
        ("lookup_tail", tail_json(lookup_tail)),
        ("visible_tail", tail_json(visible_tail)),
        ("adhoc_samples", Json::Num(reader.adhoc.len() as f64)),
        ("requests", Json::Num(reader.requests as f64)),
        ("updates_accepted", Json::Num(writer.accepted.len() as f64)),
    ]);

    Ok(Outcome {
        values: values.0,
        attempted,
        failed,
        breaches,
        digest: graph_digest,
        detail,
        spans: tracer.take(),
    })
}

/// Metric values by name.
#[derive(Default)]
struct Values(BTreeMap<String, f64>);

impl Values {
    fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            spec::metric(name).is_some(),
            "{name} is not a declared metric"
        );
        self.0.insert(name.to_string(), value);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

fn phase_totals<'a>(reports: impl Iterator<Item = &'a IterationReport>) -> (Duration, Duration) {
    reports.fold((Duration::ZERO, Duration::ZERO), |(p2, p4), r| {
        (p2 + r.phase_durations[1], p4 + r.phase_durations[3])
    })
}

/// Removes a workload's scratch directory when the run ends, however
/// it ends.
struct DirGuard<'a>(&'a Path);

impl Drop for DirGuard<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
    }
}
