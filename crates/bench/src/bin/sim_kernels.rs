//! **Experiment S4 — similarity-kernel microbench.**
//!
//! Times every built-in similarity measure over a fixed random pair
//! sample, on three paths:
//!
//! * `unprepared` — the classic `Similarity::score(&Profile, &Profile)`
//!   entry point (per-profile aggregates recomputed per pair);
//! * `prepared` — `Measure::score_prepared` over [`PreparedProfile`]s
//!   (aggregates hoisted to profile load, the phase-4 hot path);
//! * `bound` — the O(1) `Measure::upper_bound` ceiling that the
//!   phase-4 filter evaluates instead of a kernel when it can;
//! * `pair` / `row@L` — the same pairs, grouped in runs of `L`
//!   candidates per source (L = 1, 8, 64, 512), through
//!   `Measure::score_ref` over arena views (one merge per pair) and
//!   through `RowKernel` (source loaded once per run, the phase-4 hot
//!   path). The load is inside the timing, so `row@1` is the kernel's
//!   worst case.
//!
//! Reports ns/pair per measure and the prepared-path speedup. Each
//! group of columns scores the identical pair sample, and the
//! checksums of the paths are asserted equal — the bench doubles as a
//! bit-identity smoke test.
//!
//! Emits one JSON document on stdout (for the BENCH trajectory,
//! committed as `BENCH_sim_kernels.json`) and a human-readable table
//! on stderr.
//!
//! Usage: `sim_kernels [--profiles N] [--pairs N] [--items N]
//! [--avg-len N] [--seed N]`

use std::time::Instant;

use knn_bench::{opt_or, TextTable};
use knn_sim::generators::{clustered_profiles, ClusteredConfig};
use knn_sim::{Measure, PreparedProfile, Profile, ProfileArena, RowKernel, Similarity};

/// Candidates per source row in the `pair` / `row@L` columns.
const RUN_LENGTHS: [usize; 4] = [1, 8, 64, 512];

struct Row {
    measure: &'static str,
    unprepared_ns: f64,
    prepared_ns: f64,
    bound_ns: f64,
    /// Per run length: (pair kernel, row kernel) ns/pair.
    runs: Vec<(f64, f64)>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let num_profiles: usize = opt_or(&args, "profiles", 2000);
    let num_pairs: usize = opt_or(&args, "pairs", 400_000);
    let avg_len: usize = opt_or(&args, "avg-len", 16);
    let seed: u64 = opt_or(&args, "seed", 42);

    eprintln!(
        "S4 sim kernels: profiles={num_profiles}, pairs={num_pairs}, avg_len={avg_len}, \
         seed={seed}"
    );

    // Clustered ratings: realistic overlap structure, mixed lengths.
    let (store, _) = clustered_profiles(
        ClusteredConfig::new(num_profiles, seed)
            .with_clusters(8)
            .with_ratings(avg_len, avg_len / 3),
    );
    let profiles: Vec<Profile> = (0..num_profiles as u32)
        .map(|u| store.get(knn_graph::UserId::new(u)).clone())
        .collect();
    let prepared: Vec<PreparedProfile> = profiles
        .iter()
        .map(|p| PreparedProfile::new(p.clone()))
        .collect();
    let mut builder = ProfileArena::builder(num_profiles, store.total_entries());
    for (u, p) in profiles.iter().enumerate() {
        let pairs = p.iter().map(|(i, w)| (i.raw(), w)).collect();
        builder
            .push(u as u32, pairs)
            .expect("generated profiles are valid rows");
    }
    let arena = builder.finish();

    // Deterministic pair sample (simple LCG; the pairs just need to
    // cover the profile set evenly).
    let mut state = seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let pairs: Vec<(usize, usize)> = (0..num_pairs)
        .map(|_| (next() % num_profiles, next() % num_profiles))
        .collect();

    let started = Instant::now();
    let mut rows: Vec<Row> = Vec::new();
    for measure in Measure::ALL {
        // Unprepared path.
        let t0 = Instant::now();
        let mut sum_unprepared = 0.0f64;
        for &(a, b) in &pairs {
            sum_unprepared += measure.score(&profiles[a], &profiles[b]) as f64;
        }
        let unprepared_ns = t0.elapsed().as_nanos() as f64 / num_pairs as f64;

        // Prepared path.
        let t0 = Instant::now();
        let mut sum_prepared = 0.0f64;
        for &(a, b) in &pairs {
            sum_prepared += measure.score_prepared(&prepared[a], &prepared[b]) as f64;
        }
        let prepared_ns = t0.elapsed().as_nanos() as f64 / num_pairs as f64;

        // The determinism contract, checked in anger on the full
        // sample: both paths sum to the identical value.
        assert_eq!(
            sum_unprepared.to_bits(),
            sum_prepared.to_bits(),
            "{measure}: prepared path diverged from Similarity::score"
        );

        // Bound evaluation (the work a pruned pair costs instead).
        let t0 = Instant::now();
        let mut bound_acc = 0.0f64;
        for &(a, b) in &pairs {
            bound_acc += measure.upper_bound(&prepared[a], &prepared[b]) as f64;
        }
        let bound_ns = t0.elapsed().as_nanos() as f64 / num_pairs as f64;
        std::hint::black_box(bound_acc);

        // The same pair list cut into runs of L candidates per source:
        // one merge per pair against one row load per run.
        let mut kernel = RowKernel::new(measure);
        let mut runs = Vec::new();
        for run in RUN_LENGTHS {
            let t0 = Instant::now();
            let mut sum_pair = 0.0f64;
            for group in pairs.chunks(run) {
                let source = arena.view(group[0].0 as u32);
                for &(_, b) in group {
                    sum_pair += measure.score_ref(source, arena.view(b as u32)) as f64;
                }
            }
            let pair_ns = t0.elapsed().as_nanos() as f64 / num_pairs as f64;

            let t0 = Instant::now();
            let mut sum_row = 0.0f64;
            for group in pairs.chunks(run) {
                kernel.load(arena.view(group[0].0 as u32));
                for &(_, b) in group {
                    sum_row += kernel.score(arena.view(b as u32)) as f64;
                }
            }
            let row_ns = t0.elapsed().as_nanos() as f64 / num_pairs as f64;
            assert_eq!(
                sum_pair.to_bits(),
                sum_row.to_bits(),
                "{measure}: row kernel diverged from score_ref at run length {run}"
            );
            runs.push((pair_ns, row_ns));
        }

        rows.push(Row {
            measure: measure.name(),
            unprepared_ns,
            prepared_ns,
            bound_ns,
            runs,
        });
    }

    let mut headers = vec![
        "measure".to_string(),
        "unprepared ns/pair".to_string(),
        "prepared ns/pair".to_string(),
        "speedup".to_string(),
        "bound ns/pair".to_string(),
    ];
    headers.extend(RUN_LENGTHS.iter().map(|l| format!("pair|row@{l}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = TextTable::new(&header_refs);
    for r in &rows {
        let mut cells = vec![
            r.measure.to_string(),
            format!("{:.1}", r.unprepared_ns),
            format!("{:.1}", r.prepared_ns),
            format!("{:.2}x", r.unprepared_ns / r.prepared_ns),
            format!("{:.1}", r.bound_ns),
        ];
        cells.extend(r.runs.iter().map(|(p, k)| format!("{p:.0}|{k:.0}")));
        table.row(&cells);
    }
    eprintln!("{}", table.render());

    let rows_json: Vec<String> = rows
        .iter()
        .map(|r| {
            let runs: Vec<String> = RUN_LENGTHS
                .iter()
                .zip(&r.runs)
                .map(|(l, (p, k))| {
                    format!(
                        r#"{{"run_length":{l},"pair_ns_per_pair":{p:.2},"row_ns_per_pair":{k:.2}}}"#
                    )
                })
                .collect();
            format!(
                r#"{{"measure":"{}","unprepared_ns_per_pair":{:.2},"prepared_ns_per_pair":{:.2},"speedup":{:.3},"bound_ns_per_pair":{:.2},"runs":[{}]}}"#,
                r.measure,
                r.unprepared_ns,
                r.prepared_ns,
                r.unprepared_ns / r.prepared_ns,
                r.bound_ns,
                runs.join(",")
            )
        })
        .collect();
    println!(
        r#"{{"bench":"sim_kernels","profiles":{num_profiles},"pairs":{num_pairs},"avg_len":{avg_len},"seed":{seed},"wall_s":{:.2},"results":[{}]}}"#,
        started.elapsed().as_secs_f64(),
        rows_json.join(",")
    );
}
