//! **Experiment E8 — the phase-1 placement ablation.**
//!
//! The engine places users one of two ways, chosen by its clustering
//! switch: greedy placement minimizing the paper's objective
//! `Σ (N_in + N_out)` (the default), or the `knn-cluster` pre-pass's
//! clusters packed into partitions with a cluster-seeded `G(0)`. This
//! experiment runs one engine iteration per variant on the same world
//! and reports the objective, the tuple locality and the partition
//! operations each one buys, plus the constructor's setup time (where
//! the pre-pass runs).
//!
//! Usage: `partitioners [--partitions N] [--seed N] [--users N]`

use std::time::Instant;

use knn_bench::{opt_or, TextTable};
use knn_core::{EngineConfig, KnnEngine};
use knn_datasets::WorkloadConfig;
use knn_store::WorkingDir;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let m: usize = opt_or(&args, "partitions", 16);
    let seed: u64 = opt_or(&args, "seed", 42);
    let n: usize = opt_or(&args, "users", 5000);

    println!("E8 placement ablation (n={n}, m={m}, seed={seed}, one iteration)\n");
    let mut t = TextTable::new(&[
        "clustering",
        "objective",
        "intra frac",
        "pi pairs",
        "part ops",
        "setup time",
        "iter time",
    ]);
    for clustering in [false, true] {
        let workload = WorkloadConfig::recommender().build(n, seed);
        let config = EngineConfig::builder(n)
            .k(10)
            .num_partitions(m)
            .clustering(clustering)
            .measure(workload.measure)
            .seed(seed)
            .build()
            .expect("config");
        let wd = WorkingDir::temp("partitioners").expect("workdir");
        let t0 = Instant::now();
        let mut engine = KnnEngine::new(config, workload.profiles, wd).expect("engine");
        let setup = t0.elapsed();
        let t0 = Instant::now();
        let report = engine.run_iteration().expect("iteration");
        let elapsed = t0.elapsed();
        t.row(&[
            if clustering { "on" } else { "off" }.to_string(),
            report.replication_cost.to_string(),
            format!("{:.3}", report.intra_partition_tuple_fraction()),
            report.schedule_len.to_string(),
            report.cache.total_ops().to_string(),
            format!("{setup:.2?}"),
            format!("{elapsed:.2?}"),
        ]);
        engine.into_working_dir().destroy().expect("cleanup");
    }
    t.print();
    println!("\nexpected shape: clustering raises the intra-partition tuple fraction and,");
    println!("from its cluster-seeded G(0), lowers the objective; part ops match while");
    println!("the PI graph is complete (pi pairs = m(m+1)/2).");
}
