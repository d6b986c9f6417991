//! **Experiment E6 — future work: "more heuristics for the PI graph
//! traversal".**
//!
//! Extends Table 1 in the direction the paper proposes: the
//! greedy-chain heuristic (the engine's schedule) over a sweep of
//! PI-graph *families* (Erdős–Rényi, Barabási–Albert, Watts–Strogatz,
//! core–periphery) to show where degree-based ordering pays off — the
//! savings grow with degree skew and vanish on degree-regular
//! structures. The Table-1 replicas with the same columns are
//! `table1 --extended`.
//!
//! Usage: `heuristics [--nodes N] [--edges N] [--seed N] [--slots N]`

use knn_bench::{opt_or, pct, TextTable};
use knn_core::traversal::{simulate_schedule_ops, Heuristic};
use knn_core::PiGraph;
use knn_graph::generators::{
    barabasi_albert, core_periphery, erdos_renyi, watts_strogatz, CorePeripheryConfig,
};

fn ops_row(name: &str, n: usize, pairs: &[(u32, u32)], slots: usize, t: &mut TextTable) {
    let pi = PiGraph::from_network_shape(n, pairs);
    let ops = |h: Heuristic| simulate_schedule_ops(&h.schedule(&pi), slots).total_ops() as f64;
    let seq = ops(Heuristic::Sequential);
    let mut cells = vec![name.to_string(), pairs.len().to_string(), format!("{seq}")];
    for h in [
        Heuristic::DegreeHighLow,
        Heuristic::DegreeLowHigh,
        Heuristic::GreedyChain,
    ] {
        cells.push(format!("{} ({})", ops(h), pct(ops(h), seq)));
    }
    t.row(&cells);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = opt_or(&args, "nodes", 5000);
    let e: usize = opt_or(&args, "edges", 25_000);
    let seed: u64 = opt_or(&args, "seed", 42);
    let slots: usize = opt_or(&args, "slots", 2);

    println!("E6 heuristic ablation (slots={slots}, seed={seed})");
    println!("\nsynthetic PI-graph families (n={n}, |E|={e})\n");
    let mut t = TextTable::new(&[
        "family",
        "pairs",
        "seq",
        "high-low",
        "low-high",
        "greedy-chain",
    ]);
    ops_row("erdos-renyi", n, &erdos_renyi(n, e, seed), slots, &mut t);
    ops_row(
        "barabasi-albert",
        n,
        &barabasi_albert(n, e / n, seed),
        slots,
        &mut t,
    );
    ops_row(
        "watts-strogatz",
        n,
        &watts_strogatz(n, e / n, 0.1, seed),
        slots,
        &mut t,
    );
    ops_row(
        "core-periphery",
        n,
        &core_periphery(
            CorePeripheryConfig::new(n, e, seed)
                .with_core_fraction(0.1)
                .with_p_periphery(0.05),
        ),
        slots,
        &mut t,
    );
    t.print();

    println!("\nexpected shape: ER/WS (degree-regular) show ~no degree-heuristic benefit;");
    println!("BA and core-periphery (skewed) show the paper's 5-15% band; greedy-chain");
    println!("adds boundary reuse on top.");
}
