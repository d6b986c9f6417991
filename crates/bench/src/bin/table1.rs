//! **Experiment T1 — the paper's Table 1.**
//!
//! "# Load/unload operations using PI graph": for six networks, treat
//! the network itself as the PI-graph structure (exactly the paper's
//! framing: *"If the PI graph structure were to resemble these
//! networks"*) and count the partition load/unload operations each
//! traversal heuristic performs with two memory slots.
//!
//! The six graphs are seeded synthetic replicas matched to the paper's
//! node/edge counts (DESIGN.md §5); expect the same magnitudes and the
//! same ordering (degree-based beats sequential by ~5–15 %), not
//! digit-exact values.
//!
//! `--extended` adds the engine's own schedule (greedy chain) as a
//! fourth column.
//!
//! Usage: `table1 [--seed N] [--slots N] [--extended]`

use knn_bench::{flag, opt_or, pct, TextTable};
use knn_core::traversal::{simulate_schedule_ops, Heuristic};
use knn_core::PiGraph;
use knn_datasets::Table1Dataset;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = opt_or(&args, "seed", 42);
    let slots: usize = opt_or(&args, "slots", 2);
    let extended = flag(&args, "extended");

    println!("Table 1: # load/unload operations using PI graph (slots={slots}, seed={seed})");
    println!("paper numbers in parentheses; replicas match the paper's n and |E| exactly\n");

    let mut headers = vec!["Dataset", "Nodes", "Edges", "Seq.", "High-Low", "Low-High"];
    if extended {
        headers.push("Engine");
    }
    let mut table = TextTable::new(&headers);

    let mut our_totals = [0u64; 4];
    let mut paper_totals = [0u64; 3];

    for dataset in Table1Dataset::ALL {
        let row = dataset.paper_row();
        let edges = dataset.generate(seed);
        let pi = PiGraph::from_network_shape(row.nodes, &edges);

        let ops = |h: Heuristic| simulate_schedule_ops(&h.schedule(&pi), slots).total_ops();
        let seq = ops(Heuristic::Sequential);
        let high_low = ops(Heuristic::DegreeHighLow);
        let low_high = ops(Heuristic::DegreeLowHigh);

        our_totals[0] += seq;
        our_totals[1] += high_low;
        our_totals[2] += low_high;
        paper_totals[0] += row.seq_ops;
        paper_totals[1] += row.high_low_ops;
        paper_totals[2] += row.low_high_ops;

        let mut cells = vec![
            row.label.to_string(),
            row.nodes.to_string(),
            row.edges.to_string(),
            format!("{seq} ({})", row.seq_ops),
            format!("{high_low} ({})", row.high_low_ops),
            format!("{low_high} ({})", row.low_high_ops),
        ];
        if extended {
            let engine = ops(Heuristic::GreedyChain);
            our_totals[3] += engine;
            cells.push(format!(
                "{engine} ({})",
                pct(engine as f64, low_high as f64)
            ));
        }
        table.row(&cells);
    }
    table.print();

    println!("\nsavings vs sequential (ours | paper):");
    let mut savings = TextTable::new(&["Dataset", "High-Low", "Low-High"]);
    for dataset in Table1Dataset::ALL {
        let row = dataset.paper_row();
        let edges = dataset.generate(seed);
        let pi = PiGraph::from_network_shape(row.nodes, &edges);
        let ops = |h: Heuristic| simulate_schedule_ops(&h.schedule(&pi), slots).total_ops();
        let seq = ops(Heuristic::Sequential) as f64;
        savings.row(&[
            row.label.to_string(),
            format!(
                "{} | {}",
                pct(ops(Heuristic::DegreeHighLow) as f64, seq),
                pct(row.high_low_ops as f64, row.seq_ops as f64)
            ),
            format!(
                "{} | {}",
                pct(ops(Heuristic::DegreeLowHigh) as f64, seq),
                pct(row.low_high_ops as f64, row.seq_ops as f64)
            ),
        ]);
    }
    savings.print();

    println!(
        "\ntotals   ours: seq {} / high-low {} / low-high {}",
        our_totals[0], our_totals[1], our_totals[2]
    );
    println!(
        "        paper: seq {} / high-low {} / low-high {}",
        paper_totals[0], paper_totals[1], paper_totals[2]
    );
    if extended {
        println!(
            "engine (greedy chain): {} ({} vs low-high)",
            our_totals[3],
            pct(our_totals[3] as f64, our_totals[2] as f64)
        );
    }
}
