//! Interactive-ish exploration of PI-graph traversal heuristics: what
//! actually happens to the two memory slots as a schedule runs.
//!
//! Prints the step-by-step load/evict trace for a small PI graph, then
//! the cost table for each heuristic and slot count on a Table-1
//! replica — a compact way to build intuition for the paper's Table 1.
//!
//! ```sh
//! cargo run --release --example heuristic_explorer
//! ```

use ooc_knn::core::traversal::{simulate_schedule_ops, Heuristic};
use ooc_knn::store::SlotCache;
use ooc_knn::{PiGraph, Table1Dataset};
use std::convert::Infallible;

/// The heuristic's name, marking the one the engine runs.
fn label(h: Heuristic) -> String {
    if h == Heuristic::GreedyChain {
        format!("{h} (engine)")
    } else {
        h.to_string()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small PI graph: hub partition 0, a triangle 1-2-3, self-pair 4.
    let mut pi = PiGraph::new(5);
    for (i, j, w) in [
        (0, 1, 40),
        (0, 2, 10),
        (0, 3, 25),
        (1, 2, 5),
        (2, 3, 8),
        (4, 4, 12),
    ] {
        pi.add_bucket(i, j, w);
    }
    println!("PI graph: 5 partitions, pairs with tuple counts:");
    for ((i, j), w) in pi.iter_buckets() {
        println!("  (R{i} -> R{j}): {w} tuples");
    }

    for h in [
        Heuristic::Sequential,
        Heuristic::DegreeLowHigh,
        Heuristic::GreedyChain,
    ] {
        println!("\n=== {} — step-by-step with 2 slots", label(h));
        let schedule = h.schedule(&pi);
        let mut cache: SlotCache<()> = SlotCache::new(2);
        for step in schedule.iter() {
            let mut events: Vec<String> = Vec::new();
            for (id, pinned) in [(step.a, None), (step.b, Some(step.a))] {
                if id == step.b && step.is_self() {
                    continue;
                }
                let hit = cache.contains(id);
                let before = cache.resident();
                cache.ensure::<Infallible>(id, pinned, |_| Ok(()))?;
                if let Some(p) = before.iter().find(|&&p| !cache.contains(p)) {
                    events.push(format!("evict R{p}"));
                }
                if hit {
                    events.push(format!("hit R{id}"));
                } else {
                    events.push(format!("load R{id}"));
                }
            }
            println!(
                "  process {step}: {:<24} resident: {:?}",
                events.join(", "),
                cache.resident()
            );
        }
        for p in cache.resident().iter().rev() {
            println!("  final flush: unload R{p}");
        }
        cache.flush();
        let c = cache.counters();
        println!(
            "  => {} loads + {} unloads = {} ops",
            c.loads,
            c.unloads,
            c.total_ops()
        );
    }

    // Full cost table on a real replica.
    println!("\n=== Wiki-Vote replica: ops by heuristic and slot count");
    let ds = Table1Dataset::WikiVote;
    let pi = PiGraph::from_network_shape(ds.paper_nodes(), &ds.generate(42));
    print!("{:<22}", "heuristic");
    for slots in [2usize, 3, 4, 8] {
        print!("  {:>10}", format!("{slots} slots"));
    }
    println!();
    for h in Heuristic::ALL {
        print!("{:<22}", label(h));
        for slots in [2usize, 3, 4, 8] {
            let ops = simulate_schedule_ops(&h.schedule(&pi), slots).total_ops();
            print!("  {ops:>10}");
        }
        println!();
    }
    println!("\n(the paper's Table-1 setting is the 2-slot column)");
    Ok(())
}
