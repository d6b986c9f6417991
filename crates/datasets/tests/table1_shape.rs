//! Guards the headline reproduction: the Table-1 simulation on the
//! calibrated replicas must keep the paper's shape. Uses the smallest
//! dataset so the check stays fast in debug builds; the full six-row
//! table is exercised by the `table1` bench binary.

use knn_core::traversal::{simulate_schedule_ops, Heuristic};
use knn_core::PiGraph;
use knn_datasets::Table1Dataset;

fn ops(pi: &PiGraph, h: Heuristic) -> u64 {
    simulate_schedule_ops(&h.schedule(pi), 2).total_ops()
}

#[test]
fn general_relativity_replica_keeps_the_paper_shape() {
    let ds = Table1Dataset::GeneralRelativity;
    let row = ds.paper_row();
    let edges = ds.generate(42);
    let pi = PiGraph::from_network_shape(row.nodes, &edges);

    let seq = ops(&pi, Heuristic::Sequential);
    let hi = ops(&pi, Heuristic::DegreeHighLow);
    let lo = ops(&pi, Heuristic::DegreeLowHigh);

    // Absolute magnitude: within 15% of the paper's sequential count
    // (the 2|E| term is matched exactly; pivot activity is approximate).
    let rel = (seq as f64 - row.seq_ops as f64).abs() / row.seq_ops as f64;
    assert!(
        rel < 0.15,
        "sequential ops {seq} vs paper {} ({rel:.3})",
        row.seq_ops
    );

    // Ordering: degree-based beats sequential, as in every paper row.
    assert!(hi < seq, "high-low {hi} must beat sequential {seq}");
    assert!(lo < seq, "low-high {lo} must beat sequential {seq}");

    // Savings magnitude: inside the paper's "5-15%" band (±few points).
    let saving = (seq - lo) as f64 / seq as f64;
    assert!(
        (0.03..=0.20).contains(&saving),
        "low-high saving {saving:.3} outside the plausible band"
    );
}

#[test]
fn lower_bound_of_the_op_model_holds_on_replicas() {
    // Any 2-slot schedule costs at least 2 ops per unordered pair
    // minus chaining reuse, and at least one load+unload per partition
    // that appears; the sequential pivot model lands near
    // 2·pairs + 2·active-pivots. Sanity-check the bound.
    let ds = Table1Dataset::GeneralRelativity;
    let row = ds.paper_row();
    let pi = PiGraph::from_network_shape(row.nodes, &ds.generate(7));
    let seq = ops(&pi, Heuristic::Sequential);
    let pairs = pi.num_pairs() as u64;
    assert!(
        seq >= 2 * pairs,
        "ops {seq} below the 2·pairs floor {}",
        2 * pairs
    );
    assert!(
        seq <= 2 * pairs + 2 * row.nodes as u64,
        "ops {seq} above the pivot ceiling"
    );
}

#[test]
fn extension_heuristics_never_lose_to_sequential_on_replicas() {
    let ds = Table1Dataset::GeneralRelativity;
    let row = ds.paper_row();
    let pi = PiGraph::from_network_shape(row.nodes, &ds.generate(11));
    let seq = ops(&pi, Heuristic::Sequential);
    for h in [Heuristic::GreedyChain, Heuristic::WeightAware] {
        assert!(ops(&pi, h) <= seq, "{h} lost to sequential");
    }
}

#[test]
fn replicas_concentrate_degree_mass_like_core_periphery_networks() {
    // The replica calibration relies on a small core covering most
    // edges; the in-degree share held by the top 5% of vertices is an
    // independent probe of that structure. An equally-sized
    // Erdős–Rényi graph must concentrate far less of it.
    use knn_graph::generators::erdos_renyi;
    use knn_graph::DiGraph;

    let ds = Table1Dataset::GeneralRelativity;
    let row = ds.paper_row();
    let top_share = |edges: &[(u32, u32)]| {
        let g = DiGraph::from_undirected_edges(row.nodes, edges.to_vec()).unwrap();
        let mut degrees = g.in_degrees();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top: usize = degrees[..row.nodes / 20].iter().sum();
        top as f64 / degrees.iter().sum::<usize>() as f64
    };
    let replica = top_share(&ds.generate(42));
    let er = top_share(&erdos_renyi(row.nodes, row.edges, 42));
    assert!(
        replica > 1.5 * er,
        "replica top-5% in-degree share {replica:.3} vs ER {er:.3}"
    );
}
