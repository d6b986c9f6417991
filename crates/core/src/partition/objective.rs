//! The paper's partitioning objective.
//!
//! For partition `Ri`, `N_in(i)` is the number of **unique source
//! vertices** of in-edges `(s, v), v ∈ Vi`, and `N_out(i)` the number
//! of **unique destination vertices** of out-edges `(v, d), v ∈ Vi`.
//! The objective is `min Σᵢ (N_in(i) + N_out(i))`.
//!
//! Equivalently (and how we compute it): for every vertex `x`,
//! `Σᵢ N_in(i)` counts the number of distinct partitions that contain
//! at least one out-neighbor of `x`, and `Σᵢ N_out(i)` the partitions
//! containing an in-neighbor — the *replication factor* of `x` in each
//! direction. Lower replication means fewer partitions need `x`'s data,
//! hence less phase-4 I/O.

use knn_graph::DiGraph;

use super::Partitioning;

/// Computes `Σᵢ (N_in(i) + N_out(i))` for a partitioning of `graph`.
///
/// # Panics
///
/// Panics if the partitioning covers a different number of users than
/// the graph has vertices.
pub fn replication_cost(graph: &DiGraph, partitioning: &Partitioning) -> u64 {
    assert_eq!(
        graph.num_vertices(),
        partitioning.num_users(),
        "partitioning and graph disagree on n"
    );
    let m = partitioning.num_partitions();
    let n = graph.num_vertices();
    // For each vertex: bitset of partitions containing its
    // out-neighbors (contributes to those partitions' N_in) and its
    // in-neighbors (contributes to N_out).
    let words = m.div_ceil(64);
    let mut out_parts = vec![0u64; n * words];
    let mut in_parts = vec![0u64; n * words];
    for (s, d) in graph.iter_edges() {
        let ps = partitioning.partition_of(s) as usize;
        let pd = partitioning.partition_of(d) as usize;
        // Edge (s, d): d's partition holds an out-neighbor of s —
        // s is a unique in-edge source for partition of d... no:
        // the in-edge (s, d) belongs to partition of d, with source s.
        out_parts[s.index() * words + pd / 64] |= 1 << (pd % 64);
        // The out-edge (s, d) belongs to partition of s, with dest d.
        in_parts[d.index() * words + ps / 64] |= 1 << (ps % 64);
    }
    let popcount = |bits: &[u64]| bits.iter().map(|w| w.count_ones() as u64).sum::<u64>();
    popcount(&out_parts) + popcount(&in_parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_graph::DiGraph;

    /// The per-partition breakdown `(N_in(i), N_out(i))` by hash sets:
    /// the slow oracle `replication_cost` must sum to.
    fn per_partition_counts(graph: &DiGraph, partitioning: &Partitioning) -> Vec<(u64, u64)> {
        assert_eq!(graph.num_vertices(), partitioning.num_users());
        let m = partitioning.num_partitions();
        let mut in_sources: Vec<std::collections::HashSet<u32>> =
            vec![std::collections::HashSet::new(); m];
        let mut out_dests: Vec<std::collections::HashSet<u32>> =
            vec![std::collections::HashSet::new(); m];
        for (s, d) in graph.iter_edges() {
            let pd = partitioning.partition_of(d) as usize;
            let ps = partitioning.partition_of(s) as usize;
            // (s, d) is an in-edge of partition(d) with source s,
            // and an out-edge of partition(s) with destination d.
            in_sources[pd].insert(s.raw());
            out_dests[ps].insert(d.raw());
        }
        (0..m)
            .map(|i| (in_sources[i].len() as u64, out_dests[i].len() as u64))
            .collect()
    }

    fn two_partition(assignment: Vec<u32>) -> Partitioning {
        Partitioning::from_assignment(assignment, 2).unwrap()
    }

    #[test]
    fn fast_path_matches_per_partition_breakdown() {
        let g = DiGraph::from_edges(
            6,
            [
                (0, 1),
                (0, 4),
                (1, 2),
                (2, 0),
                (3, 5),
                (4, 3),
                (5, 1),
                (5, 0),
            ],
        )
        .unwrap();
        for assignment in [
            vec![0, 0, 0, 1, 1, 1],
            vec![0, 1, 0, 1, 0, 1],
            vec![1, 1, 0, 0, 1, 0],
        ] {
            let p = two_partition(assignment);
            let breakdown = per_partition_counts(&g, &p);
            let total: u64 = breakdown.iter().map(|&(a, b)| a + b).sum();
            assert_eq!(replication_cost(&g, &p), total);
        }
    }

    #[test]
    fn clustered_assignment_beats_scattered() {
        // Two 3-cliques (directed both ways) joined by one edge.
        let mut edges = Vec::new();
        for &(a, b) in &[(0, 1), (1, 2), (0, 2)] {
            edges.push((a, b));
            edges.push((b, a));
        }
        for &(a, b) in &[(3, 4), (4, 5), (3, 5)] {
            edges.push((a, b));
            edges.push((b, a));
        }
        edges.push((2, 3));
        let g = DiGraph::from_edges(6, edges).unwrap();
        let clustered = two_partition(vec![0, 0, 0, 1, 1, 1]);
        let scattered = two_partition(vec![0, 1, 0, 1, 0, 1]);
        assert!(
            replication_cost(&g, &clustered) < replication_cost(&g, &scattered),
            "clustered {} vs scattered {}",
            replication_cost(&g, &clustered),
            replication_cost(&g, &scattered)
        );
    }

    #[test]
    fn empty_graph_costs_zero() {
        let g = DiGraph::new(4);
        let p = two_partition(vec![0, 0, 1, 1]);
        assert_eq!(replication_cost(&g, &p), 0);
    }

    #[test]
    fn single_edge_costs_two() {
        // One edge (0,1): source 0 is one unique in-source for
        // partition(1); dest 1 is one unique out-dest for partition(0).
        let g = DiGraph::from_edges(2, [(0, 1)]).unwrap();
        let p = Partitioning::from_assignment(vec![0, 1], 2).unwrap();
        assert_eq!(replication_cost(&g, &p), 2);
        let same = Partitioning::from_assignment(vec![0, 0], 1).unwrap();
        assert_eq!(replication_cost(&g, &same), 2);
    }

    #[test]
    fn many_partition_bitset_path_works() {
        // m > 64 exercises the multi-word bitset.
        let n = 130;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let g = DiGraph::from_edges(n, edges).unwrap();
        let assignment: Vec<u32> = (0..n as u32).collect();
        let p = Partitioning::from_assignment(assignment, n).unwrap();
        // Chain: each vertex except ends has one in + one out partner,
        // each in its own partition: cost = 2*(n-1).
        assert_eq!(replication_cost(&g, &p), 2 * (n as u64 - 1));
    }
}
