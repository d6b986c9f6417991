//! Streaming greedy partitioner (LDG-style).

use knn_graph::DiGraph;

use super::Partitioning;
use crate::EngineError;

/// Streaming greedy placement: users are processed hubs-first
/// (descending total degree) and each is placed in the partition — with
/// remaining capacity — already holding the most of its neighbors.
/// Placing a user next to its neighbors is exactly what shrinks the
/// paper's objective: the user stops being a "unique external vertex"
/// for those partitions.
///
/// Deterministic: ties in degree order are broken by a seeded hash,
/// ties in placement by fullest-then-lowest-index partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GreedyPartitioner {
    seed: u64,
}

impl GreedyPartitioner {
    /// Creates a greedy partitioner; `seed` only jitters the
    /// processing order among equal-degree users.
    pub fn new(seed: u64) -> Self {
        GreedyPartitioner { seed }
    }
}

/// A cheap deterministic mix for seeded tie-breaking.
fn mix(seed: u64, x: u64) -> u64 {
    let mut h = seed ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h
}

impl GreedyPartitioner {
    /// Partitions the vertices of `graph` into `m` balanced partitions
    /// (≤ `⌈n/m⌉` users each), deterministically for a given graph and
    /// seed.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] unless `1 ≤ m ≤ max(n, 1)`.
    pub fn partition(&self, graph: &DiGraph, m: usize) -> Result<Partitioning, EngineError> {
        let n = graph.num_vertices();
        if m == 0 || m > n.max(1) {
            return Err(EngineError::config(format!("m={m} invalid for n={n}")));
        }
        let cap = n.div_ceil(m);

        // Combined (in + out) neighbor lists drive placement affinity.
        let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (s, d) in graph.iter_edges() {
            neighbors[s.index()].push(d.raw());
            neighbors[d.index()].push(s.raw());
        }

        // Hubs first: the big neighbor lists constrain placement most.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&u| {
            (
                std::cmp::Reverse(neighbors[u as usize].len()),
                mix(self.seed, u as u64),
            )
        });

        const UNASSIGNED: u32 = u32::MAX;
        let mut assignment = vec![UNASSIGNED; n];
        let mut sizes = vec![0usize; m];
        let mut affinity = vec![0u32; m]; // scratch, reset per user

        for &u in &order {
            for &v in &neighbors[u as usize] {
                let p = assignment[v as usize];
                if p != UNASSIGNED {
                    affinity[p as usize] += 1;
                }
            }
            // Best = max affinity among partitions with space; ties →
            // smallest current size, then lowest index.
            let mut best: Option<(u32, usize, usize)> = None; // (aff, size, idx)
            for p in 0..m {
                if sizes[p] >= cap {
                    continue;
                }
                let key = (affinity[p], sizes[p], p);
                let better = match best {
                    None => true,
                    Some((ba, bs, bi)) => {
                        key.0 > ba || (key.0 == ba && (key.1 < bs || (key.1 == bs && p < bi)))
                    }
                };
                if better {
                    best = Some(key);
                }
            }
            let (_, _, chosen) = best.expect("capacity sums to >= n, a slot always exists");
            assignment[u as usize] = chosen as u32;
            sizes[chosen] += 1;
            // Reset scratch.
            for &v in &neighbors[u as usize] {
                let p = assignment[v as usize];
                if p != UNASSIGNED {
                    affinity[p as usize] = 0;
                }
            }
            affinity[chosen] = 0;
        }

        Partitioning::from_assignment(assignment, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::assert_balanced;
    use crate::partition::objective::replication_cost;
    use knn_graph::generators::{chung_lu, ChungLuConfig};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    #[test]
    fn balanced_and_deterministic() {
        let edges = chung_lu(ChungLuConfig::new(200, 600, 3));
        let g = DiGraph::from_undirected_edges(200, edges).unwrap();
        let a = GreedyPartitioner::new(7).partition(&g, 8).unwrap();
        let b = GreedyPartitioner::new(7).partition(&g, 8).unwrap();
        assert_balanced(&a);
        assert_eq!(a, b);
    }

    #[test]
    fn keeps_cliques_together() {
        // Two directed 4-cliques, no inter-edges: the optimal 2-way
        // partitioning separates them.
        let mut edges = Vec::new();
        for base in [0u32, 4] {
            for a in 0..4 {
                for b in 0..4 {
                    if a != b {
                        edges.push((base + a, base + b));
                    }
                }
            }
        }
        let g = DiGraph::from_edges(8, edges).unwrap();
        let p = GreedyPartitioner::new(0).partition(&g, 2).unwrap();
        for clique in [[0u32, 1, 2, 3], [4, 5, 6, 7]] {
            let parts: std::collections::HashSet<u32> = clique
                .iter()
                .map(|&u| p.partition_of(knn_graph::UserId::new(u)))
                .collect();
            assert_eq!(parts.len(), 1, "clique split across partitions");
        }
    }

    #[test]
    fn beats_random_on_clustered_graphs() {
        let edges = chung_lu(ChungLuConfig::new(300, 1200, 9));
        let g = DiGraph::from_undirected_edges(300, edges).unwrap();
        let greedy = GreedyPartitioner::new(1).partition(&g, 6).unwrap();
        // A seeded shuffle dealt round-robin: balanced, structure-blind.
        let mut order: Vec<usize> = (0..300).collect();
        order.shuffle(&mut StdRng::seed_from_u64(1));
        let mut assignment = vec![0u32; 300];
        for (i, &u) in order.iter().enumerate() {
            assignment[u] = (i % 6) as u32;
        }
        let random = Partitioning::from_assignment(assignment, 6).unwrap();
        let (cg, cr) = (replication_cost(&g, &greedy), replication_cost(&g, &random));
        assert!(cg < cr, "greedy {cg} should beat random {cr}");
    }

    #[test]
    fn handles_empty_graph() {
        let g = DiGraph::new(10);
        let p = GreedyPartitioner::new(0).partition(&g, 3).unwrap();
        assert_balanced(&p);
    }

    #[test]
    fn rejects_invalid_m() {
        let g = DiGraph::new(3);
        assert!(GreedyPartitioner::new(0).partition(&g, 0).is_err());
        assert!(GreedyPartitioner::new(0).partition(&g, 9).is_err());
    }
}
