//! Locality-aware partitioner: pack the pre-pass clusters into `m`
//! balanced partitions.

use std::sync::Arc;

use knn_cluster::ClusterAssignment;
use knn_graph::DiGraph;

use crate::partition::Partitioning;
use crate::EngineError;

/// Packs the users of a [`ClusterAssignment`] into `m` balanced
/// partitions, keeping each cluster's users together wherever the
/// balance cap `⌈n/m⌉` allows.
///
/// Unlike the greedy partitioner, this one ignores the interaction
/// graph entirely: the cluster labels already encode profile locality,
/// and packing by label is what shrinks cross-partition tuple volume.
/// The algorithm is pure and seedless:
///
/// 1. split every cluster (members ascending) into chunks of at most
///    `⌈n/m⌉` users;
/// 2. place chunks largest-first (ties → lower cluster, then lower
///    chunk index) into the partition with the most free space (ties →
///    lowest partition index) — classic LPT packing;
/// 3. while any partition is empty and `m ≤ n`, move one user out of a
///    largest partition — the cluster splitter can therefore never
///    produce an empty partition silently.
///
/// Deterministic by construction: no RNG, no thread-dependent state.
pub struct ClusterPartitioner {
    clusters: Arc<ClusterAssignment>,
}

impl ClusterPartitioner {
    /// Builds a partitioner over a concrete cluster assignment.
    pub fn new(clusters: Arc<ClusterAssignment>) -> Self {
        ClusterPartitioner { clusters }
    }

    /// Packs the clusters into `m` balanced partitions. `graph` is
    /// only checked to cover the same users as the assignment.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] if the user counts disagree or
    /// unless `1 ≤ m ≤ max(n, 1)`.
    pub fn partition(&self, graph: &DiGraph, m: usize) -> Result<Partitioning, EngineError> {
        if self.clusters.num_users() != graph.num_vertices() {
            return Err(EngineError::config(format!(
                "cluster assignment covers {} users but the graph has {} vertices",
                self.clusters.num_users(),
                graph.num_vertices()
            )));
        }
        pack_clusters(&self.clusters, m)
    }
}

/// The packing core (see [`ClusterPartitioner`] for the algorithm).
fn pack_clusters(clusters: &ClusterAssignment, m: usize) -> Result<Partitioning, EngineError> {
    let n = clusters.num_users();
    if m == 0 || m > n.max(1) {
        return Err(EngineError::config(format!(
            "cluster packing needs 1..={} partitions, got {m}",
            n.max(1)
        )));
    }
    let cap = n.div_ceil(m);

    // 1. Chunk every cluster at the balance cap.
    let members = clusters.members();
    let mut chunks: Vec<(u32, u32, Vec<u32>)> = Vec::new(); // (cluster, chunk idx, users)
    for (c, users) in members.iter().enumerate() {
        for (i, chunk) in users.chunks(cap).enumerate() {
            chunks.push((c as u32, i as u32, chunk.to_vec()));
        }
    }

    // 2. LPT packing: largest chunk first into the partition with the
    // most free space. If a partition fits the chunk whole, the
    // max-free partition is one such; when none does, the chunk splits
    // across the freest partitions (Σ free = m·cap − placed ≥
    // remaining, so placement always succeeds).
    chunks.sort_by(|a, b| {
        b.2.len()
            .cmp(&a.2.len())
            .then(a.0.cmp(&b.0))
            .then(a.1.cmp(&b.1))
    });
    let mut assignment = vec![0u32; n];
    let mut sizes = vec![0usize; m];
    for (_, _, users) in &chunks {
        let mut rest: &[u32] = users;
        while !rest.is_empty() {
            let mut target = 0usize;
            let mut best_free = 0usize;
            for (p, &size) in sizes.iter().enumerate() {
                let free = cap - size;
                if free > best_free {
                    best_free = free;
                    target = p;
                }
            }
            if best_free == 0 {
                return Err(EngineError::config(
                    "cluster packing overflow (internal invariant violated)",
                ));
            }
            let take = rest.len().min(best_free);
            for &u in &rest[..take] {
                assignment[u as usize] = target as u32;
            }
            sizes[target] += take;
            rest = &rest[take..];
        }
    }

    // 3. No silent empties: m ≤ n guarantees a donor exists.
    while let Some(empty) = sizes.iter().position(|&s| s == 0) {
        let donor = (0..m)
            .max_by_key(|&p| (sizes[p], std::cmp::Reverse(p)))
            .expect("m ≥ 1");
        if sizes[donor] <= 1 {
            return Err(EngineError::config(
                "cluster packing cannot fill every partition (m > n?)",
            ));
        }
        // Move the donor's highest user id (deterministic pick).
        let moved = assignment
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &p)| p as usize == donor)
            .map(|(u, _)| u)
            .expect("donor partition is non-empty");
        assignment[moved] = empty as u32;
        sizes[donor] -= 1;
        sizes[empty] += 1;
    }

    Partitioning::from_assignment(assignment, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::assert_balanced;
    use knn_cluster::ClusterAssignment;

    fn clusters(labels: Vec<u32>, k: u32) -> Arc<ClusterAssignment> {
        Arc::new(ClusterAssignment::new(labels, k).unwrap())
    }

    fn graph(n: usize) -> DiGraph {
        DiGraph::new(n)
    }

    #[test]
    fn small_clusters_stay_whole() {
        // 4 clusters of 3 users into m=4, cap 3: one cluster per
        // partition, no cluster split.
        let c = clusters((0..12).map(|u| u / 3).collect(), 4);
        let p = ClusterPartitioner::new(Arc::clone(&c))
            .partition(&graph(12), 4)
            .unwrap();
        assert_balanced(&p);
        for users in (0..4u32).map(|i| p.users_of(i)) {
            let labels: Vec<u32> = users.iter().map(|u| c.label_of(u.raw())).collect();
            assert!(labels.windows(2).all(|w| w[0] == w[1]), "cluster split");
        }
    }

    #[test]
    fn oversized_cluster_splits_deterministically() {
        // One cluster of 10 into m=3, cap 4: must split into 4+4+2.
        let c = clusters(vec![0; 10], 1);
        let part = ClusterPartitioner::new(Arc::clone(&c));
        let a = part.partition(&graph(10), 3).unwrap();
        let b = part.partition(&graph(10), 3).unwrap();
        assert_eq!(a, b);
        assert_balanced(&a);
        assert!((0..3u32).all(|i| !a.users_of(i).is_empty()));
    }

    #[test]
    fn no_partition_left_empty() {
        // 2 clusters of 4 into m=4, cap 2 → 4 chunks, all partitions
        // busy. And a skewed case: 1 cluster of 7 + 1 of 1, m=4.
        for (labels, k, m) in [
            ((0..8).map(|u| u / 4).collect::<Vec<u32>>(), 2, 4),
            (vec![0, 0, 0, 0, 0, 0, 0, 1], 2, 4),
            ((0..5).map(|_| 0).collect(), 1, 5),
        ] {
            let n = labels.len();
            let p = ClusterPartitioner::new(clusters(labels, k))
                .partition(&graph(n), m)
                .unwrap();
            assert_balanced(&p);
            for i in 0..m as u32 {
                assert!(!p.users_of(i).is_empty(), "partition {i} empty");
            }
        }
    }

    #[test]
    fn mismatched_user_counts_rejected() {
        let c = clusters(vec![0, 0, 0], 1);
        assert!(ClusterPartitioner::new(c).partition(&graph(4), 2).is_err());
    }

    #[test]
    fn invalid_m_rejected() {
        let c = clusters(vec![0, 1], 2);
        let part = ClusterPartitioner::new(c);
        assert!(part.partition(&graph(2), 0).is_err());
        assert!(part.partition(&graph(2), 3).is_err(), "m > n");
        assert!(part.partition(&graph(2), 2).is_ok());
    }
}
