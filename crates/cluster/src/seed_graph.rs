//! Cluster-seeded initial graphs: `G(0)` built from intra-cluster
//! edges instead of uniform random ones.

use rand::rngs::StdRng;
use rand::SeedableRng;

use knn_graph::sample::draw_unscored;
use knn_graph::{KnnGraph, Neighbor, UserId};

use crate::ClusterAssignment;

/// Builds the cluster-seeded initial graph `G(0)`: every vertex
/// receives `min(k, n-1)` distinct out-neighbors — most drawn from its
/// **own cluster** (seeded shuffle), with `⌈k/3⌉` slots reserved for
/// seeded random users from the full population. All edges carry the
/// [`Neighbor::unscored`] sentinel, exactly like
/// [`KnnGraph::random_init`], so iteration 1's real similarities
/// displace them.
///
/// Seeding `G(0)` inside clusters starts NN-Descent's
/// neighbor-of-neighbor walk where the answers actually live, which is
/// what cuts iterations-to-convergence. The reserved explore slots are
/// load-bearing, not a fallback: a *purely* intra-cluster `G(0)` can be
/// disconnected along cluster boundaries, and since iteration only
/// proposes neighbors-of-neighbors, a vertex whose component holds none
/// of its true neighbors could never find them — the random edges keep
/// the walk mixing across clusters (and also top up small clusters).
/// Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn cluster_seeded_graph(assignment: &ClusterAssignment, k: usize, seed: u64) -> KnnGraph {
    assert!(k > 0, "K must be positive");
    let n = assignment.num_users();
    let mut g = KnnGraph::new(n, k);
    if n <= 1 {
        return g;
    }
    let take = k.min(n - 1);
    // Reserve ~a third of the degree for cross-population edges (at
    // least one whenever the vertex has any intra candidates to
    // displace). A third keeps unstructured workloads — where the
    // clusters carry little signal — no slower to converge than a
    // random G(0).
    let explore = k.div_ceil(3).min(take.saturating_sub(1));
    let intra_take = take - explore;
    // One persistent pool per cluster plus one over the population,
    // drawn with random_init's sampler: O(k) draws per vertex.
    let mut local = assignment.members();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<u32> = (0..n as u32).collect();
    for v in 0..n as u32 {
        let mut list: Vec<Neighbor> = Vec::with_capacity(take);
        // Intra-cluster first.
        let cluster = &mut local[assignment.label_of(v) as usize];
        draw_unscored(cluster, v, intra_take, &mut rng, &mut list);
        // Explore slots plus top-up (small clusters, or k larger than
        // the cluster) from the whole population.
        draw_unscored(&mut pool, v, take, &mut rng, &mut list);
        g.set_neighbors(UserId::new(v), list)
            .expect("cluster-seeded list upholds the KNN invariants");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assignment(labels: Vec<u32>, k: u32) -> ClusterAssignment {
        ClusterAssignment::new(labels, k).unwrap()
    }

    #[test]
    fn respects_knn_invariants() {
        let a = assignment((0..60).map(|u| u % 3).collect(), 3);
        let g = cluster_seeded_graph(&a, 5, 9);
        assert_eq!(g.num_edges(), 60 * 5);
        for v in 0..60u32 {
            let u = UserId::new(v);
            let list = g.neighbors(u);
            assert_eq!(list.len(), 5);
            assert!(list.iter().all(|nb| nb.id != u), "no self-loops");
            assert!(list.iter().all(|nb| nb.is_unscored()));
            let mut ids: Vec<u32> = list.iter().map(|nb| nb.id.raw()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 5, "no duplicates");
        }
    }

    #[test]
    fn prefers_intra_cluster_edges_but_keeps_exploring() {
        // 3 clusters of 20, k=5: explore = ⌈5/3⌉ = 2, so at least 3 of
        // every vertex's 5 edges stay inside its cluster, and across
        // the graph some edge must leave its cluster (the mixing edges
        // that keep G(0) connected).
        let a = assignment((0..60).map(|u| u / 20).collect(), 3);
        let g = cluster_seeded_graph(&a, 5, 4);
        let mut cross_total = 0usize;
        for v in 0..60u32 {
            let cross = g
                .neighbors(UserId::new(v))
                .iter()
                .filter(|nb| a.label_of(nb.id.raw()) != a.label_of(v))
                .count();
            assert!(cross <= 2, "vertex {v} has {cross} cross edges, > explore");
            cross_total += cross;
        }
        assert!(cross_total > 0, "no mixing edges at all");
    }

    #[test]
    fn tops_up_when_cluster_is_too_small() {
        // Cluster 0 = {0}, cluster 1 = everyone else. User 0 has no
        // intra-cluster candidates and must still get k neighbors.
        let mut labels = vec![1u32; 30];
        labels[0] = 0;
        let g = cluster_seeded_graph(&assignment(labels, 2), 4, 8);
        assert_eq!(g.neighbors(UserId::new(0)).len(), 4);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = assignment((0..40).map(|u| u % 4).collect(), 4);
        assert_eq!(
            cluster_seeded_graph(&a, 3, 5),
            cluster_seeded_graph(&a, 3, 5)
        );
        assert_ne!(
            cluster_seeded_graph(&a, 3, 5),
            cluster_seeded_graph(&a, 3, 6)
        );
    }

    proptest::proptest! {
        /// Rows are self-free, duplicate-free and `min(K, n − 1)` long
        /// for any cluster layout, and a pure function of the seed.
        #[test]
        fn rows_are_valid_and_seed_deterministic(
            n in 2usize..60,
            clusters in 1u32..6,
            k in 1usize..9,
            seed in 0u64..20,
        ) {
            let labels = (0..n as u32).map(|u| (u * 7 + 3) % clusters).collect();
            let a = assignment(labels, clusters);
            let g = cluster_seeded_graph(&a, k, seed);
            proptest::prop_assert_eq!(&g, &cluster_seeded_graph(&a, k, seed));
            for v in 0..n as u32 {
                let row = g.neighbors(UserId::new(v));
                let mut ids: Vec<u32> = row.iter().map(|nb| nb.id.raw()).collect();
                proptest::prop_assert!(!ids.contains(&v), "self-loop at {}", v);
                ids.sort_unstable();
                ids.dedup();
                proptest::prop_assert_eq!(ids.len(), k.min(n - 1), "row {}", v);
            }
        }
    }

    /// Both draws stay uniform at scale: with 10 equal clusters of
    /// 1 000, every in-degree is a sum of near-Poisson intra and
    /// explore draws — mean exactly K, max far below 3K.
    #[test]
    fn in_degrees_stay_uniform_at_scale() {
        let (n, k) = (10_000u32, 10usize);
        let a = assignment((0..n).map(|u| u % 10).collect(), 10);
        let g = cluster_seeded_graph(&a, k, 3);
        let in_deg = g.to_digraph().in_degrees();
        let mean = in_deg.iter().sum::<usize>() as f64 / n as f64;
        let max = *in_deg.iter().max().unwrap();
        assert_eq!(mean, k as f64);
        assert!(max < 3 * k, "max in-degree {max} >= 3K");
    }

    #[test]
    fn small_populations_cap_at_n_minus_one() {
        let a = assignment(vec![0, 0, 1], 2);
        let g = cluster_seeded_graph(&a, 10, 1);
        for v in 0..3u32 {
            assert_eq!(g.neighbors(UserId::new(v)).len(), 2);
        }
        let lone = cluster_seeded_graph(&assignment(vec![0], 1), 4, 1);
        assert_eq!(lone.num_edges(), 0);
    }
}
