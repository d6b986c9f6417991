//! Property-based tests for the graph substrate.

use knn_graph::generators::{
    chung_lu, erdos_renyi, erdos_renyi_directed, validate_undirected, watts_strogatz, ChungLuConfig,
};
use knn_graph::neighbor::cmp_best_first;
use knn_graph::{DiGraph, KnnGraph, Neighbor, UserId};
use proptest::prelude::*;

/// Strategy producing a small directed graph as (n, edges).
fn small_digraph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..30).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..80))
    })
}

proptest! {
    #[test]
    fn digraph_transpose_is_involutive((n, edges) in small_digraph()) {
        let mut g = DiGraph::from_edges(n, edges).unwrap();
        g.sort_and_dedup();
        let tt = g.transpose().transpose();
        prop_assert_eq!(g, tt);
    }

    #[test]
    fn digraph_edge_count_matches_iterator((n, edges) in small_digraph()) {
        let mut g = DiGraph::from_edges(n, edges).unwrap();
        g.sort_and_dedup();
        prop_assert_eq!(g.num_edges(), g.iter_edges().count());
    }

    #[test]
    fn in_degrees_sum_to_edge_count((n, edges) in small_digraph()) {
        let mut g = DiGraph::from_edges(n, edges).unwrap();
        g.sort_and_dedup();
        let total: usize = g.in_degrees().iter().sum();
        prop_assert_eq!(total, g.num_edges());
    }

    #[test]
    fn knn_insert_never_violates_invariants(
        k in 1usize..6,
        cands in proptest::collection::vec((0u32..20, 0u32..20, -1.0f32..1.0), 0..200),
    ) {
        let mut g = KnnGraph::new(20, k);
        for (v, t, sim) in cands {
            if v == t { continue; }
            g.insert(UserId::new(v), Neighbor::new(UserId::new(t), sim));
        }
        for v in 0..20u32 {
            let u = UserId::new(v);
            let list = g.neighbors(u);
            prop_assert!(list.len() <= k);
            prop_assert!(list.iter().all(|n| n.id != u));
            // Sorted best-first.
            prop_assert!(list.windows(2).all(|w| cmp_best_first(&w[0], &w[1]) != std::cmp::Ordering::Greater));
            // No duplicate targets.
            let mut ids: Vec<u32> = list.iter().map(|n| n.id.raw()).collect();
            ids.sort_unstable();
            let before = ids.len();
            ids.dedup();
            prop_assert_eq!(ids.len(), before);
        }
    }

    #[test]
    fn knn_insert_matches_sort_truncate_semantics(
        k in 1usize..5,
        cands in proptest::collection::vec((1u32..15, -1.0f32..1.0), 1..60),
    ) {
        // All candidates offered to vertex 0; reference = dedup-by-best
        // then sort best-first then truncate to k.
        let v = UserId::new(0);
        let mut g = KnnGraph::new(15, k);
        for &(t, sim) in &cands {
            g.insert(v, Neighbor::new(UserId::new(t), sim));
        }
        use std::collections::HashMap;
        let mut best: HashMap<u32, Neighbor> = HashMap::new();
        for &(t, sim) in &cands {
            let nb = Neighbor::new(UserId::new(t), sim);
            best.entry(t)
                .and_modify(|cur| {
                    if nb.beats(cur) {
                        *cur = nb;
                    }
                })
                .or_insert(nb);
        }
        let mut reference: Vec<Neighbor> = best.into_values().collect();
        reference.sort_by(cmp_best_first);
        reference.truncate(k);
        prop_assert_eq!(g.neighbors(v), reference.as_slice());
    }

    #[test]
    fn er_generator_contract(n in 2usize..40, seed in 0u64..50) {
        let max = n * (n - 1) / 2;
        let m = max / 2;
        let edges = erdos_renyi(n, m, seed);
        prop_assert_eq!(edges.len(), m);
        prop_assert!(validate_undirected(n, &edges));
    }

    #[test]
    fn er_directed_contract(n in 2usize..30, seed in 0u64..50) {
        let m = n; // sparse
        let edges = erdos_renyi_directed(n, m, seed);
        prop_assert_eq!(edges.len(), m);
        prop_assert!(edges.iter().all(|&(s, d)| s != d && (s as usize) < n && (d as usize) < n));
    }

    #[test]
    fn chung_lu_contract(n in 10usize..100, seed in 0u64..20) {
        let m = n * 2;
        let edges = chung_lu(ChungLuConfig::new(n, m, seed));
        prop_assert_eq!(edges.len(), m);
        prop_assert!(validate_undirected(n, &edges));
    }

    #[test]
    fn watts_strogatz_contract(n in 10usize..80, beta in 0.0f64..1.0, seed in 0u64..20) {
        let k = 2;
        let edges = watts_strogatz(n, k, beta, seed);
        prop_assert_eq!(edges.len(), n * k);
        prop_assert!(validate_undirected(n, &edges));
    }

    #[test]
    fn random_init_deterministic_and_valid(n in 2usize..40, k in 1usize..8, seed in 0u64..20) {
        let a = KnnGraph::random_init(n, k, seed);
        let b = KnnGraph::random_init(n, k, seed);
        prop_assert_eq!(&a, &b);
        let expect = k.min(n - 1);
        for v in 0..n as u32 {
            prop_assert_eq!(a.neighbors(UserId::new(v)).len(), expect);
        }
    }

    #[test]
    fn edge_change_fraction_bounds((n, edges) in small_digraph(), k in 1usize..4, seed in 0u64..5) {
        let _ = edges;
        let a = KnnGraph::random_init(n, k, seed);
        let b = KnnGraph::random_init(n, k, seed + 1);
        let f = a.edge_change_fraction(&b);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert_eq!(a.edge_change_fraction(&a), 0.0);
    }
}
