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
            let row = a.neighbors(UserId::new(v));
            prop_assert_eq!(row.len(), expect);
            let mut ids: Vec<u32> = row.iter().map(|nb| nb.id.raw()).collect();
            prop_assert!(!ids.contains(&v), "self-loop at {}", v);
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), expect, "duplicate neighbor at {}", v);
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

/// The K-draw sampler still draws uniformly: at n = 10 000 every
/// in-degree is a sum of ~Binomial(n − 1, K / (n − 1)) draws, so its
/// mean is exactly K and its max stays far below 3K. A sampler biased
/// toward its pool's head (e.g. one that stopped re-permuting) piles
/// thousands of in-edges onto a few vertices.
#[test]
fn random_init_in_degrees_stay_uniform_at_scale() {
    let (n, k) = (10_000usize, 10usize);
    let g = KnnGraph::random_init(n, k, 3);
    let in_deg = g.to_digraph().in_degrees();
    let mean = in_deg.iter().sum::<usize>() as f64 / n as f64;
    let max = *in_deg.iter().max().unwrap();
    assert_eq!(mean, k as f64);
    assert!(max < 3 * k, "max in-degree {max} >= 3K");
}

/// The nested-`Vec` semantics of [`KnnGraph::insert`], the model the
/// paged rows are checked against.
fn model_insert(list: &mut Vec<Neighbor>, k: usize, cand: Neighbor) -> bool {
    let place = |list: &mut Vec<Neighbor>| {
        let at = list.partition_point(|n| n.beats(&cand));
        list.insert(at, cand);
    };
    if let Some(pos) = list.iter().position(|n| n.id == cand.id) {
        if !cand.beats(&list[pos]) {
            return false;
        }
        list.remove(pos);
    } else if list.len() == k {
        if !cand.beats(list.last().unwrap()) {
            return false;
        }
        list.pop();
    }
    place(list);
    true
}

/// The nested-`Vec` semantics of [`KnnGraph::rescore_neighbor`].
fn model_rescore(list: &mut Vec<Neighbor>, target: UserId, sim: f32) -> bool {
    let Some(pos) = list.iter().position(|n| n.id == target) else {
        return false;
    };
    if list[pos].sim.to_bits() == sim.to_bits() {
        return false;
    }
    list.remove(pos);
    let cand = Neighbor::new(target, sim);
    let at = list.partition_point(|n| n.beats(&cand));
    list.insert(at, cand);
    true
}

fn assert_matches(g: &KnnGraph, model: &[Vec<Neighbor>]) -> proptest::CaseResult {
    prop_assert_eq!(g.num_vertices(), model.len());
    for (v, list) in model.iter().enumerate() {
        prop_assert_eq!(
            g.neighbors(UserId::new(v as u32)),
            list.as_slice(),
            "row {}",
            v
        );
    }
    prop_assert_eq!(g.num_edges(), model.iter().map(Vec::len).sum::<usize>());
    let edges: Vec<(UserId, Neighbor)> = g.iter_edges().collect();
    let expected: Vec<(UserId, Neighbor)> = model
        .iter()
        .enumerate()
        .flat_map(|(v, list)| list.iter().map(move |&nb| (UserId::new(v as u32), nb)))
        .collect();
    prop_assert_eq!(edges, expected);
    Ok(())
}

/// Vertex counts around the page size: empty, one vertex, a page short
/// of, exactly at and just past a boundary, and a ragged last page.
const SIZES: [usize; 7] = [
    0,
    1,
    KnnGraph::PAGE_ROWS - 1,
    KnnGraph::PAGE_ROWS,
    KnnGraph::PAGE_ROWS + 1,
    2 * KnnGraph::PAGE_ROWS,
    3 * KnnGraph::PAGE_ROWS + 5,
];

proptest! {
    /// Random edits against a `Vec<Vec<Neighbor>>` model, with clones
    /// taken at random points: every edit answers as the model does,
    /// and every clone keeps its contents through the writes after it.
    #[test]
    fn paged_rows_match_a_nested_model_and_clones_keep_their_rows(
        size in 0usize..SIZES.len(),
        k in 1usize..5,
        ops in proptest::collection::vec(
            (0u8..4, 0u32..1_000, 0u32..1_000, -1.0f32..1.0, 0u8..10),
            0..300,
        ),
    ) {
        let n = SIZES[size];
        let mut g = KnnGraph::new(n, k);
        let mut model: Vec<Vec<Neighbor>> = vec![Vec::new(); n];
        let mut clones: Vec<(KnnGraph, Vec<Vec<Neighbor>>)> = Vec::new();
        for (op, v, t, sim, roll) in ops {
            if roll == 0 {
                clones.push((g.clone(), model.clone()));
            }
            if n < 2 {
                continue;
            }
            let v = UserId::new(v % n as u32);
            let t = UserId::new(t % n as u32);
            let row = &mut model[v.index()];
            match op {
                0 if v != t => {
                    let cand = Neighbor::new(t, sim);
                    prop_assert_eq!(g.insert(v, cand), model_insert(row, k, cand));
                }
                1 => prop_assert_eq!(g.rescore_neighbor(v, t, sim), model_rescore(row, t, sim)),
                2 if v != t => {
                    let cand = Neighbor::new(t, sim);
                    let listed = row.iter().any(|nb| nb.id == t);
                    let expected = if listed {
                        model_rescore(row, t, sim)
                    } else {
                        model_insert(row, k, cand)
                    };
                    prop_assert_eq!(g.offer_rescored(v, cand), expected);
                }
                3 => {
                    // Up to k consecutive ids after v, unsorted.
                    let len = (t.index() % (k + 1)).min(n - 1);
                    let list: Vec<Neighbor> = (1..=len)
                        .map(|d| {
                            let id = UserId::new(((v.index() + d) % n) as u32);
                            Neighbor::new(id, sim * d as f32 / 7.0)
                        })
                        .collect();
                    g.set_neighbors(v, list.clone()).unwrap();
                    let mut sorted = list;
                    sorted.sort_by(cmp_best_first);
                    *row = sorted;
                }
                _ => {}
            }
            prop_assert_eq!(g.neighbors(v), model[v.index()].as_slice());
        }
        assert_matches(&g, &model)?;
        for (clone, snapshot) in &clones {
            assert_matches(clone, snapshot)?;
        }
        // Equality reads rows only: a graph rebuilt from the model
        // equals the edited one, however its pages were written.
        let mut rebuilt = KnnGraph::new(n, k);
        for (v, list) in model.iter().enumerate() {
            rebuilt.set_neighbors(UserId::new(v as u32), list.clone()).unwrap();
        }
        prop_assert_eq!(&rebuilt, &g);
    }
}
