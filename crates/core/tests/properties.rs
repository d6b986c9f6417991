//! Property-based tests for the engine's invariant-bearing pieces.

use knn_cluster::ClusterAssignment;
use knn_core::partition::{objective, ClusterPartitioner, GreedyPartitioner, Partitioning};
use knn_core::topk::TopKAccumulator;
use knn_core::traversal::{simulate_schedule_ops, Heuristic};
use knn_core::PiGraph;
use knn_graph::{DiGraph, KnnGraph, Neighbor, UserId};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (4usize..30).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32).prop_filter("no self-loops", |(a, b)| a != b);
        (Just(n), proptest::collection::vec(edge, 0..60))
    })
}

/// Places `g` the way the engine would with clustering off (greedy
/// from the seed) or on (the cluster packer over a deterministic
/// synthetic cluster assignment, labels derived from the seed).
fn place(clustering: bool, seed: u64, g: &DiGraph, m: usize) -> Partitioning {
    let n = g.num_vertices();
    if clustering {
        let k = ((n as u64 % 4) + 1).min(n.max(1) as u64) as u32;
        let labels: Vec<u32> = (0..n as u64)
            .map(|u| ((u * 31 + seed) % k as u64) as u32)
            .collect();
        ClusterPartitioner::new(std::sync::Arc::new(
            ClusterAssignment::new(labels, k).unwrap(),
        ))
        .partition(g, m)
        .unwrap()
    } else {
        GreedyPartitioner::new(seed).partition(g, m).unwrap()
    }
}

proptest! {
    /// One harness over both placements (greedy with clustering off,
    /// cluster packing with it on): the result is a permutation of
    /// the users, balanced within `⌈n/m⌉`, and byte-identical when the
    /// same placement runs twice with the same seed.
    #[test]
    fn every_partitioner_is_balanced_and_total((n, edges) in arb_graph(), m in 1usize..6, seed in 0u64..20) {
        let m = m.min(n);
        let mut g = DiGraph::from_edges(n, edges).unwrap();
        g.sort_and_dedup();
        for clustering in [false, true] {
            let p = place(clustering, seed, &g, m);
            let cap = n.div_ceil(m);
            let mut seen = vec![false; n];
            for part in 0..m as u32 {
                prop_assert!(p.users_of(part).len() <= cap, "clustering={clustering} unbalanced");
                for u in p.users_of(part) {
                    prop_assert!(!seen[u.index()], "clustering={clustering} duplicated user {u}");
                    seen[u.index()] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s), "clustering={clustering} lost a user");
            // Deterministic per seed: a fresh instance reproduces the
            // assignment exactly (thread counts never enter: both
            // partitioners are single-threaded by construction).
            let again = place(clustering, seed, &g, m);
            prop_assert_eq!(&p, &again, "clustering={} not deterministic", clustering);
        }
    }

    #[test]
    fn objective_lower_bound_holds((n, edges) in arb_graph(), m in 1usize..6, seed in 0u64..10) {
        // Each vertex with out-edges contributes >= 1, same for
        // in-edges; and the cost never exceeds 2x the edge count.
        let m = m.min(n);
        let mut g = DiGraph::from_edges(n, edges).unwrap();
        g.sort_and_dedup();
        let p = GreedyPartitioner::new(seed).partition(&g, m).unwrap();
        let cost = objective::replication_cost(&g, &p);
        let sources = (0..n as u32).filter(|&v| g.out_degree(UserId::new(v)) > 0).count() as u64;
        let sinks = g.in_degrees().iter().filter(|&&d| d > 0).count() as u64;
        prop_assert!(cost >= sources + sinks, "cost {cost} below lower bound");
        prop_assert!(cost <= 2 * g.num_edges() as u64, "cost {cost} above upper bound");
    }

    #[test]
    fn single_partition_cost_is_exactly_active_vertices((n, edges) in arb_graph()) {
        let mut g = DiGraph::from_edges(n, edges).unwrap();
        g.sort_and_dedup();
        let p = Partitioning::from_assignment(vec![0; n], 1).unwrap();
        let cost = objective::replication_cost(&g, &p);
        let sources = (0..n as u32).filter(|&v| g.out_degree(UserId::new(v)) > 0).count() as u64;
        let sinks = g.in_degrees().iter().filter(|&&d| d > 0).count() as u64;
        prop_assert_eq!(cost, sources + sinks);
    }

    #[test]
    fn schedules_cover_all_pairs_exactly_once((n, edges) in arb_graph()) {
        let mut norm: Vec<(u32, u32)> = edges
            .iter()
            .map(|&(a, b)| if a <= b { (a, b) } else { (b, a) })
            .collect();
        norm.sort_unstable();
        norm.dedup();
        let pi = PiGraph::from_network_shape(n, &norm);
        let mut expected: Vec<(u32, u32)> = pi.unordered_pairs();
        expected.extend(pi.self_pairs().into_iter().map(|i| (i, i)));
        expected.sort_unstable();
        for h in Heuristic::ALL {
            let s = h.schedule(&pi);
            prop_assert!(s.first_duplicate().is_none(), "{h} duplicated a pair");
            let mut got: Vec<(u32, u32)> = s.steps().iter().map(|st| st.unordered()).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &expected, "{} coverage mismatch", h);
        }
    }

    #[test]
    fn op_counts_are_conserved((n, edges) in arb_graph(), slots in 2usize..5) {
        let mut norm: Vec<(u32, u32)> = edges
            .iter()
            .map(|&(a, b)| if a <= b { (a, b) } else { (b, a) })
            .collect();
        norm.sort_unstable();
        norm.dedup();
        let pi = PiGraph::from_network_shape(n, &norm);
        for h in Heuristic::ALL {
            let cost = simulate_schedule_ops(&h.schedule(&pi), slots);
            prop_assert_eq!(cost.loads, cost.unloads, "{} leaked residents", h);
            // Each step touches <= 2 partitions: loads <= 2 * steps.
            prop_assert!(cost.loads <= 2 * cost.steps.max(1));
        }
    }

    #[test]
    fn topk_matches_sort_truncate(
        k in 1usize..6,
        cands in proptest::collection::vec((0u32..25, -1.0f32..1.0), 0..80),
    ) {
        let mut acc = TopKAccumulator::new(k);
        for &(id, sim) in &cands {
            acc.offer(Neighbor::new(UserId::new(id), sim));
        }
        // Reference: best score per id, sorted, truncated.
        let mut best: std::collections::HashMap<u32, Neighbor> = std::collections::HashMap::new();
        for &(id, sim) in &cands {
            let nb = Neighbor::new(UserId::new(id), sim);
            best.entry(id)
                .and_modify(|cur| {
                    if nb.beats(cur) {
                        *cur = nb;
                    }
                })
                .or_insert(nb);
        }
        let mut reference: Vec<Neighbor> = best.into_values().collect();
        reference.sort();
        reference.truncate(k);
        prop_assert_eq!(acc.entries(), reference.as_slice());
    }

    /// `offer` tests the k-th entry before it scans for the
    /// candidate's id. Step by step — entry list and return value —
    /// it must match the scan-first implementation it replaced, on
    /// sequences full of repeated ids and tied scores.
    #[test]
    fn topk_offer_matches_the_scan_first_implementation(
        k in 1usize..6,
        cands in proptest::collection::vec((0u32..8, 0u32..5), 0..120),
    ) {
        // The implementation before the early exit, over a bare list.
        fn offer_scan_first(entries: &mut Vec<Neighbor>, k: usize, cand: Neighbor) -> bool {
            if let Some(pos) = entries.iter().position(|n| n.id == cand.id) {
                if cand.beats(&entries[pos]) {
                    entries.remove(pos);
                    let at = entries.partition_point(|n| n.beats(&cand));
                    entries.insert(at, cand);
                    return true;
                }
                return false;
            }
            if entries.len() < k {
                let at = entries.partition_point(|n| n.beats(&cand));
                entries.insert(at, cand);
                return true;
            }
            let worst = *entries.last().expect("full list is non-empty");
            if cand.beats(&worst) {
                entries.pop();
                let at = entries.partition_point(|n| n.beats(&cand));
                entries.insert(at, cand);
                return true;
            }
            false
        }
        const SIMS: [f32; 5] = [-0.5, -0.0, 0.0, 0.25, 0.75];
        let mut acc = TopKAccumulator::new(k);
        let mut reference: Vec<Neighbor> = Vec::new();
        for &(id, sim) in &cands {
            let cand = Neighbor::new(UserId::new(id), SIMS[sim as usize]);
            let changed = acc.offer(cand);
            prop_assert_eq!(changed, offer_scan_first(&mut reference, k, cand));
            prop_assert_eq!(acc.entries(), reference.as_slice());
        }
    }

    /// The bound-filter safety property end to end: for any pair of
    /// profiles, any measure, and any full accumulator, if the O(1)
    /// upper bound says the candidate cannot beat the current k-th
    /// entry, then offering the *true* score never changes the
    /// accumulator — pruning is exact, for every measure.
    #[test]
    fn bound_filter_never_prunes_a_winner(
        k in 1usize..5,
        seated in proptest::collection::vec((0u32..50, -1.0f32..1.0), 1..30),
        pa in proptest::collection::vec((0u32..40, -5.0f32..5.0), 0..20),
        pb in proptest::collection::vec((0u32..40, -5.0f32..5.0), 0..20),
        cand_id in 100u32..120,
    ) {
        use knn_sim::{Measure, PreparedRef, Profile, ProfileStats};
        let build = |pairs: &[(u32, f32)]| {
            let mut map = std::collections::HashMap::new();
            for &(i, w) in pairs {
                map.insert(i, w);
            }
            Profile::from_unsorted_pairs(map.into_iter().collect()).unwrap()
        };
        let (pa, pb) = (build(&pa), build(&pb));
        let ((sa, ka), (sb, kb)) = (ProfileStats::with_sketch(&pa), ProfileStats::with_sketch(&pb));
        let (a, b) = (PreparedRef::new(pa.entries(), &sa, &ka), PreparedRef::new(pb.entries(), &sb, &kb));
        let mut acc = TopKAccumulator::new(k);
        for &(id, sim) in &seated {
            acc.offer(Neighbor::new(UserId::new(id), sim));
        }
        for m in Measure::ALL {
            let Some(threshold) = acc.threshold() else { break };
            let bound = m.upper_bound_ref(a, b);
            let prunable =
                bound.is_finite() && !Neighbor::new(UserId::new(cand_id), bound).beats(&threshold);
            if prunable {
                let mut replay = acc.clone();
                let true_score = m.score_ref(a, b);
                let changed = replay.offer(Neighbor::new(UserId::new(cand_id), true_score));
                prop_assert!(
                    !changed,
                    "{} pruned a winner: bound {}, true {}, threshold {:?}",
                    m, bound, true_score, threshold
                );
                prop_assert_eq!(replay.entries(), acc.entries());
            }
        }
    }

    #[test]
    fn reference_tuple_set_is_exact(n in 4usize..25, k in 1usize..4, seed in 0u64..10) {
        let g = KnnGraph::random_init(n, k, seed);
        let tuples = knn_core::phase2::reference_tuple_set(&g);
        // Brute force: direct + 2-hop.
        let mut brute = std::collections::HashSet::new();
        for s in 0..n as u32 {
            for nb in g.neighbors(UserId::new(s)) {
                brute.insert((s, nb.id.raw()));
                for nb2 in g.neighbors(nb.id) {
                    if nb2.id.raw() != s {
                        brute.insert((s, nb2.id.raw()));
                    }
                }
            }
        }
        prop_assert_eq!(tuples, brute);
    }
}
