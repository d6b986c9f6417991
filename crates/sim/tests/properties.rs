//! Property-based tests for profiles and similarity kernels.

use knn_sim::{Measure, PreparedProfile, PreparedRef, Profile, ProfileStats, Similarity};
use proptest::prelude::*;
use std::collections::HashMap;

/// Strategy: raw (item, weight) pairs with possibly duplicate items.
fn raw_pairs() -> impl Strategy<Value = Vec<(u32, f32)>> {
    proptest::collection::vec((0u32..50, -5.0f32..5.0), 0..30)
}

/// Builds a profile keeping the last weight per item (map semantics).
fn build(pairs: &[(u32, f32)]) -> Profile {
    let mut map: HashMap<u32, f32> = HashMap::new();
    for &(i, w) in pairs {
        map.insert(i, w);
    }
    Profile::from_unsorted_pairs(map.into_iter().collect()).unwrap()
}

/// Naive dot product via hash map, for cross-checking the merge join.
fn naive_dot(a: &Profile, b: &Profile) -> f64 {
    let bm: HashMap<u32, f32> = b.iter().map(|(i, w)| (i.raw(), w)).collect();
    a.iter()
        .filter_map(|(i, w)| bm.get(&i.raw()).map(|bw| w as f64 * *bw as f64))
        .sum()
}

proptest! {
    #[test]
    fn dot_matches_naive(pa in raw_pairs(), pb in raw_pairs()) {
        let (a, b) = (build(&pa), build(&pb));
        let merged = a.dot(&b);
        let naive = naive_dot(&a, &b);
        prop_assert!((merged - naive).abs() < 1e-6, "{merged} vs {naive}");
    }

    #[test]
    fn common_items_matches_naive(pa in raw_pairs(), pb in raw_pairs()) {
        let (a, b) = (build(&pa), build(&pb));
        let bs: std::collections::HashSet<u32> = b.iter().map(|(i, _)| i.raw()).collect();
        let naive = a.iter().filter(|(i, _)| bs.contains(&i.raw())).count();
        prop_assert_eq!(a.common_items(&b), naive);
    }

    #[test]
    fn all_measures_symmetric_and_finite(pa in raw_pairs(), pb in raw_pairs()) {
        let (a, b) = (build(&pa), build(&pb));
        for m in Measure::ALL {
            let ab = m.score(&a, &b);
            let ba = m.score(&b, &a);
            prop_assert!(ab.is_finite(), "{m} not finite");
            prop_assert_eq!(ab, ba, "{} not symmetric", m);
        }
    }

    #[test]
    fn bounded_measures_stay_in_range(pa in raw_pairs(), pb in raw_pairs()) {
        let (a, b) = (build(&pa), build(&pb));
        let cos = Measure::Cosine.score(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&cos));
        let pearson = Measure::Pearson.score(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&pearson));
        let jac = Measure::Jaccard.score(&a, &b);
        prop_assert!((0.0..=1.0).contains(&jac));
        let ovl = Measure::Overlap.score(&a, &b);
        prop_assert!((0.0..=1.0).contains(&ovl));
    }

    #[test]
    fn weighted_jaccard_bounds_hold_for_nonnegative(
        pa in proptest::collection::vec((0u32..40, 0.0f32..5.0), 0..25),
        pb in proptest::collection::vec((0u32..40, 0.0f32..5.0), 0..25),
    ) {
        let (a, b) = (build(&pa), build(&pb));
        let wj = Measure::WeightedJaccard.score(&a, &b);
        prop_assert!((0.0..=1.0).contains(&wj), "weighted jaccard {wj} out of range");
    }

    #[test]
    fn self_similarity_is_maximal_for_normalized_measures(pa in raw_pairs()) {
        let a = build(&pa);
        prop_assume!(!a.is_empty());
        prop_assume!(a.l2_norm() > 1e-6);
        let cos = Measure::Cosine.score(&a, &a);
        prop_assert!((cos - 1.0).abs() < 1e-5, "cosine self = {cos}");
        let jac = Measure::Jaccard.score(&a, &a);
        prop_assert!((jac - 1.0).abs() < 1e-6);
    }

    /// The prepared-kernel determinism contract: for every measure,
    /// `score_prepared` is **bit-identical** to the classic
    /// `Similarity::score` path — preparing profiles never changes a
    /// computed graph.
    #[test]
    fn prepared_scores_are_bit_identical(pa in raw_pairs(), pb in raw_pairs()) {
        let (a, b) = (build(&pa), build(&pb));
        let (qa, qb) = (PreparedProfile::new(a.clone()), PreparedProfile::new(b.clone()));
        for m in Measure::ALL {
            let plain = m.score(&a, &b);
            let prepared = m.score_prepared(&qa, &qb);
            prop_assert_eq!(
                plain.to_bits(),
                prepared.to_bits(),
                "{} diverged: plain {} vs prepared {}",
                m, plain, prepared
            );
        }
    }

    /// Upper bounds are true upper bounds: no measure ever scores a
    /// pair above its O(1) ceiling, for arbitrary (including negative)
    /// weights — item ids spanning many sketch blocks (and wrapping
    /// the block ring) included.
    #[test]
    fn upper_bounds_dominate_scores(
        pa in proptest::collection::vec((0u32..5000, -5.0f32..5.0), 0..40),
        pb in proptest::collection::vec((0u32..5000, -5.0f32..5.0), 0..40),
    ) {
        let (qa, qb) = (
            PreparedProfile::new(build(&pa)),
            PreparedProfile::new(build(&pb)),
        );
        for m in Measure::ALL {
            let score = m.score_prepared(&qa, &qb);
            let bound = m.upper_bound(&qa, &qb);
            prop_assert!(
                bound >= score,
                "{} bound {} below score {}", m, bound, score
            );
            // Bounds are symmetric, like the measures themselves.
            prop_assert_eq!(bound.to_bits(), m.upper_bound(&qb, &qa).to_bits(), "{} bound asymmetric", m);
        }
    }

    #[test]
    fn profile_set_then_get_round_trips(ops in proptest::collection::vec((0u32..20, -3.0f32..3.0), 1..40)) {
        let mut p = Profile::new();
        let mut model: HashMap<u32, f32> = HashMap::new();
        for &(i, w) in &ops {
            p.set(knn_sim::ItemId::new(i), w);
            model.insert(i, w);
        }
        prop_assert_eq!(p.len(), model.len());
        for (&i, &w) in &model {
            prop_assert_eq!(p.get(knn_sim::ItemId::new(i)), Some(w));
        }
        // Entries stay sorted.
        let items: Vec<u32> = p.iter().map(|(i, _)| i.raw()).collect();
        let mut sorted = items.clone();
        sorted.sort_unstable();
        prop_assert_eq!(items, sorted);
    }
}

/// Builds an arena of the two generated profiles next to their owned
/// prepared forms (same map semantics as `build`).
fn build_arena(pa: &[(u32, f32)], pb: &[(u32, f32)]) -> knn_sim::ProfileArena {
    let dedup = |pairs: &[(u32, f32)]| {
        let mut map: HashMap<u32, f32> = HashMap::new();
        for &(i, w) in pairs {
            map.insert(i, w);
        }
        map.into_iter().collect::<Vec<_>>()
    };
    let mut builder = knn_sim::ProfileArena::builder(2, pa.len() + pb.len());
    builder.push(0, dedup(pa)).unwrap();
    builder.push(1, dedup(pb)).unwrap();
    builder.finish()
}

proptest! {
    /// The arena-backed borrowed path is bit-identical to the owned
    /// prepared path — scores and upper bounds alike, for every
    /// measure: the tentpole determinism contract of the phase-4
    /// arena rework.
    #[test]
    fn arena_views_are_bit_identical_to_prepared_profiles(
        pa in raw_pairs(),
        pb in raw_pairs(),
    ) {
        let arena = build_arena(&pa, &pb);
        let (a, b) = (build(&pa), build(&pb));
        let (pa, pb) = (PreparedProfile::new(a), PreparedProfile::new(b));
        let (va, vb) = (arena.view(0), arena.view(1));
        for m in Measure::ALL {
            prop_assert_eq!(
                m.score_ref(va, vb).to_bits(),
                m.score_prepared(&pa, &pb).to_bits(),
                "{} score diverged", m
            );
            prop_assert_eq!(
                m.score_ref(va, vb).to_bits(),
                m.score(pa.profile(), pb.profile()).to_bits(),
                "{} unprepared score diverged", m
            );
            prop_assert_eq!(
                m.upper_bound_ref(va, vb).to_bits(),
                m.upper_bound(&pa, &pb).to_bits(),
                "{} bound diverged", m
            );
            prop_assert!(
                m.upper_bound_ref(va, vb) >= m.score_ref(va, vb),
                "{} bound below score", m
            );
        }
    }
}

/// Weights a kernel must not trip over: negative, explicit zero of
/// either sign, tiny, ordinary.
const KERNEL_WEIGHTS: [f32; 8] = [-2.5, -0.0, 0.0, 1.0e-20, 0.25, 1.0, 3.5, -1.0];

/// Strategy: a row for the row-kernel property — empty rows and
/// singletons included — with ids drawn from three pools: a dense low
/// range (rows overlap heavily, and in the small probe tables of short
/// rows ids collide often), the top of the id space (`u32::MAX`
/// included), and ids that differ only in their top bits.
fn kernel_row() -> impl Strategy<Value = Vec<(u32, f32)>> {
    proptest::collection::vec((0u32..3, 0u32..24, 0usize..8), 0..40).prop_map(|picks| {
        let mut map: HashMap<u32, f32> = HashMap::new();
        for (pool, n, w) in picks {
            let id = match pool {
                0 => n,
                1 => u32::MAX - n,
                _ => n << 27,
            };
            map.insert(id, KERNEL_WEIGHTS[w]);
        }
        map.into_iter().collect()
    })
}

proptest! {
    /// The row kernel — a source row loaded once, then any number of
    /// candidates scored against it — is `to_bits`-equal to the pair
    /// kernel for every measure, over runs of 1 to 512 candidates,
    /// through arena views and through plain profiles alike. (Ids
    /// built to land in one probe slot are pinned by a unit test
    /// beside the kernel, which can see its hash.)
    #[test]
    fn row_kernel_is_bit_identical_to_the_pair_kernel(
        rows in proptest::collection::vec(kernel_row(), 1..12),
        runs in proptest::collection::vec(
            (0usize..12, proptest::collection::vec(0usize..12, 1..513)),
            1..4,
        ),
    ) {
        let mut builder = knn_sim::ProfileArena::builder(rows.len(), 0);
        for (user, row) in rows.iter().enumerate() {
            builder.push(user as u32, row.clone()).unwrap();
        }
        let arena = builder.finish();
        let profiles: Vec<Profile> = rows
            .iter()
            .map(|row| Profile::from_unsorted_pairs(row.clone()).unwrap())
            .collect();
        let prepared: Vec<_> = profiles.iter().map(ProfileStats::with_sketch).collect();
        let pairs_view = |i: usize| {
            let (stats, sketch) = &prepared[i];
            PreparedRef::new(profiles[i].entries(), stats, sketch)
        };
        for m in Measure::ALL {
            let mut kernel = knn_sim::RowKernel::new(m);
            for (source, candidates) in &runs {
                let source = source % rows.len();
                kernel.load(arena.view(source as u32));
                for cand in candidates {
                    let cand = cand % rows.len();
                    prop_assert_eq!(
                        kernel.score(arena.view(cand as u32)).to_bits(),
                        m.score_ref(arena.view(source as u32), arena.view(cand as u32)).to_bits(),
                        "{}: row {} x {} (views)", m, source, cand
                    );
                }
                kernel.load(pairs_view(source));
                for cand in candidates.iter().take(16) {
                    let cand = cand % rows.len();
                    prop_assert_eq!(
                        kernel.score(pairs_view(cand)).to_bits(),
                        m.score(&profiles[source], &profiles[cand]).to_bits(),
                        "{}: row {} x {} (profiles)", m, source, cand
                    );
                }
            }
        }
    }
}
