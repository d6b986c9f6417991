//! Similarity measures over sparse profiles.
//!
//! Three entry points share one set of kernels:
//!
//! * [`Similarity::score`] — the classic two-profile entry point; any
//!   per-profile aggregate a kernel needs (the L2 norm for cosine) is
//!   computed on the spot.
//! * [`crate::Measure::score_prepared`] / [`crate::Measure::score_ref`]
//!   — one pair of operands whose aggregates were computed once up
//!   front ([`crate::PreparedProfile`], [`crate::PreparedRef`]).
//! * [`crate::RowKernel`] — one resident row against a run of
//!   candidates: the common items are found by a probe, not a merge,
//!   and fed to the same closing arithmetic.
//!
//! All of them execute the same floating-point operations in the same
//! order, so their results are bit-identical (property-tested).

use std::fmt;

use crate::prepared::ProfileStats;
use crate::{ItemId, Profile};

/// One sorted sparse row — the operand of every kernel, in either
/// storage layout: the owned [`Profile`]'s `(item, weight)` slice or
/// a [`crate::ProfileArena`] row's separate id and weight columns.
/// The kernels are generic over it, so both layouts run the same
/// arithmetic in the same order and score bit-identically.
pub(crate) trait Row: Copy {
    /// Number of entries.
    fn len(self) -> usize;
    /// The `i`-th item id (ascending in `i`).
    fn item(self, i: usize) -> u32;
    /// The `i`-th weight.
    fn weight(self, i: usize) -> f32;
}

impl Row for &[(ItemId, f32)] {
    fn len(self) -> usize {
        <[_]>::len(self)
    }
    fn item(self, i: usize) -> u32 {
        self[i].0.raw()
    }
    fn weight(self, i: usize) -> f32 {
        self[i].1
    }
}

/// Split columns: `(items, weights)`, equally long.
impl Row for (&[u32], &[f32]) {
    fn len(self) -> usize {
        self.0.len()
    }
    fn item(self, i: usize) -> u32 {
        self.0[i]
    }
    fn weight(self, i: usize) -> f32 {
        self.1[i]
    }
}

/// A borrowed sorted entry list in one of the two storage layouts —
/// what a [`crate::PreparedRef`] views.
#[derive(Debug, Clone, Copy)]
pub enum Entries<'a> {
    /// `(item, weight)` pairs, as a [`Profile`] stores them.
    Pairs(&'a [(ItemId, f32)]),
    /// Separate id and weight columns, as a [`crate::ProfileArena`]
    /// stores them (equally long).
    Columns {
        /// Ascending item ids.
        items: &'a [u32],
        /// The weights, in item order.
        weights: &'a [f32],
    },
}

impl Entries<'_> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            Entries::Pairs(p) => p.len(),
            Entries::Columns { items, .. } => items.len(),
        }
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A similarity function between two user profiles.
///
/// Implementations must be symmetric (`score(a, b) == score(b, a)`) and
/// always return a **finite** value — the KNN graph rejects NaN edges.
/// Higher is more similar.
///
/// The engine is generic over this trait; [`Measure`] provides the
/// standard kernels.
pub trait Similarity: Send + Sync {
    /// Scores the similarity between `a` and `b`.
    fn score(&self, a: &Profile, b: &Profile) -> f32;

    /// Short human-readable kernel name (for reports and benches).
    fn name(&self) -> &'static str;
}

/// The built-in similarity kernels.
///
/// ```
/// use knn_sim::{Measure, Profile, Similarity};
///
/// let a = Profile::from_items(vec![1, 2, 3]).unwrap();
/// let b = Profile::from_items(vec![2, 3, 4]).unwrap();
/// assert_eq!(Measure::Jaccard.score(&a, &b), 0.5);
/// assert_eq!(Measure::CommonItems.score(&a, &b), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Measure {
    /// Cosine similarity of the weight vectors; in `[-1, 1]`
    /// (`[0, 1]` for non-negative weights). Empty profiles score 0.
    #[default]
    Cosine,
    /// Set Jaccard: `|A ∩ B| / |A ∪ B|` over item sets, ignoring
    /// weights; in `[0, 1]`. Two empty profiles score 0.
    Jaccard,
    /// Weighted Jaccard (Ruzicka): `Σ min(aᵢ, bᵢ) / Σ max(aᵢ, bᵢ)`,
    /// for non-negative weights; in `[0, 1]`.
    WeightedJaccard,
    /// Overlap (Szymkiewicz–Simpson): `|A ∩ B| / min(|A|, |B|)`;
    /// in `[0, 1]`.
    Overlap,
    /// Raw count of common items (unnormalized; useful for debugging
    /// and for triangle-counting-style workloads).
    CommonItems,
    /// Pearson correlation over co-rated items (mean-centered per
    /// profile over the intersection); in `[-1, 1]`. Fewer than two
    /// common items scores 0.
    Pearson,
    /// Sørensen–Dice coefficient: `2·|A ∩ B| / (|A| + |B|)` over item
    /// sets; in `[0, 1]`. Two empty profiles score 0.
    Dice,
}

impl Measure {
    /// All built-in measures, for sweeps and tests.
    pub const ALL: [Measure; 7] = [
        Measure::Cosine,
        Measure::Jaccard,
        Measure::WeightedJaccard,
        Measure::Overlap,
        Measure::CommonItems,
        Measure::Pearson,
        Measure::Dice,
    ];
}

impl fmt::Display for Measure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(Similarity::name(self))
    }
}

impl Similarity for Measure {
    /// Scores two plain profiles — a thin wrapper over the shared
    /// kernels that computes the needed per-profile aggregates on the
    /// spot. Bit-identical to [`Measure::score_prepared`] on prepared
    /// operands.
    fn score(&self, a: &Profile, b: &Profile) -> f32 {
        let (ae, be) = (a.entries(), b.entries());
        let v = match self {
            Measure::Cosine => cosine(ae, a.l2_norm(), be, b.l2_norm()),
            Measure::Jaccard => jaccard(ae, be),
            Measure::WeightedJaccard => weighted_jaccard(ae, be),
            Measure::Overlap => overlap(ae, be),
            Measure::CommonItems => common_items(ae, be) as f64,
            Measure::Pearson => pearson(ae, be),
            Measure::Dice => dice(ae, be),
        };
        debug_assert!(v.is_finite(), "{self} produced non-finite score {v}");
        v as f32
    }

    fn name(&self) -> &'static str {
        match self {
            Measure::Cosine => "cosine",
            Measure::Jaccard => "jaccard",
            Measure::WeightedJaccard => "weighted-jaccard",
            Measure::Overlap => "overlap",
            Measure::CommonItems => "common-items",
            Measure::Pearson => "pearson",
            Measure::Dice => "dice",
        }
    }
}

/// The prepared-operand kernel dispatch: scores row `a` against `b`
/// with their precomputed norms (called by
/// [`crate::Measure::score_prepared`] and the arena-backed
/// [`crate::Measure::score_ref`]; same arithmetic as
/// [`Similarity::score`]).
pub(crate) fn score_rows<A: Row, B: Row>(
    measure: Measure,
    a: A,
    a_stats: &ProfileStats,
    b: B,
    b_stats: &ProfileStats,
) -> f64 {
    match measure {
        Measure::Cosine => cosine(a, a_stats.l2_norm, b, b_stats.l2_norm),
        Measure::Jaccard => jaccard(a, b),
        Measure::WeightedJaccard => weighted_jaccard(a, b),
        Measure::Overlap => overlap(a, b),
        Measure::CommonItems => common_items(a, b) as f64,
        Measure::Pearson => pearson(a, b),
        Measure::Dice => dice(a, b),
    }
}

/// [`score_rows`] over [`Entries`] operands of either layout.
pub(crate) fn score_entries(
    measure: Measure,
    a: Entries<'_>,
    a_stats: &ProfileStats,
    b: Entries<'_>,
    b_stats: &ProfileStats,
) -> f64 {
    use Entries::{Columns, Pairs};
    match (a, b) {
        (Pairs(a), Pairs(b)) => score_rows(measure, a, a_stats, b, b_stats),
        (Pairs(a), Columns { items, weights }) => {
            score_rows(measure, a, a_stats, (items, weights), b_stats)
        }
        (Columns { items, weights }, Pairs(b)) => {
            score_rows(measure, (items, weights), a_stats, b, b_stats)
        }
        (
            Columns { items, weights },
            Columns {
                items: b_items,
                weights: b_weights,
            },
        ) => score_rows(
            measure,
            (items, weights),
            a_stats,
            (b_items, b_weights),
            b_stats,
        ),
    }
}

/// Dot product of two sorted rows (merge join); shared by
/// [`Profile::dot`] and the cosine kernel.
pub(crate) fn dot<A: Row, B: Row>(a: A, b: B) -> f64 {
    let mut acc = 0.0f64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a.item(i).cmp(&b.item(j)) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc += a.weight(i) as f64 * b.weight(j) as f64;
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

/// Intersection size of two sorted rows; shared by
/// [`Profile::common_items`] and the set kernels.
pub(crate) fn common_items<A: Row, B: Row>(a: A, b: B) -> usize {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a.item(i).cmp(&b.item(j)) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Calls `hit(wa, wb)` for every item the two sorted rows share, in
/// ascending item order.
fn for_each_common<A: Row, B: Row>(a: A, b: B, hit: &mut dyn FnMut(f64, f64)) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a.item(i).cmp(&b.item(j)) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                hit(a.weight(i) as f64, b.weight(j) as f64);
                i += 1;
                j += 1;
            }
        }
    }
}

// The measures' closing arithmetic, written once: the pair kernels
// below feed it from a two-pointer merge, the row kernel
// ([`crate::RowKernel`]) from its probe — the only thing that differs
// between the two is how the common items are found.

/// Cosine from the two norms and the dot product, walked only when
/// the denominator is non-zero.
pub(crate) fn cosine_of(a_norm: f64, b_norm: f64, dot: impl FnOnce() -> f64) -> f64 {
    let denom = a_norm * b_norm;
    if denom == 0.0 {
        return 0.0;
    }
    (dot() / denom).clamp(-1.0, 1.0)
}

/// Jaccard from the intersection size and the two lengths.
pub(crate) fn jaccard_of(inter: usize, a_len: usize, b_len: usize) -> f64 {
    let union = a_len + b_len - inter;
    if union == 0 {
        return 0.0;
    }
    inter as f64 / union as f64
}

/// Dice from the intersection size and the two lengths.
pub(crate) fn dice_of(inter: usize, a_len: usize, b_len: usize) -> f64 {
    let total = a_len + b_len;
    if total == 0 {
        return 0.0;
    }
    2.0 * inter as f64 / total as f64
}

/// Overlap from the intersection size and the two lengths.
pub(crate) fn overlap_of(inter: usize, a_len: usize, b_len: usize) -> f64 {
    let smaller = a_len.min(b_len);
    if smaller == 0 {
        return 0.0;
    }
    inter as f64 / smaller as f64
}

/// Pearson over the co-rated weight pairs that `co_rated` feeds, in
/// ascending item order, to the callback it is handed. Two walks —
/// the means, then the centred sums — so nothing is collected and
/// nothing is allocated per pair.
pub(crate) fn pearson_of(co_rated: impl Fn(&mut dyn FnMut(f64, f64))) -> f64 {
    let (mut n, mut sx, mut sy) = (0usize, 0.0f64, 0.0f64);
    co_rated(&mut |x, y| {
        n += 1;
        sx += x;
        sy += y;
    });
    if n < 2 {
        return 0.0;
    }
    let (mx, my) = (sx / n as f64, sy / n as f64);
    let (mut num, mut dx, mut dy) = (0.0f64, 0.0f64, 0.0f64);
    co_rated(&mut |x, y| {
        let (a, b) = (x - mx, y - my);
        num += a * b;
        dx += a * a;
        dy += b * b;
    });
    if dx == 0.0 || dy == 0.0 {
        return 0.0;
    }
    (num / (dx.sqrt() * dy.sqrt())).clamp(-1.0, 1.0)
}

fn cosine<A: Row, B: Row>(a: A, a_norm: f64, b: B, b_norm: f64) -> f64 {
    cosine_of(a_norm, b_norm, || dot(a, b))
}

fn jaccard<A: Row, B: Row>(a: A, b: B) -> f64 {
    jaccard_of(common_items(a, b), a.len(), b.len())
}

/// Weighted Jaccard sums `max(aᵢ, bᵢ)` over the *union* of the two
/// item sets in ascending item order, so it needs the full merge: an
/// intersection-only walk (the row kernel's probe) would add the same
/// terms in a different order and round differently.
pub(crate) fn weighted_jaccard<A: Row, B: Row>(a: A, b: B) -> f64 {
    let (mut min_sum, mut max_sum) = (0.0f64, 0.0f64);
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (wa, wb) = (a.weight(i) as f64, b.weight(j) as f64);
        match a.item(i).cmp(&b.item(j)) {
            std::cmp::Ordering::Less => {
                max_sum += wa;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                max_sum += wb;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                min_sum += wa.min(wb);
                max_sum += wa.max(wb);
                i += 1;
                j += 1;
            }
        }
    }
    // At most one of the rows has a tail left.
    for i in i..a.len() {
        max_sum += a.weight(i) as f64;
    }
    for j in j..b.len() {
        max_sum += b.weight(j) as f64;
    }
    if max_sum == 0.0 {
        0.0
    } else {
        min_sum / max_sum
    }
}

fn dice<A: Row, B: Row>(a: A, b: B) -> f64 {
    dice_of(common_items(a, b), a.len(), b.len())
}

fn overlap<A: Row, B: Row>(a: A, b: B) -> f64 {
    overlap_of(common_items(a, b), a.len(), b.len())
}

fn pearson<A: Row, B: Row>(a: A, b: B) -> f64 {
    pearson_of(|hit| for_each_common(a, b, hit))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prof(pairs: &[(u32, f32)]) -> Profile {
        Profile::from_unsorted_pairs(pairs.to_vec()).unwrap()
    }

    fn set(items: &[u32]) -> Profile {
        Profile::from_items(items.to_vec()).unwrap()
    }

    #[test]
    fn cosine_identical_is_one() {
        let p = prof(&[(1, 2.0), (5, 3.0)]);
        assert!((Measure::Cosine.score(&p, &p) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        let a = prof(&[(1, 2.0)]);
        let b = prof(&[(2, 3.0)]);
        assert_eq!(Measure::Cosine.score(&a, &b), 0.0);
    }

    #[test]
    fn cosine_opposite_is_minus_one() {
        let a = prof(&[(1, 1.0)]);
        let b = prof(&[(1, -1.0)]);
        assert!((Measure::Cosine.score(&a, &b) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_profiles_score_zero_everywhere() {
        let e = Profile::new();
        let p = prof(&[(1, 1.0)]);
        for m in Measure::ALL {
            assert_eq!(m.score(&e, &e), 0.0, "{m} on empty/empty");
            assert_eq!(m.score(&e, &p), 0.0, "{m} on empty/nonempty");
        }
    }

    #[test]
    fn jaccard_known_value() {
        let a = set(&[1, 2, 3, 4]);
        let b = set(&[3, 4, 5, 6]);
        assert!((Measure::Jaccard.score(&a, &b) - 2.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn jaccard_ignores_weights() {
        let a = prof(&[(1, 5.0), (2, 0.1)]);
        let b = prof(&[(1, 0.2), (2, 7.0)]);
        assert!((Measure::Jaccard.score(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_jaccard_known_value() {
        let a = prof(&[(1, 2.0), (2, 4.0)]);
        let b = prof(&[(1, 3.0), (3, 1.0)]);
        // min: 2; max: 3 + 4 + 1 = 8
        assert!((Measure::WeightedJaccard.score(&a, &b) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn weighted_jaccard_identical_is_one() {
        let p = prof(&[(1, 2.0), (2, 0.5)]);
        assert!((Measure::WeightedJaccard.score(&p, &p) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn overlap_subset_is_one() {
        let a = set(&[1, 2]);
        let b = set(&[1, 2, 3, 4, 5]);
        assert!((Measure::Overlap.score(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn common_items_is_intersection_size() {
        let a = set(&[1, 2, 3]);
        let b = set(&[2, 3, 4, 5]);
        assert_eq!(Measure::CommonItems.score(&a, &b), 2.0);
    }

    #[test]
    fn pearson_perfect_positive_and_negative() {
        let a = prof(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
        let b = prof(&[(1, 2.0), (2, 4.0), (3, 6.0)]);
        assert!((Measure::Pearson.score(&a, &b) - 1.0).abs() < 1e-6);
        let c = prof(&[(1, 3.0), (2, 2.0), (3, 1.0)]);
        assert!((Measure::Pearson.score(&a, &c) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn pearson_fewer_than_two_common_items_is_zero() {
        let a = prof(&[(1, 1.0), (2, 2.0)]);
        let b = prof(&[(2, 4.0), (3, 6.0)]);
        assert_eq!(Measure::Pearson.score(&a, &b), 0.0);
    }

    #[test]
    fn pearson_constant_profile_is_zero() {
        let a = prof(&[(1, 2.0), (2, 2.0), (3, 2.0)]);
        let b = prof(&[(1, 1.0), (2, 5.0), (3, 9.0)]);
        assert_eq!(Measure::Pearson.score(&a, &b), 0.0);
    }

    /// Pearson used to collect the co-rated weights into two `Vec`s
    /// per pair and sum them with `Iterator::sum`; it now walks twice
    /// and allocates nothing. The results must be `to_bits`-equal,
    /// signed zeros included (`sum` starts from `-0.0`, the walk from
    /// `+0.0`: the means can differ in the sign of a zero, the score
    /// cannot).
    #[test]
    fn pearson_equals_the_collecting_implementation() {
        fn collecting(a: &Profile, b: &Profile) -> f64 {
            let (mut xs, mut ys): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
            for (item, wa) in a.iter() {
                if let Some(wb) = b.get(item) {
                    xs.push(wa as f64);
                    ys.push(wb as f64);
                }
            }
            let n = xs.len();
            if n < 2 {
                return 0.0;
            }
            let mx = xs.iter().sum::<f64>() / n as f64;
            let my = ys.iter().sum::<f64>() / n as f64;
            let (mut num, mut dx, mut dy) = (0.0, 0.0, 0.0);
            for k in 0..n {
                let (a, b) = (xs[k] - mx, ys[k] - my);
                num += a * b;
                dx += a * a;
                dy += b * b;
            }
            if dx == 0.0 || dy == 0.0 {
                return 0.0;
            }
            (num / (dx.sqrt() * dy.sqrt())).clamp(-1.0, 1.0)
        }
        let weights = [-0.0f32, 0.0, 1.5, -2.0, 0.25, 4.0, -0.0, 1.0e-3];
        let rows: Vec<Profile> = (0..40u32)
            .map(|r| {
                let pairs: Vec<(u32, f32)> = (0..r % 9)
                    .map(|i| (i * (1 + r % 3), weights[(i * (1 + r / 9) + r) as usize % 8]))
                    .collect();
                prof(&pairs)
            })
            .chain([prof(&[(1, -0.0), (2, -0.0), (3, -0.0)])])
            .collect();
        for a in &rows {
            for b in &rows {
                assert_eq!(
                    pearson(a.entries(), b.entries()).to_bits(),
                    collecting(a, b).to_bits(),
                    "{a:?} x {b:?}"
                );
            }
        }
    }

    #[test]
    fn dice_known_values() {
        let a = set(&[1, 2, 3]);
        let b = set(&[2, 3, 4, 5]);
        // 2*2 / (3+4)
        assert!((Measure::Dice.score(&a, &b) - 4.0 / 7.0).abs() < 1e-6);
        assert!((Measure::Dice.score(&a, &a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn dice_dominates_jaccard() {
        // Dice = 2J/(1+J) >= J for J in [0, 1].
        let a = set(&[1, 2, 3, 4]);
        let b = set(&[3, 4, 5]);
        let j = Measure::Jaccard.score(&a, &b);
        let d = Measure::Dice.score(&a, &b);
        assert!(d >= j);
        assert!((d - 2.0 * j / (1.0 + j)).abs() < 1e-6);
    }

    #[test]
    fn all_measures_are_symmetric_on_samples() {
        let samples = [
            prof(&[(1, 1.0), (2, -2.0), (9, 0.5)]),
            prof(&[(2, 3.0), (9, 1.0)]),
            prof(&[(100, 1.0)]),
            Profile::new(),
        ];
        for m in Measure::ALL {
            for a in &samples {
                for b in &samples {
                    assert_eq!(m.score(a, b), m.score(b, a), "{m} not symmetric");
                }
            }
        }
    }

    #[test]
    fn display_matches_name() {
        for m in Measure::ALL {
            assert_eq!(m.to_string(), m.name());
        }
    }
}
