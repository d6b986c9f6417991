//! Prepared profiles: per-profile statistics computed once, reused
//! across every similarity evaluation.
//!
//! The phase-4 executor scores each resident profile against thousands
//! of candidates. The unprepared kernels recompute per-profile
//! aggregates — most expensively the L2 norm for cosine — on **every**
//! pair. [`PreparedProfile`] hoists those aggregates into a one-pass
//! [`ProfileStats`] computed at partition-load time, so the per-pair
//! cost drops to the intersection walk itself.
//!
//! The stats also power O(1) **upper bounds**
//! ([`crate::Measure::upper_bound`]): a cheap score ceiling the
//! executor compares against the current k-th best candidate to skip
//! whole kernel evaluations that cannot possibly enter the top-K.
//!
//! Determinism contract: [`crate::Measure::score_prepared`] performs
//! the *same* floating-point operations in the same order as
//! [`crate::Similarity::score`] — the two are bit-identical for every
//! measure (property-tested in `tests/properties.rs`), so preparing
//! profiles never changes a computed graph.

use crate::similarity::Entries;
use crate::{Measure, PreparedRef, Profile};

/// Number of item-id blocks in the bound sketch. Items map to block
/// `(id >> BLOCK_SHIFT) % SKETCH_BLOCKS`, so ids are grouped in runs
/// of 2^[`BLOCK_SHIFT`] consecutive ids — real catalogs cluster
/// related items in id ranges (and the workload generators plant
/// exactly that structure), which is what makes the per-block bounds
/// sharp. Arbitrary id layouts only loosen the bounds; they stay
/// valid.
pub const SKETCH_BLOCKS: usize = 32;

/// Log2 of the id run length per sketch block (64 consecutive ids).
pub const BLOCK_SHIFT: u32 = 6;

/// Multiplicative slack covering the f32 storage rounding of the
/// sketch entries (relative error ≤ ~1e-7 per term): bounds derived
/// from the sketch are widened by this factor so they *provably*
/// dominate the exact f64 kernels.
const SKETCH_SLACK: f64 = 1.0 + 1e-6;

/// One-pass scalar aggregates of a [`Profile`], sufficient for every
/// prepared kernel — kept small (they sit inline on the kernels'
/// hottest cache lines; the larger bound sketch lives behind a box,
/// touched only by the pruning filter).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProfileStats {
    /// Number of entries (`Profile::len`).
    pub len: usize,
    /// Euclidean norm of the weight vector, computed exactly as
    /// [`Profile::l2_norm`] does (same summation order, bit-identical).
    pub l2_norm: f64,
    /// Sum of weights ([`Profile::weight_sum`]).
    pub weight_sum: f64,
    /// Largest absolute weight (0 for an empty profile).
    pub max_abs_weight: f64,
    /// Smallest weight (0 for an empty profile); negative iff the
    /// profile carries any negative weight.
    pub min_weight: f64,
}

/// The per-block id-range sketch powering [`Measure::upper_bound`]:
/// block norms (blocked Cauchy–Schwarz for cosine), block counts
/// (intersection caps for the set measures), and block weight sums
/// (the non-negative weighted-Jaccard numerator cap).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundSketch {
    /// Per-block L2 norms (`dot(a, b) <= Σ_k ‖a_k‖·‖b_k‖`).
    pub block_norms: [f32; SKETCH_BLOCKS],
    /// Per-block entry counts (`|A ∩ B| <= Σ_k min(cnt_a_k, cnt_b_k)`).
    pub block_counts: [u32; SKETCH_BLOCKS],
    /// Per-block weight sums (`Σ min(aᵢ, bᵢ) <= Σ_k min of sums`, for
    /// non-negative weights).
    pub block_weight_sums: [f32; SKETCH_BLOCKS],
}

// One mask bit per block.
const _: () = assert!(SKETCH_BLOCKS == u32::BITS as usize);

/// The set bits of `mask`, ascending (each below [`SKETCH_BLOCKS`],
/// which the final `%` tells the compiler).
fn set_bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let k = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(k % SKETCH_BLOCKS)
    })
}

/// The sketch block of an item id.
fn block_of(item: u32) -> usize {
    ((item >> BLOCK_SHIFT) as usize) % SKETCH_BLOCKS
}

impl ProfileStats {
    /// Computes the scalar aggregates in one pass over the entries.
    pub fn of(profile: &Profile) -> Self {
        Self::with_sketch(profile).0
    }

    /// Computes the scalar aggregates and the bound sketch in one
    /// shared pass.
    pub fn with_sketch(profile: &Profile) -> (Self, BoundSketch) {
        Self::with_sketch_of_entries(profile.entries())
    }

    /// The entry-slice form of [`ProfileStats::with_sketch`]: the same
    /// one-pass aggregation over a sorted entry slice — the arena
    /// builder runs it over each user's freshly appended CSR rows, so
    /// the borrowed and owned prepared paths carry identical stats.
    pub fn with_sketch_of_entries(entries: &[(crate::ItemId, f32)]) -> (Self, BoundSketch) {
        Self::with_sketch_of(entries.iter().map(|&(item, w)| (item.raw(), w)))
    }

    /// The same aggregation over any `(item, weight)` sequence in
    /// ascending item order (the arena builder feeds it a row's two
    /// columns).
    pub(crate) fn with_sketch_of(
        entries: impl ExactSizeIterator<Item = (u32, f32)>,
    ) -> (Self, BoundSketch) {
        let len = entries.len();
        let mut sq_sum = 0.0f64;
        let mut weight_sum = 0.0f64;
        let mut max_abs_weight = 0.0f64;
        let mut min_weight = f64::INFINITY;
        let mut block_sq = [0.0f64; SKETCH_BLOCKS];
        let mut block_counts = [0u32; SKETCH_BLOCKS];
        let mut block_sums = [0.0f64; SKETCH_BLOCKS];
        for (item, w) in entries {
            let w = w as f64;
            sq_sum += w * w;
            weight_sum += w;
            max_abs_weight = max_abs_weight.max(w.abs());
            min_weight = min_weight.min(w);
            let k = block_of(item);
            block_sq[k] += w * w;
            block_counts[k] += 1;
            block_sums[k] += w;
        }
        let mut block_norms = [0.0f32; SKETCH_BLOCKS];
        let mut block_weight_sums = [0.0f32; SKETCH_BLOCKS];
        for k in 0..SKETCH_BLOCKS {
            block_norms[k] = block_sq[k].sqrt() as f32;
            block_weight_sums[k] = block_sums[k] as f32;
        }
        let stats = ProfileStats {
            len,
            l2_norm: sq_sum.sqrt(),
            weight_sum,
            max_abs_weight,
            min_weight: if min_weight.is_finite() {
                min_weight
            } else {
                0.0
            },
        };
        let sketch = BoundSketch {
            block_norms,
            block_counts,
            block_weight_sums,
        };
        (stats, sketch)
    }

    /// Whether every weight is non-negative (vacuously true when
    /// empty) — the precondition for the weighted-Jaccard bound.
    pub fn is_non_negative(&self) -> bool {
        self.min_weight >= 0.0
    }
}

impl BoundSketch {
    /// The non-empty blocks: bit `k` is set iff block `k` holds at
    /// least one entry. A block empty on either side of a pair adds
    /// exactly `+0.0` (or a zero count) to every cap below, so the
    /// caps add only the blocks set in both operands' masks — the same
    /// terms in the same ascending order, without the 32-long
    /// dependent add chain. Computed once per profile and carried
    /// beside the sketch ([`crate::PreparedRef`]), apart from it: the
    /// masks of a partition fit in L1, so which sketch lines a bound
    /// needs is known before any of them is fetched.
    pub fn block_mask(&self) -> u32 {
        self.block_counts
            .iter()
            .enumerate()
            .fold(0, |mask, (k, &count)| mask | (u32::from(count != 0) << k))
    }

    /// An upper bound on `|A ∩ B|` from the block counts of the
    /// `common` (non-empty on both sides) blocks.
    fn common_items_cap(&self, other: &BoundSketch, common: u32) -> usize {
        let mut cap = 0usize;
        for k in set_bits(common) {
            cap += self.block_counts[k].min(other.block_counts[k]) as usize;
        }
        cap
    }

    /// An upper bound on `dot(a, b)` from the block norms (blocked
    /// Cauchy–Schwarz, widened by the storage-rounding slack). Valid
    /// for arbitrary weights: each block's true dot is at most the
    /// product of the block norms.
    fn dot_cap(&self, other: &BoundSketch, common: u32) -> f64 {
        let mut cap = 0.0f64;
        for k in set_bits(common) {
            cap += self.block_norms[k] as f64 * other.block_norms[k] as f64;
        }
        cap * SKETCH_SLACK
    }

    /// An upper bound on `Σ min(aᵢ, bᵢ)` for non-negative weights,
    /// from the block weight sums. (Only then is an empty block's term
    /// `min(+0.0, sum) = +0.0`; the one caller checks the signs first.)
    fn min_sum_cap(&self, other: &BoundSketch, common: u32) -> f64 {
        let mut cap = 0.0f64;
        for k in set_bits(common) {
            cap += (self.block_weight_sums[k] as f64).min(other.block_weight_sums[k] as f64);
        }
        cap * SKETCH_SLACK
    }
}

/// A [`Profile`] bundled with its precomputed [`ProfileStats`]
/// (inline, on the kernel hot path) and boxed [`BoundSketch`]
/// (pointer-chased only by the pruning filter) — the operand of the
/// prepared similarity kernels.
///
/// ```
/// use knn_sim::{Measure, PreparedProfile, Profile, Similarity};
///
/// let a = PreparedProfile::new(Profile::from_items(vec![1, 2, 3]).unwrap());
/// let b = PreparedProfile::new(Profile::from_items(vec![2, 3, 4]).unwrap());
/// // Bit-identical to the unprepared path…
/// assert_eq!(
///     Measure::Cosine.score_prepared(&a, &b),
///     Measure::Cosine.score(a.profile(), b.profile()),
/// );
/// // …and the O(1) bound dominates the true score.
/// assert!(Measure::Jaccard.upper_bound(&a, &b) >= Measure::Jaccard.score_prepared(&a, &b));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedProfile {
    profile: Profile,
    stats: ProfileStats,
    sketch: Box<BoundSketch>,
    block_mask: u32,
}

impl PreparedProfile {
    /// Prepares a profile, computing its stats and sketch in one pass.
    pub fn new(profile: Profile) -> Self {
        let (stats, sketch) = ProfileStats::with_sketch(&profile);
        PreparedProfile {
            profile,
            stats,
            block_mask: sketch.block_mask(),
            sketch: Box::new(sketch),
        }
    }

    /// The borrowed view of this profile — the operand of
    /// [`Measure::score_ref`], [`Measure::upper_bound_ref`] and
    /// [`crate::RowKernel`].
    pub fn view(&self) -> PreparedRef<'_> {
        PreparedRef::from_parts(
            Entries::Pairs(self.profile.entries()),
            &self.stats,
            &self.sketch,
            self.block_mask,
        )
    }

    /// The wrapped profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The precomputed scalar aggregates.
    pub fn stats(&self) -> &ProfileStats {
        &self.stats
    }

    /// The precomputed bound sketch.
    pub fn sketch(&self) -> &BoundSketch {
        &self.sketch
    }

    /// Unwraps the profile, dropping the stats.
    pub fn into_profile(self) -> Profile {
        self.profile
    }
}

impl From<Profile> for PreparedProfile {
    fn from(profile: Profile) -> Self {
        PreparedProfile::new(profile)
    }
}

impl Measure {
    /// Scores two prepared profiles.
    ///
    /// Bit-identical to [`crate::Similarity::score`] on the wrapped
    /// profiles for every measure — the prepared path reuses the
    /// precomputed aggregates and the SoA intersection walk but
    /// performs the same arithmetic in the same order.
    pub fn score_prepared(&self, a: &PreparedProfile, b: &PreparedProfile) -> f32 {
        self.score_ref(a.view(), b.view())
    }

    /// An O(1) upper bound on [`Measure::score_prepared`] for the same
    /// operands: `score_prepared(a, b) <= upper_bound(a, b)` always
    /// (property-tested). Measures without a useful cheap bound return
    /// a trivial ceiling; a bound of `f32::INFINITY` means "no bound
    /// available" (never prunes).
    ///
    /// The executor uses this against the current k-th accumulator
    /// score: when even the ceiling cannot beat the current worst
    /// top-K entry, the full intersection walk is skipped.
    pub fn upper_bound(&self, a: &PreparedProfile, b: &PreparedProfile) -> f32 {
        self.upper_bound_ref(a.view(), b.view())
    }
}

/// The core of [`Measure::upper_bound_ref`]: every bound is a function
/// of the two operands' [`ProfileStats`], [`BoundSketch`] and block
/// mask alone — the entries are never touched.
pub(crate) fn upper_bound_parts(measure: Measure, a: PreparedRef<'_>, b: PreparedRef<'_>) -> f32 {
    let (sa, ka, sb, kb) = (a.stats(), a.sketch(), b.stats(), b.sketch());
    let common = a.block_mask() & b.block_mask();
    {
        let min_len = sa.len.min(sb.len) as f64;
        let v = match measure {
            Measure::Cosine => {
                // Blocked Cauchy–Schwarz: dot <= Σ_k ‖a_k‖·‖b_k‖ —
                // profiles concentrated in disjoint id blocks bound
                // near 0 even when both are long. Scalar fallback:
                // |dot| <= min(|A|, |B|) · max|a| · max|b|.
                let denom = sa.l2_norm * sb.l2_norm;
                if denom == 0.0 {
                    0.0
                } else {
                    let scalar_cap = min_len * sa.max_abs_weight * sb.max_abs_weight;
                    (ka.dot_cap(kb, common).min(scalar_cap) / denom).min(1.0)
                }
            }
            Measure::Jaccard => {
                // inter <= Σ_k min-counts <= min(|A|, |B|); Jaccard is
                // increasing in the intersection size, so
                // J <= cap / (|A| + |B| - cap).
                let cap = ka.common_items_cap(kb, common) as f64;
                let union_floor = (sa.len + sb.len) as f64 - cap;
                if cap == 0.0 || union_floor <= 0.0 {
                    0.0
                } else {
                    (cap / union_floor).min(1.0)
                }
            }
            Measure::WeightedJaccard => {
                // Σ min(aᵢ, bᵢ) <= Σ_k min of block sums <= min(ΣA, ΣB)
                // and Σ max(aᵢ, bᵢ) >= max(ΣA, ΣB) — for non-negative
                // weights only; with negative weights there is no
                // cheap ceiling.
                if !sa.is_non_negative() || !sb.is_non_negative() {
                    return f32::INFINITY;
                }
                let max_sum = sa.weight_sum.max(sb.weight_sum);
                if max_sum == 0.0 {
                    0.0
                } else {
                    let num_cap = ka
                        .min_sum_cap(kb, common)
                        .min(sa.weight_sum.min(sb.weight_sum));
                    (num_cap / max_sum).min(1.0)
                }
            }
            Measure::Overlap => {
                // inter <= Σ_k min-counts, so overlap <= cap / min.
                if min_len == 0.0 {
                    0.0
                } else {
                    (ka.common_items_cap(kb, common) as f64 / min_len).min(1.0)
                }
            }
            Measure::CommonItems => ka.common_items_cap(kb, common) as f64,
            Measure::Pearson => {
                // Fewer than two common items scores exactly 0.
                if min_len < 2.0 || ka.common_items_cap(kb, common) < 2 {
                    0.0
                } else {
                    1.0
                }
            }
            Measure::Dice => {
                let total = (sa.len + sb.len) as f64;
                if total == 0.0 {
                    0.0
                } else {
                    (2.0 * ka.common_items_cap(kb, common) as f64 / total).min(1.0)
                }
            }
        };
        v as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Similarity;

    fn prep(pairs: &[(u32, f32)]) -> PreparedProfile {
        PreparedProfile::new(Profile::from_unsorted_pairs(pairs.to_vec()).unwrap())
    }

    #[test]
    fn stats_match_profile_accessors() {
        let p = Profile::from_unsorted_pairs(vec![(1, 3.0), (4, -4.0), (9, 0.5)]).unwrap();
        let s = ProfileStats::of(&p);
        assert_eq!(s.len, 3);
        assert_eq!(s.l2_norm.to_bits(), p.l2_norm().to_bits());
        assert_eq!(s.weight_sum.to_bits(), p.weight_sum().to_bits());
        assert_eq!(s.max_abs_weight, 4.0);
        assert_eq!(s.min_weight, -4.0);
        assert!(!s.is_non_negative());
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = ProfileStats::of(&Profile::new());
        assert_eq!(s.len, 0);
        assert_eq!(s.l2_norm, 0.0);
        assert_eq!(s.weight_sum, 0.0);
        assert_eq!(s.max_abs_weight, 0.0);
        assert_eq!(s.min_weight, 0.0);
        assert!(s.is_non_negative());
    }

    #[test]
    fn prepared_scores_match_unprepared_on_samples() {
        let samples = [
            prep(&[(1, 1.0), (2, -2.0), (9, 0.5)]),
            prep(&[(2, 3.0), (9, 1.0)]),
            prep(&[(100, 1.0)]),
            PreparedProfile::new(Profile::new()),
            prep(&[(1, 0.25), (2, 0.5), (3, 4.0), (7, 1.5)]),
        ];
        for m in Measure::ALL {
            for a in &samples {
                for b in &samples {
                    let prepared = m.score_prepared(a, b);
                    let plain = m.score(a.profile(), b.profile());
                    assert_eq!(
                        prepared.to_bits(),
                        plain.to_bits(),
                        "{m} diverged: {prepared} vs {plain}"
                    );
                }
            }
        }
    }

    #[test]
    fn upper_bounds_dominate_scores_on_samples() {
        let samples = [
            prep(&[(1, 1.0), (2, -2.0), (9, 0.5)]),
            prep(&[(2, 3.0), (9, 1.0)]),
            prep(&[(1, 1.0), (2, 1.0), (3, 1.0)]),
            prep(&[(2, 1.0), (3, 1.0), (4, 1.0), (5, 1.0)]),
            PreparedProfile::new(Profile::new()),
        ];
        for m in Measure::ALL {
            for a in &samples {
                for b in &samples {
                    let bound = m.upper_bound(a, b);
                    let score = m.score_prepared(a, b);
                    assert!(bound >= score, "{m}: bound {bound} < score {score}");
                }
            }
        }
    }

    #[test]
    fn jaccard_bound_is_tight_for_subsets() {
        let a = prep(&[(1, 1.0), (2, 1.0)]);
        let b = prep(&[(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)]);
        assert_eq!(Measure::Jaccard.upper_bound(&a, &b), 0.5);
        assert_eq!(Measure::Jaccard.score_prepared(&a, &b), 0.5);
    }

    #[test]
    fn weighted_jaccard_bound_disabled_for_negative_weights() {
        let a = prep(&[(1, -1.0)]);
        let b = prep(&[(1, 2.0)]);
        assert_eq!(Measure::WeightedJaccard.upper_bound(&a, &b), f32::INFINITY);
    }

    #[test]
    fn bounds_on_disjoint_short_profiles_prune_hard() {
        // A singleton vs. a long profile: set-measure bounds collapse.
        let a = prep(&[(1, 1.0)]);
        let b = prep(&[(2, 1.0), (3, 1.0), (4, 1.0), (5, 1.0), (6, 1.0)]);
        assert!(Measure::Jaccard.upper_bound(&a, &b) <= 0.2);
        assert!(Measure::Dice.upper_bound(&a, &b) <= 2.0 / 6.0);
        assert_eq!(Measure::Pearson.upper_bound(&a, &b), 0.0);
    }

    /// The sketch's reason to exist: profiles living in disjoint
    /// item-id blocks bound to (near) zero for every measure, even
    /// when both are long — the cross-cluster case the phase-4 filter
    /// prunes wholesale.
    #[test]
    fn disjoint_block_profiles_bound_near_zero() {
        // Block 0 (ids 0–63) vs block 4 (ids 256–319).
        let a = prep(&[(1, 3.0), (5, 2.0), (20, 4.0)]);
        let b = prep(&[(260, 3.0), (270, 1.0), (300, 5.0)]);
        assert!(Measure::Cosine.upper_bound(&a, &b) < 1e-5);
        assert_eq!(Measure::Jaccard.upper_bound(&a, &b), 0.0);
        assert_eq!(Measure::Dice.upper_bound(&a, &b), 0.0);
        assert_eq!(Measure::Overlap.upper_bound(&a, &b), 0.0);
        assert_eq!(Measure::CommonItems.upper_bound(&a, &b), 0.0);
        assert_eq!(Measure::Pearson.upper_bound(&a, &b), 0.0);
        assert!(Measure::WeightedJaccard.upper_bound(&a, &b) < 1e-5);
        // Same-block long profiles still bound high.
        let c = prep(&[(2, 3.0), (6, 2.0), (21, 4.0)]);
        assert!(Measure::Cosine.upper_bound(&a, &c) > 0.5);
    }

    #[test]
    fn block_sketch_partitions_the_entries() {
        let p = prep(&[(1, 3.0), (70, 4.0), (70 + 64 * 32, 1.0)]);
        let k = p.sketch();
        // Items 1 → block 0; 70 → block 1; 70+2048 wraps back to 1.
        assert_eq!(k.block_counts[0], 1);
        assert_eq!(k.block_counts[1], 2);
        assert_eq!(k.block_counts.iter().sum::<u32>() as usize, p.stats().len);
        assert!((k.block_norms[0] - 3.0).abs() < 1e-6);
        assert!((k.block_norms[1] - (17.0f32).sqrt()).abs() < 1e-5);
        assert!((k.block_weight_sums[1] - 5.0).abs() < 1e-6);
    }

    /// The caps used to add all 32 block terms, empty blocks included;
    /// they now add only the blocks non-empty on both sides. Same
    /// terms, same order, and a skipped term was `+0.0` — so every
    /// cap, and every bound built on one, must be `to_bits`-equal to
    /// the full sum. Rows span all the shapes that matter: one block,
    /// all blocks, disjoint blocks, explicit zeros, negative weights,
    /// weights that cancel within a block, the empty row.
    #[test]
    fn masked_caps_equal_the_full_32_term_sums() {
        fn full_dot_cap(a: &BoundSketch, b: &BoundSketch) -> f64 {
            let mut cap = 0.0f64;
            for k in 0..SKETCH_BLOCKS {
                cap += a.block_norms[k] as f64 * b.block_norms[k] as f64;
            }
            cap * SKETCH_SLACK
        }
        fn full_common_items_cap(a: &BoundSketch, b: &BoundSketch) -> usize {
            (0..SKETCH_BLOCKS)
                .map(|k| a.block_counts[k].min(b.block_counts[k]) as usize)
                .sum()
        }
        fn full_min_sum_cap(a: &BoundSketch, b: &BoundSketch) -> f64 {
            let mut cap = 0.0f64;
            for k in 0..SKETCH_BLOCKS {
                cap += (a.block_weight_sums[k] as f64).min(b.block_weight_sums[k] as f64);
            }
            cap * SKETCH_SLACK
        }
        // A deterministic spread of rows: lengths 0..=70, ids striding
        // over 1, 7 or 64 per step, weights cycling through signs,
        // zeros and magnitudes.
        let weights = [0.5f32, -0.0, 3.0, 0.0, -1.25, 1.25, 7.5, 1.0e-3];
        let rows: Vec<PreparedProfile> = (0..48u32)
            .map(|r| {
                let stride = [1, 7, 64][r as usize % 3];
                let pairs: Vec<(u32, f32)> = (0..(r * 3) % 71)
                    .map(|i| {
                        (
                            r * 11 + i * stride,
                            weights[(i + r) as usize % weights.len()],
                        )
                    })
                    .collect();
                prep(&pairs)
            })
            .collect();
        for a in &rows {
            for b in &rows {
                let (ka, kb) = (a.sketch(), b.sketch());
                let common = ka.block_mask() & kb.block_mask();
                assert_eq!(
                    ka.dot_cap(kb, common).to_bits(),
                    full_dot_cap(ka, kb).to_bits()
                );
                assert_eq!(
                    ka.common_items_cap(kb, common),
                    full_common_items_cap(ka, kb)
                );
                if a.stats().is_non_negative() && b.stats().is_non_negative() {
                    assert_eq!(
                        ka.min_sum_cap(kb, common).to_bits(),
                        full_min_sum_cap(ka, kb).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn into_profile_round_trips() {
        let p = Profile::from_items(vec![1, 2]).unwrap();
        let prepared = PreparedProfile::from(p.clone());
        assert_eq!(prepared.profile(), &p);
        assert_eq!(prepared.into_profile(), p);
    }
}
