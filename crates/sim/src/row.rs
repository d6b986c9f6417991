//! The row kernel: one source row against any number of candidates.
//!
//! Phase 4's bucket tuples arrive sorted by `(u, v)`, in runs of
//! hundreds of candidates `v` per source `u`. That is 1×N, and a
//! two-pointer merge per pair ([`Measure::score_ref`]) walks the
//! source row afresh every time, with a three-way branch per step that
//! no predictor learns.
//!
//! [`RowKernel`] loads the source once into a small open-addressed
//! probe — 2 KiB for a 30-entry row, resident in L1 for the whole
//! run — and then scores a candidate by walking only the
//! candidate's id column: each id is hashed and looked up, and weights
//! are touched only on a hit. Item ids are arbitrary `u32`s; nothing
//! is assumed about the catalog.
//!
//! Scores are **bit-identical** to [`Measure::score_ref`] with the
//! source as the first operand: the candidate's ids ascend, so hits
//! arrive in the ascending item order the merge meets them in, the
//! same products are added in the same order, and misses add nothing.
//! The measures' closing arithmetic is the very code the pair kernels
//! run ([`crate::similarity`]). Weighted Jaccard is the exception that
//! proves the rule: it sums over the *union* of the two item sets in
//! item order, which only a merge produces, so for it the kernel
//! merges the resident row with the candidate.

use crate::similarity::{
    cosine_of, dice_of, jaccard_of, overlap_of, pearson_of, weighted_jaccard, Entries, Row,
};
use crate::{Measure, PreparedRef};

/// Probe slots per source entry (a power of two). Most candidate ids
/// miss, and a miss that lands on an empty slot is a branch the
/// predictor learns; one that lands on an occupied slot is not. At 4
/// slots per entry the kernel took 0.60 of the pair kernel's time on
/// recommender-shaped rows, at 16 it takes 0.33 (and a separate
/// presence bitmap in front of a denser table was no better).
const SLOTS_PER_ENTRY: usize = 16;

/// Smallest and largest probe table. A slot holds a `u32`, and the
/// probe needs an empty slot to stop at, so a row must be shorter
/// than the largest table.
const MIN_SLOTS: usize = 8;
const MAX_SLOTS: usize = 1 << 31;

/// One probe slot: 0 when empty, else one plus the position in the
/// source row of the item that hashed here — ids are compared in the
/// row itself, so every `u32`, `u32::MAX` included, is a usable id.
type Slot = u32;

/// Scores one resident source row against candidate rows (see the
/// module docs). Load a row, score a run, load the next: the buffers
/// are reused, so a kernel allocates only when a row outgrows every
/// earlier one.
///
/// ```
/// use knn_sim::{Measure, ProfileArena, RowKernel};
///
/// let mut rows = ProfileArena::builder(2, 4);
/// rows.push(0, vec![(1, 2.0), (2, 1.0)]).unwrap();
/// rows.push(1, vec![(2, 1.0), (3, 4.0)]).unwrap();
/// let rows = rows.finish();
/// let mut kernel = RowKernel::new(Measure::Cosine);
/// kernel.load(rows.view(0));
/// assert_eq!(
///     kernel.score(rows.view(1)),
///     Measure::Cosine.score_ref(rows.view(0), rows.view(1))
/// );
/// ```
#[derive(Debug, Clone)]
pub struct RowKernel {
    measure: Measure,
    items: Vec<u32>,
    weights: Vec<f32>,
    l2_norm: f64,
    slots: Vec<Slot>,
    /// `32 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
}

impl RowKernel {
    /// A kernel for `measure` with an empty row resident.
    pub fn new(measure: Measure) -> Self {
        RowKernel {
            measure,
            items: Vec::new(),
            weights: Vec::new(),
            l2_norm: 0.0,
            slots: vec![0; MIN_SLOTS],
            shift: u32::BITS - MIN_SLOTS.trailing_zeros(),
        }
    }

    /// Makes `row` the resident source.
    pub fn load(&mut self, row: PreparedRef<'_>) {
        match row.entries() {
            Entries::Pairs(pairs) => self.load_row(pairs, row.stats().l2_norm),
            Entries::Columns { items, weights } => {
                self.load_row((items, weights), row.stats().l2_norm)
            }
        }
    }

    fn load_row<R: Row>(&mut self, row: R, l2_norm: f64) {
        let len = row.len();
        assert!(len < MAX_SLOTS, "a {len}-entry row outgrows the probe");
        self.items.clear();
        self.items.extend((0..len).map(|i| row.item(i)));
        self.weights.clear();
        self.weights.extend((0..len).map(|i| row.weight(i)));
        self.l2_norm = l2_norm;
        if self.measure == Measure::WeightedJaccard {
            // Merges against the resident row; never probes.
            return;
        }

        let wanted = (len as u64 * SLOTS_PER_ENTRY as u64)
            .next_power_of_two()
            .clamp(MIN_SLOTS as u64, MAX_SLOTS as u64) as usize;
        self.slots.clear();
        self.slots.resize(wanted, 0);
        self.shift = u32::BITS - wanted.trailing_zeros();
        let mask = wanted - 1;
        for (pos, &item) in self.items.iter().enumerate() {
            let mut at = self.slot_of(item);
            while self.slots[at] != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = pos as u32 + 1;
        }
    }

    /// Fibonacci hashing: consecutive ids — what real catalogs and the
    /// generators produce — spread over the whole table.
    fn slot_of(&self, item: u32) -> usize {
        (item.wrapping_mul(0x9E37_79B9) >> self.shift) as usize
    }

    /// The resident row's position of `item`, if it holds it.
    fn find(&self, item: u32) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut at = self.slot_of(item);
        loop {
            let tag = self.slots[at & mask];
            if tag == 0 {
                return None;
            }
            if self.items[tag as usize - 1] == item {
                return Some(tag as usize - 1);
            }
            at += 1;
        }
    }

    /// Scores the resident row against `cand`; bit-identical to
    /// `measure.score_ref(source, cand)`.
    pub fn score(&self, cand: PreparedRef<'_>) -> f32 {
        let norm = || cand.stats().l2_norm;
        match cand.entries() {
            Entries::Pairs(pairs) => self.score_row(pairs, norm),
            Entries::Columns { items, weights } => self.score_row((items, weights), norm),
        }
    }

    /// `cand_norm` is called only by the measures that need it.
    fn score_row<R: Row>(&self, cand: R, cand_norm: impl FnOnce() -> f64) -> f32 {
        let (a_len, b_len) = (self.items.len(), cand.len());
        let v = match self.measure {
            Measure::Cosine => cosine_of(self.l2_norm, cand_norm(), || self.dot(cand)),
            Measure::Jaccard => jaccard_of(self.common_items(cand), a_len, b_len),
            Measure::WeightedJaccard => {
                weighted_jaccard((self.items.as_slice(), self.weights.as_slice()), cand)
            }
            Measure::Overlap => overlap_of(self.common_items(cand), a_len, b_len),
            Measure::CommonItems => self.common_items(cand) as f64,
            Measure::Pearson => pearson_of(|hit| {
                self.for_each_hit(cand, |i, j| {
                    hit(self.weights[i] as f64, cand.weight(j) as f64)
                })
            }),
            Measure::Dice => dice_of(self.common_items(cand), a_len, b_len),
        };
        debug_assert!(
            v.is_finite(),
            "{} produced non-finite score {v}",
            self.measure
        );
        v as f32
    }

    /// Calls `hit(i, j)` for every item the resident row (at position
    /// `i`) shares with `cand` (at position `j`), in ascending item
    /// order — the order a merge of the two rows meets them in.
    fn for_each_hit<R: Row>(&self, cand: R, mut hit: impl FnMut(usize, usize)) {
        for j in 0..cand.len() {
            if let Some(i) = self.find(cand.item(j)) {
                hit(i, j);
            }
        }
    }

    fn dot<R: Row>(&self, cand: R) -> f64 {
        let mut acc = 0.0f64;
        self.for_each_hit(cand, |i, j| {
            acc += self.weights[i] as f64 * cand.weight(j) as f64
        });
        acc
    }

    fn common_items<R: Row>(&self, cand: R) -> usize {
        let mut count = 0usize;
        self.for_each_hit(cand, |_, _| count += 1);
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Profile, ProfileArena, ProfileStats, Similarity};

    fn arena_of(rows: &[Vec<(u32, f32)>]) -> ProfileArena {
        let mut b = ProfileArena::builder(rows.len(), 16);
        for (user, pairs) in rows.iter().enumerate() {
            b.push(user as u32, pairs.clone()).unwrap();
        }
        b.finish()
    }

    /// Every row against every row, both through arena views and
    /// through views of plain profiles, for every measure.
    fn assert_matches_pair_kernel(rows: &[Vec<(u32, f32)>]) {
        let arena = arena_of(rows);
        let profiles: Vec<Profile> = rows
            .iter()
            .map(|r| Profile::from_unsorted_pairs(r.clone()).unwrap())
            .collect();
        let prepared: Vec<_> = profiles.iter().map(ProfileStats::with_sketch).collect();
        let pairs_view = |i: usize| {
            let (stats, sketch) = &prepared[i];
            PreparedRef::new(profiles[i].entries(), stats, sketch)
        };
        for m in Measure::ALL {
            let mut kernel = RowKernel::new(m);
            for i in 0..rows.len() {
                kernel.load(arena.view(i as u32));
                for j in 0..rows.len() {
                    assert_eq!(
                        kernel.score(arena.view(j as u32)).to_bits(),
                        m.score_ref(arena.view(i as u32), arena.view(j as u32))
                            .to_bits(),
                        "{m}: rows {i} x {j} (views)"
                    );
                }
                kernel.load(pairs_view(i));
                for j in 0..rows.len() {
                    assert_eq!(
                        kernel.score(pairs_view(j)).to_bits(),
                        m.score(&profiles[i], &profiles[j]).to_bits(),
                        "{m}: rows {i} x {j} (profiles)"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_the_pair_kernel_on_samples() {
        assert_matches_pair_kernel(&[
            vec![(1, 1.0), (2, -2.0), (9, 0.5)],
            vec![(2, 3.0), (9, 1.0)],
            vec![],
            vec![(100, 1.0), (1, 0.25), (3, 4.0)],
            vec![(u32::MAX, 2.0), (0, -0.0), (7, 0.0)],
            vec![(u32::MAX, -1.5), (0, 3.0), (9, -0.0)],
            vec![(5, 1.0)],
        ]);
    }

    /// Ids that all hash to one slot of the smallest tables: every
    /// lookup past the first walks a probe chain, hits and misses
    /// alike.
    #[test]
    fn colliding_ids_still_resolve_exactly() {
        let probe = RowKernel::new(Measure::Cosine);
        let colliding: Vec<u32> = (0..u32::MAX)
            .filter(|&id| probe.slot_of(id) == 3)
            .take(12)
            .collect();
        assert_eq!(colliding.len(), 12);
        let weights = |ids: &[u32], scale: f32| -> Vec<(u32, f32)> {
            ids.iter()
                .enumerate()
                .map(|(i, &id)| (id, scale * (i as f32 + 1.0)))
                .collect()
        };
        assert_matches_pair_kernel(&[
            weights(&colliding[..2], 1.0),
            weights(&colliding[1..4], -0.5),
            weights(&colliding[..8], 0.25),
            weights(&colliding[4..], 2.0),
            weights(&colliding, 1.5),
        ]);
    }

    #[test]
    fn reloading_forgets_the_previous_row() {
        let arena = arena_of(&[
            (0..40).map(|i| (i * 3, 1.0 + i as f32)).collect(),
            vec![(3, 1.0), (6, 2.0)],
            (0..40).map(|i| (i * 3, 0.5)).collect(),
        ]);
        let mut kernel = RowKernel::new(Measure::CommonItems);
        kernel.load(arena.view(0));
        assert_eq!(kernel.score(arena.view(2)), 40.0);
        // A shorter row: the table shrinks and the long row's ids are gone.
        kernel.load(arena.view(1));
        assert_eq!(kernel.score(arena.view(2)), 2.0);
        assert_eq!(kernel.score(arena.view(1)), 2.0);
    }
}
