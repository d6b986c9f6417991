//! Arena-backed prepared profiles: one CSR allocation per partition.
//!
//! Phase 4 used to wrap every loaded profile in its own
//! [`crate::PreparedProfile`] inside a hash map — one heap allocation
//! per user for the entry vector, another for the boxed sketch, and a
//! fat map entry per lookup. At partition scale that is thousands of
//! small allocations per load and a pointer chase per scored pair.
//!
//! [`ProfileArena`] replaces the per-user objects with columns shared
//! by the whole partition:
//!
//! * `offsets` — CSR row boundaries (`offsets[i]..offsets[i+1]` is
//!   user `i`'s entry range);
//! * `items` / `weights` — every user's sorted item ids and, in the
//!   same order, their weights, concatenated. The two are separate
//!   columns because the kernels compare ids on every step and touch a
//!   weight only where two rows meet: a walk over the id column reads
//!   half the bytes an `(item, weight)` column would;
//! * `stats` / `sketches` / `block_masks` — the per-user
//!   [`ProfileStats`], [`BoundSketch`] and
//!   [`BoundSketch::block_mask`], in row order.
//!
//! [`PreparedRef`] is the borrowing view over one row: pointers and
//! slice lengths, created on demand — no allocation, no clone.
//! [`Measure::score_ref`] and [`Measure::upper_bound_ref`] run the
//! *same* generic kernel functions as the owned
//! [`crate::Measure::score_prepared`] path, so the scores are
//! bit-identical by construction (property-tested in
//! `tests/properties.rs`); [`crate::RowKernel`] scores one view
//! against a whole run of others.
//!
//! Rows are appended in ascending user order — exactly the order of
//! the engine's per-partition profile streams, which is what lets
//! phase 4 materialize the arena in one pass over a stream read.

use crate::prepared::{upper_bound_parts, BoundSketch, ProfileStats};
use crate::similarity::{score_entries, Entries};
use crate::{ItemId, Measure, ProfileError};

/// The per-partition CSR profile arena (see the module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileArena {
    users: Vec<u32>,
    offsets: Vec<u32>,
    items: Vec<u32>,
    weights: Vec<f32>,
    stats: Vec<ProfileStats>,
    sketches: Vec<BoundSketch>,
    block_masks: Vec<u32>,
}

impl ProfileArena {
    /// Starts building an arena, reserving for `users` rows and
    /// `entries` total profile entries.
    pub fn builder(users: usize, entries: usize) -> ProfileArenaBuilder {
        ProfileArenaBuilder {
            arena: ProfileArena {
                users: Vec::with_capacity(users),
                offsets: {
                    let mut v = Vec::with_capacity(users + 1);
                    v.push(0);
                    v
                },
                items: Vec::with_capacity(entries),
                weights: Vec::with_capacity(entries),
                stats: Vec::with_capacity(users),
                sketches: Vec::with_capacity(users),
                block_masks: Vec::with_capacity(users),
            },
        }
    }

    /// Number of profiles stored.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the arena holds no profiles.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Total profile entries across all rows.
    pub fn entry_count(&self) -> usize {
        self.items.len()
    }

    /// The stored user ids, ascending (row order).
    pub fn users(&self) -> &[u32] {
        &self.users
    }

    /// The row index of `user`, if present (binary search over the
    /// sorted user column; hot paths should cache the index).
    pub fn index_of(&self, user: u32) -> Option<u32> {
        self.users.binary_search(&user).ok().map(|i| i as u32)
    }

    /// The borrowing prepared view of row `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn view(&self, idx: u32) -> PreparedRef<'_> {
        let i = idx as usize;
        let (start, end) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        PreparedRef {
            entries: Entries::Columns {
                items: &self.items[start..end],
                weights: &self.weights[start..end],
            },
            stats: &self.stats[i],
            sketch: &self.sketches[i],
            block_mask: self.block_masks[i],
        }
    }

    /// The view of `user`'s row, resolving the index first.
    pub fn get(&self, user: u32) -> Option<PreparedRef<'_>> {
        self.index_of(user).map(|i| self.view(i))
    }
}

/// Incremental [`ProfileArena`] constructor; rows arrive in strictly
/// ascending user order.
#[derive(Debug)]
pub struct ProfileArenaBuilder {
    arena: ProfileArena,
}

impl ProfileArenaBuilder {
    /// Appends one user's profile row from raw `(item, weight)` pairs
    /// in any order, validating exactly like
    /// [`crate::Profile::from_unsorted_pairs`] and computing the row's
    /// stats and sketch over the sorted entries.
    ///
    /// # Errors
    ///
    /// [`ProfileError::NonFiniteWeight`] / [`ProfileError::DuplicateItem`]
    /// for invalid rows, [`ProfileError::OutOfOrderUser`] when `user`
    /// is not strictly greater than the previously pushed one.
    pub fn push(&mut self, user: u32, mut pairs: Vec<(u32, f32)>) -> Result<(), ProfileError> {
        if self.arena.users.last().is_some_and(|&last| last >= user) {
            return Err(ProfileError::OutOfOrderUser { user });
        }
        if let Some(&(item, weight)) = pairs.iter().find(|(_, w)| !w.is_finite()) {
            return Err(ProfileError::NonFiniteWeight { item, weight });
        }
        pairs.sort_unstable_by_key(|&(i, _)| i);
        if let Some(w) = pairs.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(ProfileError::DuplicateItem { item: w[0].0 });
        }
        let (stats, sketch) = ProfileStats::with_sketch_of(pairs.iter().copied());
        self.arena.items.extend(pairs.iter().map(|&(i, _)| i));
        self.arena.weights.extend(pairs.iter().map(|&(_, w)| w));
        self.arena.users.push(user);
        self.arena.offsets.push(self.arena.items.len() as u32);
        self.arena.stats.push(stats);
        self.arena.block_masks.push(sketch.block_mask());
        self.arena.sketches.push(sketch);
        Ok(())
    }

    /// Finishes the arena.
    pub fn finish(self) -> ProfileArena {
        self.arena
    }
}

/// A borrowed prepared profile: the operand of [`Measure::score_ref`]
/// and [`Measure::upper_bound_ref`] — slices into a
/// [`ProfileArena`]'s columns (or into a [`crate::Profile`]), no
/// ownership, no allocation.
#[derive(Debug, Clone, Copy)]
pub struct PreparedRef<'a> {
    entries: Entries<'a>,
    stats: &'a ProfileStats,
    sketch: &'a BoundSketch,
    block_mask: u32,
}

impl<'a> PreparedRef<'a> {
    /// Assembles a view from parts the caller prepared: a sorted,
    /// deduplicated entry slice plus the matching
    /// [`ProfileStats::with_sketch`] outputs. This is how callers
    /// outside the arena (e.g. the serving layer's online repair
    /// search) run ad-hoc profiles through the exact same score and
    /// upper-bound kernels phase 4 uses — same funnel, same skips,
    /// bit-identical scores.
    pub fn new(
        entries: &'a [(ItemId, f32)],
        stats: &'a ProfileStats,
        sketch: &'a BoundSketch,
    ) -> Self {
        Self::from_parts(Entries::Pairs(entries), stats, sketch, sketch.block_mask())
    }

    /// A view whose `block_mask` the caller computed once and kept.
    pub(crate) fn from_parts(
        entries: Entries<'a>,
        stats: &'a ProfileStats,
        sketch: &'a BoundSketch,
        block_mask: u32,
    ) -> Self {
        PreparedRef {
            entries,
            stats,
            sketch,
            block_mask,
        }
    }

    /// The sorted entries.
    pub fn entries(&self) -> Entries<'a> {
        self.entries
    }

    /// The precomputed scalar aggregates.
    pub fn stats(&self) -> &'a ProfileStats {
        self.stats
    }

    /// The precomputed bound sketch.
    pub fn sketch(&self) -> &'a BoundSketch {
        self.sketch
    }

    /// The sketch's [`BoundSketch::block_mask`], computed once.
    pub(crate) fn block_mask(&self) -> u32 {
        self.block_mask
    }
}

impl Measure {
    /// Scores two views — the single-pair entry point, a two-pointer
    /// merge of the two rows. Bit-identical to
    /// [`Measure::score_prepared`] (and therefore to
    /// [`crate::Similarity::score`]) on the same profiles: the same
    /// kernel runs over the same sorted entries with the same
    /// precomputed aggregates.
    pub fn score_ref(&self, a: PreparedRef<'_>, b: PreparedRef<'_>) -> f32 {
        let v = score_entries(*self, a.entries, a.stats, b.entries, b.stats);
        debug_assert!(v.is_finite(), "{self} produced non-finite score {v}");
        v as f32
    }

    /// The O(1) score ceiling of two arena views; identical to
    /// [`Measure::upper_bound`] on the same profiles.
    pub fn upper_bound_ref(&self, a: PreparedRef<'_>, b: PreparedRef<'_>) -> f32 {
        upper_bound_parts(*self, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PreparedProfile, Profile};

    fn arena_of(rows: &[(u32, Vec<(u32, f32)>)]) -> ProfileArena {
        let mut b = ProfileArena::builder(rows.len(), 16);
        for (user, pairs) in rows {
            b.push(*user, pairs.clone()).unwrap();
        }
        b.finish()
    }

    #[test]
    fn views_score_bit_identically_to_prepared_profiles() {
        let rows = vec![
            (0u32, vec![(1u32, 1.0f32), (2, -2.0), (9, 0.5)]),
            (3, vec![(2, 3.0), (9, 1.0)]),
            (4, vec![]),
            (9, vec![(100, 1.0), (1, 0.25), (3, 4.0)]),
        ];
        let arena = arena_of(&rows);
        let prepared: Vec<PreparedProfile> = rows
            .iter()
            .map(|(_, p)| PreparedProfile::new(Profile::from_unsorted_pairs(p.clone()).unwrap()))
            .collect();
        for m in Measure::ALL {
            for i in 0..rows.len() {
                for j in 0..rows.len() {
                    let via_ref = m.score_ref(arena.view(i as u32), arena.view(j as u32));
                    let via_owned = m.score_prepared(&prepared[i], &prepared[j]);
                    assert_eq!(via_ref.to_bits(), via_owned.to_bits(), "{m} diverged");
                    let bound_ref = m.upper_bound_ref(arena.view(i as u32), arena.view(j as u32));
                    let bound_owned = m.upper_bound(&prepared[i], &prepared[j]);
                    assert_eq!(bound_ref.to_bits(), bound_owned.to_bits(), "{m} bound");
                }
            }
        }
    }

    #[test]
    fn index_and_views_resolve_rows() {
        let arena = arena_of(&[(2, vec![(5, 1.0)]), (7, vec![(1, 2.0), (3, 4.0)])]);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.entry_count(), 3);
        assert_eq!(arena.users(), &[2, 7]);
        assert_eq!(arena.index_of(7), Some(1));
        assert_eq!(arena.index_of(3), None);
        let v = arena.get(7).unwrap();
        assert_eq!(v.entries().len(), 2);
        assert_eq!(v.stats().len, 2);
        assert!(
            matches!(v.entries(), Entries::Columns { items: [1, 3], .. }),
            "entries sorted by item"
        );
        assert!(arena.get(3).is_none());
    }

    #[test]
    fn builder_rejects_out_of_order_and_invalid_rows() {
        let mut b = ProfileArena::builder(4, 4);
        b.push(5, vec![(1, 1.0)]).unwrap();
        assert_eq!(
            b.push(5, vec![]),
            Err(ProfileError::OutOfOrderUser { user: 5 })
        );
        assert_eq!(
            b.push(2, vec![]),
            Err(ProfileError::OutOfOrderUser { user: 2 })
        );
        assert_eq!(
            b.push(8, vec![(3, 1.0), (3, 2.0)]),
            Err(ProfileError::DuplicateItem { item: 3 })
        );
        assert!(matches!(
            b.push(9, vec![(1, f32::NAN)]),
            Err(ProfileError::NonFiniteWeight { item: 1, .. })
        ));
        // Failed pushes leave no partial row behind.
        b.push(10, vec![(2, 2.0)]).unwrap();
        let arena = b.finish();
        assert_eq!(arena.users(), &[5, 10]);
        assert_eq!(arena.entry_count(), 2);
    }

    #[test]
    fn empty_arena_and_empty_rows() {
        let empty = ProfileArena::builder(0, 0).finish();
        assert!(empty.is_empty());
        assert_eq!(empty.index_of(0), None);
        let arena = arena_of(&[(0, vec![])]);
        let v = arena.view(0);
        assert!(v.entries().is_empty());
        assert_eq!(v.stats().len, 0);
        assert_eq!(Measure::Cosine.score_ref(v, v), 0.0);
    }
}
