//! Sparse user profiles.

use std::fmt;

use crate::ProfileError;

/// Identifier of an item (a dimension of the sparse profile space):
/// a movie, a term, a tag, a product.
///
/// ```
/// use knn_sim::ItemId;
///
/// let i = ItemId::new(12);
/// assert_eq!(i.raw(), 12);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ItemId(u32);

impl ItemId {
    /// Creates an item id from its raw value.
    pub const fn new(raw: u32) -> Self {
        ItemId(raw)
    }

    /// Returns the raw `u32` value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for ItemId {
    fn from(raw: u32) -> Self {
        ItemId(raw)
    }
}

impl From<ItemId> for u32 {
    fn from(id: ItemId) -> Self {
        id.0
    }
}

impl fmt::Debug for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ItemId({})", self.0)
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// A user profile: a sparse vector mapping items to finite weights,
/// stored sorted by item id.
///
/// A profile with all weights `1.0` behaves as a plain item *set*
/// (useful with the Jaccard and overlap measures); arbitrary weights
/// model ratings or term frequencies.
///
/// ```
/// use knn_sim::{ItemId, Profile};
///
/// let mut p = Profile::new();
/// p.set(ItemId::new(3), 4.5);
/// p.set(ItemId::new(1), 2.0);
/// assert_eq!(p.get(ItemId::new(3)), Some(4.5));
/// assert_eq!(p.len(), 2);
/// // Entries iterate in item order regardless of insertion order.
/// let items: Vec<u32> = p.iter().map(|(i, _)| i.raw()).collect();
/// assert_eq!(items, vec![1, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    entries: Vec<(ItemId, f32)>,
}

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Profile {
            entries: Vec::new(),
        }
    }

    /// Builds a profile from raw `(item, weight)` pairs in any order.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::NonFiniteWeight`] for NaN/infinite
    /// weights and [`ProfileError::DuplicateItem`] for repeated items.
    pub fn from_unsorted_pairs(pairs: Vec<(u32, f32)>) -> Result<Self, ProfileError> {
        let mut entries: Vec<(ItemId, f32)> = Vec::with_capacity(pairs.len());
        for (item, weight) in pairs {
            if !weight.is_finite() {
                return Err(ProfileError::NonFiniteWeight { item, weight });
            }
            entries.push((ItemId::new(item), weight));
        }
        entries.sort_unstable_by_key(|&(i, _)| i);
        for w in entries.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(ProfileError::DuplicateItem { item: w[0].0.raw() });
            }
        }
        Ok(Profile { entries })
    }

    /// Builds a profile from pairs that are **already sorted by item,
    /// deduplicated** — without validating weights. The trusted-input
    /// escape hatch: every other constructor enforces finite weights,
    /// so this is the only way to materialize a non-finite profile
    /// (tests use it to prove downstream layers — e.g. `knn-serve`
    /// query validation — treat profiles as untrusted anyway).
    ///
    /// Sortedness/uniqueness are `debug_assert`ed; weight finiteness
    /// deliberately is not checked at all.
    pub fn from_sorted_pairs_unchecked(pairs: Vec<(ItemId, f32)>) -> Self {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "pairs must be sorted by item and deduplicated"
        );
        Profile { entries: pairs }
    }

    /// Builds a set-semantics profile (all weights `1.0`) from item ids.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::DuplicateItem`] for repeated items.
    pub fn from_items(items: Vec<u32>) -> Result<Self, ProfileError> {
        Self::from_unsorted_pairs(items.into_iter().map(|i| (i, 1.0)).collect())
    }

    /// Number of non-zero entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the profile has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The weight of `item`, if present.
    pub fn get(&self, item: ItemId) -> Option<f32> {
        self.entries
            .binary_search_by_key(&item, |&(i, _)| i)
            .ok()
            .map(|idx| self.entries[idx].1)
    }

    /// Sets (inserts or overwrites) the weight of `item`.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not finite; use [`Profile::try_set`] for a
    /// checked variant.
    pub fn set(&mut self, item: ItemId, weight: f32) {
        self.try_set(item, weight).expect("weight must be finite");
    }

    /// Sets the weight of `item`, validating finiteness.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::NonFiniteWeight`] if `weight` is NaN or
    /// infinite.
    pub fn try_set(&mut self, item: ItemId, weight: f32) -> Result<(), ProfileError> {
        if !weight.is_finite() {
            return Err(ProfileError::NonFiniteWeight {
                item: item.raw(),
                weight,
            });
        }
        match self.entries.binary_search_by_key(&item, |&(i, _)| i) {
            Ok(idx) => self.entries[idx].1 = weight,
            Err(idx) => self.entries.insert(idx, (item, weight)),
        }
        Ok(())
    }

    /// Removes `item`, returning its weight if it was present.
    pub fn remove(&mut self, item: ItemId) -> Option<f32> {
        self.entries
            .binary_search_by_key(&item, |&(i, _)| i)
            .ok()
            .map(|idx| self.entries.remove(idx).1)
    }

    /// Iterates `(item, weight)` entries in ascending item order.
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, f32)> + '_ {
        self.entries.iter().copied()
    }

    /// The sorted entry slice (ascending item id).
    pub fn entries(&self) -> &[(ItemId, f32)] {
        &self.entries
    }

    /// Euclidean (L2) norm of the weight vector.
    pub fn l2_norm(&self) -> f64 {
        self.entries
            .iter()
            .map(|&(_, w)| (w as f64) * (w as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// Sum of weights.
    pub fn weight_sum(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| w as f64).sum()
    }

    /// Dot product with another profile (sorted merge join; shares its
    /// kernel with the similarity measures).
    pub fn dot(&self, other: &Profile) -> f64 {
        crate::similarity::dot(self.entries(), other.entries())
    }

    /// Number of items present in both profiles.
    pub fn common_items(&self, other: &Profile) -> usize {
        crate::similarity::common_items(self.entries(), other.entries())
    }

    /// Approximate heap footprint in bytes (used for memory budgeting
    /// and on-disk size estimates: each entry is an item id plus a
    /// weight, 8 bytes).
    pub fn approx_bytes(&self) -> usize {
        self.entries.len() * 8 + std::mem::size_of::<Self>()
    }
}

impl FromIterator<(ItemId, f32)> for Profile {
    /// Collects entries, keeping the **last** weight for duplicate
    /// items (like a map built by repeated insertion).
    ///
    /// # Panics
    ///
    /// Panics if a weight is non-finite.
    fn from_iter<T: IntoIterator<Item = (ItemId, f32)>>(iter: T) -> Self {
        let mut p = Profile::new();
        for (item, weight) in iter {
            p.set(item, weight);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prof(pairs: &[(u32, f32)]) -> Profile {
        Profile::from_unsorted_pairs(pairs.to_vec()).unwrap()
    }

    #[test]
    fn from_unsorted_sorts_by_item() {
        let p = prof(&[(9, 1.0), (2, 2.0), (5, 3.0)]);
        let items: Vec<u32> = p.iter().map(|(i, _)| i.raw()).collect();
        assert_eq!(items, vec![2, 5, 9]);
    }

    #[test]
    fn rejects_duplicates_and_nan() {
        assert_eq!(
            Profile::from_unsorted_pairs(vec![(1, 1.0), (1, 2.0)]),
            Err(ProfileError::DuplicateItem { item: 1 })
        );
        assert!(matches!(
            Profile::from_unsorted_pairs(vec![(1, f32::NAN)]),
            Err(ProfileError::NonFiniteWeight { item: 1, .. })
        ));
        assert!(matches!(
            Profile::from_unsorted_pairs(vec![(1, f32::INFINITY)]),
            Err(ProfileError::NonFiniteWeight { .. })
        ));
    }

    #[test]
    fn set_overwrites_and_inserts() {
        let mut p = Profile::new();
        p.set(ItemId::new(4), 1.0);
        p.set(ItemId::new(4), 2.5);
        p.set(ItemId::new(1), 0.5);
        assert_eq!(p.get(ItemId::new(4)), Some(2.5));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn try_set_rejects_non_finite() {
        let mut p = Profile::new();
        assert!(p.try_set(ItemId::new(0), f32::NEG_INFINITY).is_err());
        assert!(p.is_empty());
    }

    #[test]
    fn remove_returns_old_weight() {
        let mut p = prof(&[(1, 1.5), (2, 2.5)]);
        assert_eq!(p.remove(ItemId::new(1)), Some(1.5));
        assert_eq!(p.remove(ItemId::new(1)), None);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn dot_matches_naive() {
        let a = prof(&[(1, 2.0), (3, 1.0), (7, 4.0)]);
        let b = prof(&[(3, 5.0), (7, 0.5), (9, 9.0)]);
        // naive: 1*5 + 4*0.5 = 7
        assert!((a.dot(&b) - 7.0).abs() < 1e-9);
        assert!((b.dot(&a) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn dot_with_empty_is_zero() {
        let a = prof(&[(1, 2.0)]);
        assert_eq!(a.dot(&Profile::new()), 0.0);
    }

    #[test]
    fn common_items_counts_intersection() {
        let a = prof(&[(1, 1.0), (2, 1.0), (3, 1.0)]);
        let b = prof(&[(2, 9.0), (3, 9.0), (4, 9.0)]);
        assert_eq!(a.common_items(&b), 2);
    }

    #[test]
    fn l2_norm_and_weight_sum() {
        let p = prof(&[(0, 3.0), (1, 4.0)]);
        assert!((p.l2_norm() - 5.0).abs() < 1e-9);
        assert!((p.weight_sum() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn from_items_builds_a_set() {
        let p = Profile::from_items(vec![5, 1, 3]).unwrap();
        assert!(p.iter().all(|(_, w)| w == 1.0));
        assert_eq!(p.len(), 3);
        assert!(Profile::from_items(vec![1, 1]).is_err());
    }

    #[test]
    fn from_iterator_keeps_last_duplicate() {
        let p: Profile = vec![(ItemId::new(1), 1.0), (ItemId::new(1), 9.0)]
            .into_iter()
            .collect();
        assert_eq!(p.get(ItemId::new(1)), Some(9.0));
    }

    #[test]
    fn approx_bytes_grows_with_entries() {
        let small = prof(&[(1, 1.0)]);
        let big = prof(&[(1, 1.0), (2, 1.0), (3, 1.0)]);
        assert!(big.approx_bytes() > small.approx_bytes());
    }
}
