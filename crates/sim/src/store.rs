//! In-memory profile table.

use knn_graph::cow::CowTable;
use knn_graph::UserId;

use crate::{Profile, ProfileDelta};

/// Profiles per copy-on-write page (see [`knn_graph::cow`] for how it
/// was chosen).
const PAGE_ROWS: usize = 128;

/// The in-memory profile set `P(t)`: one [`Profile`] per user
/// `0..num_users`, with running byte accounting.
///
/// The out-of-core engine keeps only partition-sized slices of this in
/// memory; `ProfileStore` is the reference representation used to build
/// working directories, by the in-memory baselines, and by tests.
///
/// ```
/// use knn_graph::UserId;
/// use knn_sim::{Profile, ProfileStore};
///
/// let mut store = ProfileStore::new(2);
/// store.set(UserId::new(0), Profile::from_items(vec![1, 2]).unwrap());
/// assert_eq!(store.get(UserId::new(0)).len(), 2);
/// assert!(store.get(UserId::new(1)).is_empty());
/// ```
///
/// Clones share their profiles in pages of 128 until one is written,
/// so the serving layer's snapshot per update copies the few profiles
/// beside the changed one, not every user's.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileStore {
    profiles: CowTable<Profile, PAGE_ROWS>,
}

impl ProfileStore {
    /// Creates a store of `num_users` empty profiles.
    pub fn new(num_users: usize) -> Self {
        ProfileStore {
            profiles: std::iter::repeat_with(Profile::new)
                .take(num_users)
                .collect(),
        }
    }

    /// Builds a store from an explicit profile vector.
    pub fn from_profiles(profiles: Vec<Profile>) -> Self {
        profiles.into_iter().collect()
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.profiles.len()
    }

    /// The profile of `user`.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn get(&self, user: UserId) -> &Profile {
        &self.profiles.row(user.index())[0]
    }

    /// Mutable access to the profile of `user`.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn get_mut(&mut self, user: UserId) -> &mut Profile {
        &mut self.profiles.row_mut(user.index())[0]
    }

    /// Replaces the profile of `user`.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn set(&mut self, user: UserId, profile: Profile) {
        *self.get_mut(user) = profile;
    }

    /// The profile of `user`, or `None` when out of range — the
    /// non-panicking accessor used by read-only views (the serving
    /// layer must not crash on an out-of-range query id).
    pub fn get_checked(&self, user: UserId) -> Option<&Profile> {
        (user.index() < self.num_users()).then(|| self.get(user))
    }

    /// Applies one queued delta.
    ///
    /// # Panics
    ///
    /// Panics if the delta's user is out of range.
    pub fn apply_delta(&mut self, delta: &ProfileDelta) {
        delta.op.apply(self.get_mut(delta.user));
    }

    /// Applies a batch of deltas in order.
    pub fn apply_deltas<'a, I: IntoIterator<Item = &'a ProfileDelta>>(&mut self, deltas: I) {
        for d in deltas {
            self.apply_delta(d);
        }
    }

    /// Iterates `(user, profile)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, &Profile)> + '_ {
        self.profiles
            .iter()
            .enumerate()
            .map(|(i, p)| (UserId::new(i as u32), p))
    }

    /// Approximate total heap footprint of all profiles, in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.profiles.iter().map(Profile::approx_bytes).sum()
    }

    /// Total number of non-zero entries across all profiles.
    pub fn total_entries(&self) -> usize {
        self.profiles.iter().map(Profile::len).sum()
    }
}

impl FromIterator<Profile> for ProfileStore {
    fn from_iter<T: IntoIterator<Item = Profile>>(iter: T) -> Self {
        ProfileStore {
            profiles: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeltaOp, ItemId};

    #[test]
    fn new_store_is_all_empty() {
        let s = ProfileStore::new(3);
        assert_eq!(s.num_users(), 3);
        assert_eq!(s.total_entries(), 0);
        assert!(s.iter().all(|(_, p)| p.is_empty()));
    }

    #[test]
    fn set_and_get_round_trip() {
        let mut s = ProfileStore::new(2);
        let p = Profile::from_items(vec![4, 7]).unwrap();
        s.set(UserId::new(1), p.clone());
        assert_eq!(s.get(UserId::new(1)), &p);
        assert_eq!(s.total_entries(), 2);
    }

    #[test]
    fn apply_deltas_in_order() {
        let mut s = ProfileStore::new(1);
        let u = UserId::new(0);
        s.apply_deltas(&[
            ProfileDelta::set(u, ItemId::new(1), 1.0),
            ProfileDelta::set(u, ItemId::new(1), 2.0),
            ProfileDelta::new(u, DeltaOp::Clear),
            ProfileDelta::set(u, ItemId::new(2), 5.0),
        ]);
        assert_eq!(s.get(u).get(ItemId::new(1)), None);
        assert_eq!(s.get(u).get(ItemId::new(2)), Some(5.0));
    }

    #[test]
    fn a_clone_keeps_its_profiles_when_the_original_is_written() {
        let mut s: ProfileStore = (0..300u32)
            .map(|u| Profile::from_items(vec![u]).unwrap())
            .collect();
        let published = s.clone();
        s.apply_delta(&ProfileDelta::set(UserId::new(17), ItemId::new(99), 2.0));
        s.set(UserId::new(299), Profile::new());
        assert_eq!(s.get(UserId::new(17)).get(ItemId::new(99)), Some(2.0));
        assert!(s.get(UserId::new(299)).is_empty());
        assert_eq!(published.get(UserId::new(17)).get(ItemId::new(99)), None);
        assert_eq!(published.get(UserId::new(299)).len(), 1);
        assert_eq!(published.total_entries(), 300);
        assert_ne!(s, published);
    }

    #[test]
    fn collects_from_iterator() {
        let s: ProfileStore = vec![Profile::new(), Profile::from_items(vec![1]).unwrap()]
            .into_iter()
            .collect();
        assert_eq!(s.num_users(), 2);
        assert_eq!(s.total_entries(), 1);
    }

    #[test]
    fn get_checked_bounds() {
        let mut s = ProfileStore::new(2);
        s.get_mut(UserId::new(1)).set(ItemId::new(3), 1.5);
        assert_eq!(
            s.get_checked(UserId::new(1)).unwrap().get(ItemId::new(3)),
            Some(1.5)
        );
        assert!(s.get_checked(UserId::new(2)).is_none());
    }

    #[test]
    fn byte_accounting_tracks_growth() {
        let mut s = ProfileStore::new(1);
        let before = s.approx_bytes();
        s.get_mut(UserId::new(0)).set(ItemId::new(1), 1.0);
        assert!(s.approx_bytes() > before);
    }
}
