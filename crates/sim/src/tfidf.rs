//! TF-IDF re-weighting of set/bag profiles.
//!
//! Document-style workloads (see the `document_similarity` example)
//! suffer from popular-term dominance: a stop-word shared by half the
//! corpus contributes as much cosine mass as a rare discriminative
//! term. The classic fix re-weights entry `(u, i)` to
//! `tf(u, i) × idf(i)` with `idf(i) = ln(N / df(i))`, where `df(i)` is
//! the number of profiles containing item `i`.

use std::collections::HashMap;

use crate::{ItemId, Profile, ProfileStore};

/// Item document frequencies over a profile store.
///
/// ```
/// use knn_sim::tfidf::DocumentFrequencies;
/// use knn_sim::{ItemId, Profile, ProfileStore};
///
/// let store: ProfileStore = vec![
///     Profile::from_items(vec![1, 2]).unwrap(),
///     Profile::from_items(vec![2]).unwrap(),
/// ]
/// .into_iter()
/// .collect();
/// let df = DocumentFrequencies::from_store(&store);
/// assert_eq!(df.frequency(ItemId::new(2)), 2);
/// assert!(df.idf(ItemId::new(1)) > df.idf(ItemId::new(2)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DocumentFrequencies {
    num_profiles: usize,
    df: HashMap<ItemId, u32>,
}

impl DocumentFrequencies {
    /// Counts document frequencies across every profile of `store`.
    pub fn from_store(store: &ProfileStore) -> Self {
        let mut df: HashMap<ItemId, u32> = HashMap::new();
        for (_, profile) in store.iter() {
            for (item, _) in profile.iter() {
                *df.entry(item).or_insert(0) += 1;
            }
        }
        DocumentFrequencies {
            num_profiles: store.num_users(),
            df,
        }
    }

    /// Number of profiles the statistics cover.
    pub fn num_profiles(&self) -> usize {
        self.num_profiles
    }

    /// How many profiles contain `item` (0 for unseen items).
    pub fn frequency(&self, item: ItemId) -> u32 {
        self.df.get(&item).copied().unwrap_or(0)
    }

    /// The smoothed inverse document frequency
    /// `ln((1 + N) / (1 + df)) + 1` — always positive and finite, even
    /// for unseen or ubiquitous items.
    pub fn idf(&self, item: ItemId) -> f32 {
        let n = self.num_profiles as f64;
        let df = self.frequency(item) as f64;
        (((1.0 + n) / (1.0 + df)).ln() + 1.0) as f32
    }

    /// Returns `profile` re-weighted by IDF (`weight × idf(item)`).
    pub fn reweight(&self, profile: &Profile) -> Profile {
        profile
            .iter()
            .map(|(item, w)| (item, w * self.idf(item)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Measure, Similarity};

    fn corpus() -> ProfileStore {
        // Item 0 is ubiquitous ("the"); items 10/11 are discriminative.
        vec![
            Profile::from_items(vec![0, 10]).unwrap(),
            Profile::from_items(vec![0, 10]).unwrap(),
            Profile::from_items(vec![0, 11]).unwrap(),
            Profile::from_items(vec![0, 11]).unwrap(),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn df_counts_profiles_not_occurrences() {
        let df = DocumentFrequencies::from_store(&corpus());
        assert_eq!(df.frequency(ItemId::new(0)), 4);
        assert_eq!(df.frequency(ItemId::new(10)), 2);
        assert_eq!(df.frequency(ItemId::new(99)), 0);
        assert_eq!(df.num_profiles(), 4);
    }

    #[test]
    fn idf_is_positive_and_monotone_in_rarity() {
        let df = DocumentFrequencies::from_store(&corpus());
        let common = df.idf(ItemId::new(0));
        let rare = df.idf(ItemId::new(10));
        let unseen = df.idf(ItemId::new(99));
        assert!(common > 0.0);
        assert!(rare > common);
        assert!(unseen > rare);
    }

    #[test]
    fn reweighting_sharpens_cosine_contrast() {
        let store = corpus();
        let df = DocumentFrequencies::from_store(&store);
        let u = |i: u32| knn_graph::UserId::new(i);
        // Raw cosine: docs 0 and 2 share the stop item → high sim.
        let raw = Measure::Cosine.score(store.get(u(0)), store.get(u(2)));
        let a = df.reweight(store.get(u(0)));
        let b = df.reweight(store.get(u(2)));
        let weighted = Measure::Cosine.score(&a, &b);
        assert!(
            weighted < raw,
            "tf-idf should suppress stop-item similarity: {weighted} vs {raw}"
        );
        // Same-topic docs stay close to 1.
        let c = df.reweight(store.get(u(1)));
        assert!(Measure::Cosine.score(&a, &c) > 0.99);
    }

    #[test]
    fn reweight_preserves_item_set() {
        let df = DocumentFrequencies::from_store(&corpus());
        let p = Profile::from_unsorted_pairs(vec![(0, 2.0), (10, 1.0)]).unwrap();
        let rw = df.reweight(&p);
        let items: Vec<u32> = rw.iter().map(|(i, _)| i.raw()).collect();
        assert_eq!(items, vec![0, 10]);
    }
}
