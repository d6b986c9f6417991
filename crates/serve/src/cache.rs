//! Generation-keyed cache of ad-hoc profile queries.
//!
//! It caches `query_profile`'s exact scan, the one read path that
//! costs more than the cache: `neighbors` is a slice read of the
//! snapshot and never goes through here. Answers are pure functions of (snapshot generation, query), so a
//! cache entry is valid exactly as long as the generation it was
//! computed against stays published. The cache therefore keys every
//! entry on a generation and **drops everything** the first time it is
//! consulted with a newer one — invalidation rides the epoch counter
//! the snapshot cell already maintains, no extra coordination with the
//! refinement loop.
//!
//! Hits are bit-identical to uncached answers by construction: the
//! cached value *is* the `Vec<Neighbor>` a cache-miss computation
//! produced for the same generation, and snapshots are immutable.
//! Capacity is bounded with FIFO eviction — the serve layer's read
//! paths are already cheap, so the cache targets the common
//! hot-user/hot-query case without pretending to be an LRU.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use knn_graph::Neighbor;
use knn_sim::Profile;

/// What a cached answer is keyed on (besides the generation): the
/// `query_profile(query, k)` call exactly — the profile's entries with
/// their weights' exact bit patterns, so two queries share an entry
/// only if they are bit-identical (no false hits from `-0.0`/`0.0` or
/// NaN payload differences; NaNs never get here — queries are
/// validated finite first).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    entries: Vec<(u32, u32)>,
    k: usize,
}

impl CacheKey {
    pub(crate) fn profile(query: &Profile, k: usize) -> Self {
        CacheKey {
            entries: query
                .iter()
                .map(|(item, w)| (item.raw(), w.to_bits()))
                .collect(),
            k,
        }
    }
}

#[derive(Debug, Default)]
struct CacheState {
    /// Generation every resident entry belongs to.
    generation: u64,
    map: HashMap<CacheKey, Vec<Neighbor>>,
    /// Insertion order, for FIFO eviction.
    order: VecDeque<CacheKey>,
}

/// A capacity-bounded, generation-keyed map from queries to answers.
/// `capacity == 0` disables it entirely (no locking, no counters).
#[derive(Debug)]
pub(crate) struct QueryCache {
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    state: Mutex<CacheState>,
}

impl QueryCache {
    pub(crate) fn new(capacity: usize) -> Self {
        QueryCache {
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            state: Mutex::new(CacheState::default()),
        }
    }

    /// Looks up `key` under `generation`. A lookup under a generation
    /// other than the resident one clears the cache first (stale
    /// entries can never be returned) and re-homes it — swaps are rare
    /// relative to queries, so wholesale invalidation is the simple
    /// *and* cheap choice.
    pub(crate) fn get(&self, generation: u64, key: &CacheKey) -> Option<Vec<Neighbor>> {
        if self.capacity == 0 {
            return None;
        }
        let mut state = self.state.lock().expect("cache lock poisoned");
        if state.generation != generation {
            state.map.clear();
            state.order.clear();
            state.generation = generation;
        }
        match state.map.get(key) {
            Some(answer) => {
                let answer = answer.clone();
                drop(state);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(answer)
            }
            None => {
                drop(state);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores an answer computed against `generation`. Ignored if the
    /// resident generation has moved on (the answer would be stale on
    /// arrival).
    pub(crate) fn insert(&self, generation: u64, key: CacheKey, answer: &[Neighbor]) {
        if self.capacity == 0 {
            return;
        }
        let mut state = self.state.lock().expect("cache lock poisoned");
        if state.generation != generation {
            return;
        }
        if state.map.len() >= self.capacity && !state.map.contains_key(&key) {
            if let Some(evict) = state.order.pop_front() {
                state.map.remove(&evict);
            }
        }
        if state.map.insert(key.clone(), answer.to_vec()).is_none() {
            state.order.push_back(key);
        }
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_graph::UserId;

    /// The key of a one-item query on item `item`.
    fn key(item: u32) -> CacheKey {
        let mut query = Profile::new();
        query.set(knn_sim::ItemId::new(item), 1.0);
        CacheKey::profile(&query, 3)
    }

    fn row(id: u32, sim: f32) -> Vec<Neighbor> {
        vec![Neighbor::new(UserId::new(id), sim)]
    }

    #[test]
    fn miss_then_hit_same_generation() {
        let cache = QueryCache::new(4);
        let key = key(7);
        assert_eq!(cache.get(3, &key), None);
        cache.insert(3, key.clone(), &row(1, 0.5));
        assert_eq!(cache.get(3, &key), Some(row(1, 0.5)));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn generation_change_invalidates_everything() {
        let cache = QueryCache::new(4);
        let key = key(7);
        cache.get(3, &key);
        cache.insert(3, key.clone(), &row(1, 0.5));
        // New generation: the old entry must not surface.
        assert_eq!(cache.get(4, &key), None);
        // And a stale insert (computed against gen 3) is dropped.
        cache.insert(3, key.clone(), &row(1, 0.5));
        assert_eq!(cache.get(4, &key), None);
        cache.insert(4, key.clone(), &row(2, 0.9));
        assert_eq!(cache.get(4, &key), Some(row(2, 0.9)));
    }

    #[test]
    fn capacity_bounds_residency_fifo() {
        let cache = QueryCache::new(2);
        for u in 0..3u32 {
            let key = key(u);
            cache.get(0, &key);
            cache.insert(0, key, &row(u, 0.1));
        }
        // Oldest (user 0) was evicted; the two newest survive.
        assert_eq!(cache.get(0, &key(0)), None);
        assert!(cache.get(0, &key(1)).is_some());
        assert!(cache.get(0, &key(2)).is_some());
    }

    #[test]
    fn zero_capacity_disables_without_counting() {
        let cache = QueryCache::new(0);
        let key = key(0);
        assert_eq!(cache.get(0, &key), None);
        cache.insert(0, key.clone(), &row(0, 1.0));
        assert_eq!(cache.get(0, &key), None);
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn profile_keys_are_bit_exact() {
        let mut a = Profile::new();
        a.set(knn_sim::ItemId::new(1), 0.0);
        let mut b = Profile::new();
        b.set(knn_sim::ItemId::new(1), -0.0);
        // 0.0 == -0.0 under f32 PartialEq, but the keys must differ.
        assert_ne!(CacheKey::profile(&a, 5), CacheKey::profile(&b, 5));
        assert_eq!(CacheKey::profile(&a, 5), CacheKey::profile(&a, 5));
        assert_ne!(CacheKey::profile(&a, 5), CacheKey::profile(&a, 6));
    }
}
