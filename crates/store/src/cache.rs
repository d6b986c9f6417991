//! The bounded resident-partition cache.
//!
//! The paper's memory constraint is explicit: *"we load the profiles of
//! at most two partitions Ri and Rj at any point"*. [`SlotCache`] is
//! that constraint as a data structure — a `capacity`-slot LRU whose
//! load callback brings a partition's read-only payload in, whose
//! evictions drop it, and whose operation counters are exactly the
//! metric of the paper's Table 1. The phase-4 executor runs it with
//! profile arenas; the Table-1 simulator runs it with `()` payloads as
//! a dry run.

use crate::IoStats;
use std::sync::Arc;

/// Load/unload operation counters of a [`SlotCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Number of load operations (misses).
    pub loads: u64,
    /// Number of unload operations (evictions + flushes).
    pub unloads: u64,
    /// Number of hits (requests satisfied by a resident slot).
    pub hits: u64,
}

impl CacheCounters {
    /// Loads + unloads: the paper's Table-1 metric.
    pub fn total_ops(&self) -> u64 {
        self.loads + self.unloads
    }
}

/// A fixed-capacity cache of partition payloads with LRU eviction and
/// full load/unload accounting.
///
/// `ensure` brings a partition in (calling `load` on miss, evicting —
/// dropping — the least-recently-used non-pinned resident), `get`
/// reads a resident payload, and `flush` unloads everything. Payloads
/// are read-only: an unload has nothing to write back.
///
/// ```
/// use knn_store::SlotCache;
///
/// let mut cache: SlotCache<String> = SlotCache::new(2);
/// let load = |id: u32| Ok::<_, std::io::Error>(format!("payload {id}"));
/// cache.ensure(1, None, load).unwrap();
/// cache.ensure(2, Some(1), load).unwrap();
/// // Loading 3 with 1 pinned evicts 2 (the LRU non-pinned resident).
/// cache.ensure(3, Some(1), load).unwrap();
/// assert!(cache.get(1).is_some() && cache.get(3).is_some());
/// assert!(cache.get(2).is_none());
/// assert_eq!(cache.counters().loads, 3);
/// assert_eq!(cache.counters().unloads, 1);
/// ```
#[derive(Debug)]
pub struct SlotCache<T> {
    capacity: usize,
    /// Resident entries ordered least-recently-used first.
    slots: Vec<(u32, T)>,
    counters: CacheCounters,
    io_stats: Option<Arc<IoStats>>,
}

impl<T> SlotCache<T> {
    /// Creates a cache with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache needs at least one slot");
        SlotCache {
            capacity,
            slots: Vec::with_capacity(capacity),
            counters: CacheCounters::default(),
            io_stats: None,
        }
    }

    /// Mirrors load/unload counts into shared [`IoStats`] in addition
    /// to the local counters.
    pub fn with_io_stats(mut self, stats: Arc<IoStats>) -> Self {
        self.io_stats = Some(stats);
        self
    }

    /// The slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Ids currently resident, least-recently-used first.
    pub fn resident(&self) -> Vec<u32> {
        self.slots.iter().map(|&(id, _)| id).collect()
    }

    /// The operation counters so far.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Whether `id` is resident.
    pub fn contains(&self, id: u32) -> bool {
        self.slots.iter().any(|&(sid, _)| sid == id)
    }

    /// Shared access to a resident payload (does not touch LRU order).
    pub fn get(&self, id: u32) -> Option<&T> {
        self.slots
            .iter()
            .find(|&&(sid, _)| sid == id)
            .map(|(_, t)| t)
    }

    /// Ensures `id` is resident: counts a hit if present (refreshing
    /// LRU order), otherwise loads it, evicting the least-recently-used
    /// resident other than `pinned` if the cache is full.
    ///
    /// # Errors
    ///
    /// Propagates errors from the `load` callback; on error the cache
    /// state is unchanged except for an already-completed eviction.
    ///
    /// # Panics
    ///
    /// Panics if eviction is required but every resident is pinned
    /// (only possible when `capacity == 1` and `pinned` is resident).
    pub fn ensure<E>(
        &mut self,
        id: u32,
        pinned: Option<u32>,
        load: impl FnOnce(u32) -> Result<T, E>,
    ) -> Result<(), E> {
        if let Some(pos) = self.slots.iter().position(|&(sid, _)| sid == id) {
            // Hit: move to most-recently-used position.
            let entry = self.slots.remove(pos);
            self.slots.push(entry);
            self.counters.hits += 1;
            return Ok(());
        }
        if self.slots.len() == self.capacity {
            let victim_pos = self
                .slots
                .iter()
                .position(|&(sid, _)| Some(sid) != pinned)
                .expect("cannot evict: all residents pinned");
            self.slots.remove(victim_pos);
            self.counters.unloads += 1;
            if let Some(s) = &self.io_stats {
                s.record_partition_unload();
            }
        }
        let payload = load(id)?;
        self.counters.loads += 1;
        if let Some(s) = &self.io_stats {
            s.record_partition_load();
        }
        self.slots.push((id, payload));
        Ok(())
    }

    /// Unloads every resident payload (counted), e.g. at end of phase.
    pub fn flush(&mut self) {
        for _ in self.slots.drain(..) {
            self.counters.unloads += 1;
            if let Some(s) = &self.io_stats {
                s.record_partition_unload();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn ok_load(id: u32) -> Result<u32, Infallible> {
        Ok(id * 10)
    }

    #[test]
    fn miss_loads_hit_does_not() {
        let mut c: SlotCache<u32> = SlotCache::new(2);
        c.ensure(1, None, ok_load).unwrap();
        c.ensure(1, None, ok_load).unwrap();
        assert_eq!(
            c.counters(),
            CacheCounters {
                loads: 1,
                unloads: 0,
                hits: 1
            }
        );
        assert_eq!(c.get(1), Some(&10));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c: SlotCache<u32> = SlotCache::new(2);
        c.ensure(1, None, ok_load).unwrap();
        c.ensure(2, None, ok_load).unwrap();
        // Touch 1 so 2 becomes LRU.
        c.ensure(1, None, ok_load).unwrap();
        c.ensure(3, None, ok_load).unwrap();
        assert!(c.contains(1) && c.contains(3) && !c.contains(2));
    }

    #[test]
    fn pinned_partition_survives_eviction() {
        let mut c: SlotCache<u32> = SlotCache::new(2);
        c.ensure(7, None, ok_load).unwrap();
        for other in [1, 2, 3, 4] {
            c.ensure(other, Some(7), ok_load).unwrap();
            assert!(c.contains(7), "pivot must stay resident");
        }
        // 4 neighbor loads, 3 evictions (slots: pivot + 1 neighbor).
        assert_eq!(c.counters().loads, 5);
        assert_eq!(c.counters().unloads, 3);
    }

    #[test]
    fn flush_unloads_everything_counted() {
        let mut c: SlotCache<u32> = SlotCache::new(3);
        for id in [1, 2, 3] {
            c.ensure(id, None, ok_load).unwrap();
        }
        c.flush();
        assert_eq!(c.counters().unloads, 3);
        assert!(c.resident().is_empty());
    }

    #[test]
    fn load_error_propagates_and_leaves_id_absent() {
        let mut c: SlotCache<u32> = SlotCache::new(2);
        let r = c.ensure(5, None, |_| Err(std::io::Error::other("boom")));
        assert!(r.is_err());
        assert!(!c.contains(5));
        assert_eq!(c.counters().loads, 0);
    }

    #[test]
    #[should_panic(expected = "all residents pinned")]
    fn single_slot_pinned_conflict_panics() {
        let mut c: SlotCache<u32> = SlotCache::new(1);
        c.ensure(1, None, ok_load).unwrap();
        // Requires evicting 1, but 1 is pinned.
        let _ = c.ensure(2, Some(1), ok_load);
    }

    #[test]
    fn io_stats_mirroring() {
        let stats = Arc::new(IoStats::new());
        let mut c: SlotCache<u32> = SlotCache::new(1).with_io_stats(Arc::clone(&stats));
        c.ensure(1, None, ok_load).unwrap();
        c.ensure(2, None, ok_load).unwrap();
        c.flush();
        let snap = stats.snapshot();
        assert_eq!(snap.partition_loads, 2);
        assert_eq!(snap.partition_unloads, 2);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        let _: SlotCache<u32> = SlotCache::new(0);
    }
}
