//! Consistent-hash ownership: which shard owns a partition or a user.
//!
//! The ring places 64 virtual points per shard on a `u64`
//! circle; a key is owned by the shard of the first point at or after
//! its hash (wrapping). Ownership is a pure function of the shard
//! count, so every process — driver, shard, future remote peer —
//! derives the same layout from the same number, and adding a shard
//! moves only the keys falling into the new shard's arcs (the usual
//! consistent-hashing property; today the engine rebuilds from
//! scratch, but stream names never depend on the move).
//!
//! Partitions and users hash under distinct tags: partition ownership
//! places phase-2 buckets (bucket `(i, j)` lives with partition `i`'s
//! owner), user ownership routes durable update-log appends — the
//! latter deliberately ignores the current partitioning so routing
//! stays stable across repartitions.

/// Virtual points per shard. 64 keeps the max/min arc ratio low
/// enough that partition counts in the tens spread acceptably.
const VNODES: u64 = 64;

/// SplitMix64: a full-avalanche `u64 → u64` mix (Steele et al.), the
/// same generator family the workload seeds use. Seed-free and
/// platform-independent, which is what pins ring layout across
/// processes.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

// Key-space tags keep partition and user keys from colliding on the
// circle even when their raw ids coincide.
const PARTITION_TAG: u64 = 0x70 << 56;
const USER_TAG: u64 = 0x75 << 56;

/// The consistent-hash ring over `num_shards` shards.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point hash, shard)` sorted by hash.
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// Builds the ring for `num_shards` shards (≥ 1). Deterministic:
    /// two rings built from the same count are identical.
    ///
    /// # Panics
    ///
    /// Panics on zero shards.
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards >= 1, "a ring needs at least one shard");
        let mut points = Vec::with_capacity(num_shards * VNODES as usize);
        for s in 0..num_shards as u64 {
            for v in 0..VNODES {
                points.push((splitmix64((s << 32) | v), s as u32));
            }
        }
        points.sort_unstable();
        HashRing { points }
    }

    fn owner_of(&self, key: u64) -> u32 {
        let idx = self.points.partition_point(|&(h, _)| h < key);
        self.points[idx % self.points.len()].1
    }

    /// The shard owning partition `p` — and with it every
    /// per-partition stream and every tuple bucket `(p, j)`.
    pub fn owner_of_partition(&self, p: u32) -> u32 {
        self.owner_of(splitmix64(PARTITION_TAG | p as u64))
    }

    /// The shard owning `user`'s durable update-log entries.
    /// Independent of the current partitioning, so a repartition never
    /// strands queued updates.
    pub fn owner_of_user(&self, user: u32) -> u32 {
        self.owner_of(splitmix64(USER_TAG | user as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_owns_everything() {
        let ring = HashRing::new(1);
        for p in 0..100 {
            assert_eq!(ring.owner_of_partition(p), 0);
            assert_eq!(ring.owner_of_user(p), 0);
        }
    }

    #[test]
    fn owners_are_in_range_and_deterministic() {
        for shards in [2usize, 3, 4, 7] {
            let a = HashRing::new(shards);
            let b = HashRing::new(shards);
            for key in 0..500u32 {
                let p = a.owner_of_partition(key);
                assert!((p as usize) < shards);
                assert_eq!(p, b.owner_of_partition(key));
                let u = a.owner_of_user(key);
                assert!((u as usize) < shards);
                assert_eq!(u, b.owner_of_user(key));
            }
        }
    }

    #[test]
    fn every_shard_receives_some_keys() {
        let shards = 4;
        let ring = HashRing::new(shards);
        let mut part_hits = vec![0u32; shards];
        let mut user_hits = vec![0u32; shards];
        for key in 0..1000u32 {
            part_hits[ring.owner_of_partition(key) as usize] += 1;
            user_hits[ring.owner_of_user(key) as usize] += 1;
        }
        assert!(part_hits.iter().all(|&h| h > 0), "{part_hits:?}");
        assert!(user_hits.iter().all(|&h| h > 0), "{user_hits:?}");
    }

    #[test]
    fn partition_and_user_spaces_are_independent() {
        let ring = HashRing::new(3);
        // Not a hard requirement, but with distinct tags the two maps
        // should disagree somewhere over a small range.
        assert!((0..64u32).any(|k| ring.owner_of_partition(k) != ring.owner_of_user(k)));
    }
}
