//! The routing [`StorageBackend`]: one façade over N shard backends.
//!
//! The sharded engine runs the unmodified five-phase driver against
//! this router. Every stream has exactly one home: per-partition
//! streams (profiles, KNN slices, and the legacy edge and accumulator
//! names) live with the partition's ring owner, the legacy tuple
//! streams of bucket `(i, j)` with partition `i`'s owner, and the
//! singleton metadata streams on shard 0. Because each
//! storage operation is delegated to exactly one shard — and metered
//! there — the **sum** of the shard meters and this router's own
//! (which absorbs direct `stats()` events such as phase-4 partition
//! loads) equals the single-backend meter of the
//! same run; [`StorageBackend::io_snapshot`] returns that sum. This is
//! the I/O half of the shard-count-invariance contract.
//!
//! The update log is the one routed-by-user surface: an appended
//! delta batch is decoded and each delta re-encoded (the codec is
//! canonical, so bytes are preserved) into its **user's** ring owner
//! log — per-user order is preserved because a user has one home, and
//! phase 5 is insensitive to cross-user order. Reads concatenate the
//! shard logs in shard order.

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use knn_store::backend::append_delta;
use knn_store::delta_log::decode_deltas;
use knn_store::{IoSnapshot, IoStats, StorageBackend, StoreError, StreamId, WorkingDir};

use crate::ring::HashRing;

/// Routes every [`StorageBackend`] operation to the owning shard.
pub struct ShardRouter {
    shards: Vec<Arc<dyn StorageBackend>>,
    ring: HashRing,
    /// Receives events recorded through `stats()` directly (partition
    /// loads/unloads of code running against the
    /// router); delegated reads/writes are metered by the shard that
    /// serves them.
    stats: Arc<IoStats>,
}

impl fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardRouter")
            .field("num_shards", &self.shards.len())
            .finish()
    }
}

impl ShardRouter {
    /// A router over `shards`, owned per the [`HashRing`] of
    /// `shards.len()` shards.
    ///
    /// # Panics
    ///
    /// Panics on zero shards (see [`HashRing::new`]).
    pub fn new(shards: Vec<Arc<dyn StorageBackend>>) -> Self {
        ShardRouter {
            ring: HashRing::new(shards.len()),
            shards,
            stats: Arc::new(IoStats::new()),
        }
    }

    /// The shard index serving `stream`.
    pub fn shard_of(&self, stream: StreamId) -> usize {
        match stream {
            StreamId::Meta | StreamId::Assignment | StreamId::Clusters => 0,
            StreamId::InEdges(p)
            | StreamId::OutEdges(p)
            | StreamId::Profiles(p)
            | StreamId::Accumulators(p)
            | StreamId::KnnSlice(p) => self.ring.owner_of_partition(p) as usize,
            StreamId::TupleBucket(i, _)
            | StreamId::TupleRun(i, _, _)
            | StreamId::ExchangeRun(i, _, _) => self.ring.owner_of_partition(i) as usize,
            // The commit record is a singleton (like Meta); a staged
            // backup lives wherever its target lives, so recovery
            // through the façade restores each shard's own streams.
            StreamId::Commit => 0,
            StreamId::Staged(target, _) => self.shard_of(target.stream()),
        }
    }

    fn owner(&self, stream: StreamId) -> &dyn StorageBackend {
        self.shards[self.shard_of(stream)].as_ref()
    }

    /// The shard backends, in shard order.
    pub fn shards(&self) -> &[Arc<dyn StorageBackend>] {
        &self.shards
    }
}

impl StorageBackend for ShardRouter {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    fn io_snapshot(&self) -> IoSnapshot {
        self.shards
            .iter()
            .map(|s| s.io_snapshot())
            .sum::<IoSnapshot>()
            + self.stats.snapshot()
    }

    fn read(&self, stream: StreamId) -> Result<Vec<u8>, StoreError> {
        self.owner(stream).read(stream)
    }

    fn read_chunk(&self, stream: StreamId, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        self.owner(stream).read_chunk(stream, offset, len)
    }

    fn write(&self, stream: StreamId, payload: &[u8]) -> Result<(), StoreError> {
        self.owner(stream).write(stream, payload)
    }

    fn write_raw(&self, stream: StreamId, framed: &[u8]) -> Result<(), StoreError> {
        self.owner(stream).write_raw(stream, framed)
    }

    fn copy_stream(&self, from: StreamId, to: StreamId) -> Result<(), StoreError> {
        // A staged backup routes with its commit target, so both ends
        // live on the same shard and the copy stays shard-local.
        debug_assert_eq!(self.shard_of(from), self.shard_of(to));
        self.owner(from).copy_stream(from, to)
    }

    fn delete(&self, stream: StreamId) -> Result<(), StoreError> {
        self.owner(stream).delete(stream)
    }

    fn exists(&self, stream: StreamId) -> bool {
        self.owner(stream).exists(stream)
    }

    fn list(&self) -> Result<Vec<StreamId>, StoreError> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(shard.list()?);
        }
        Ok(all)
    }

    fn clear_tuples(&self) -> Result<(), StoreError> {
        for shard in &self.shards {
            shard.clear_tuples()?;
        }
        Ok(())
    }

    fn append_updates(&self, bytes: &[u8]) -> Result<(), StoreError> {
        // Deltas are routed by *user* (not partition owner): a user's
        // updates always land on one shard in arrival order, and the
        // route survives repartitions. Re-encoding a decoded delta is
        // byte-identical (the codec is canonical), so each shard's log
        // holds exactly the bytes a single-backend log would.
        let deltas = decode_deltas(bytes, &PathBuf::from("sharded:updates.log"))?;
        for delta in &deltas {
            let owner = self.ring.owner_of_user(delta.user.raw()) as usize;
            append_delta(self.shards[owner].as_ref(), delta)?;
        }
        Ok(())
    }

    fn read_updates(&self) -> Result<Vec<u8>, StoreError> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(shard.read_updates()?);
        }
        Ok(all)
    }

    fn truncate_updates(&self) -> Result<(), StoreError> {
        for shard in &self.shards {
            shard.truncate_updates()?;
        }
        Ok(())
    }

    fn repair_update_log(&self) -> Result<Option<String>, StoreError> {
        // Each shard's log is an independent append stream; a torn
        // tail must be pruned *there* — in the façade's concatenated
        // view it would sit mid-stream and poison every later shard's
        // records.
        let mut dropped: Vec<String> = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            if let Some(detail) = shard.repair_update_log()? {
                dropped.push(format!("shard {s}: {detail}"));
            }
        }
        Ok(if dropped.is_empty() {
            None
        } else {
            Some(dropped.join("; "))
        })
    }

    fn storage_usage(&self) -> Result<u64, StoreError> {
        let mut total = 0;
        for shard in &self.shards {
            total += shard.storage_usage()?;
        }
        Ok(total)
    }

    fn describe(&self, stream: StreamId) -> PathBuf {
        self.owner(stream).describe(stream)
    }

    fn working_dir(&self) -> Option<&WorkingDir> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_graph::UserId;
    use knn_sim::{ItemId, ProfileDelta};
    use knn_store::backend::read_deltas;
    use knn_store::MemBackend;

    fn router(shards: usize) -> ShardRouter {
        let backends: Vec<Arc<dyn StorageBackend>> = (0..shards)
            .map(|_| Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>)
            .collect();
        ShardRouter::new(backends)
    }

    #[test]
    fn streams_route_to_their_partition_owner() {
        let r = router(3);
        for p in 0..20 {
            let home = r.shard_of(StreamId::Profiles(p));
            assert_eq!(r.shard_of(StreamId::InEdges(p)), home);
            assert_eq!(r.shard_of(StreamId::KnnSlice(p)), home);
            assert_eq!(r.shard_of(StreamId::TupleBucket(p, 0)), home);
            assert_eq!(r.shard_of(StreamId::TupleRun(p, 5, 9)), home);
            assert_eq!(r.shard_of(StreamId::ExchangeRun(p, 5, 9)), home);
        }
        assert_eq!(r.shard_of(StreamId::Meta), 0);
        assert_eq!(r.shard_of(StreamId::Assignment), 0);
        assert_eq!(r.shard_of(StreamId::Clusters), 0);
    }

    #[test]
    fn reads_see_the_write_through_the_facade_and_the_owner() {
        let r = router(4);
        let stream = StreamId::Profiles(7);
        r.write(stream, b"payload").unwrap();
        assert!(r.exists(stream));
        assert_eq!(r.read(stream).unwrap(), b"payload");
        let home = r.shard_of(stream);
        for (s, shard) in r.shards().iter().enumerate() {
            assert_eq!(shard.exists(stream), s == home, "shard {s}");
        }
        assert_eq!(r.list().unwrap(), vec![stream]);
        r.delete(stream).unwrap();
        assert!(!r.exists(stream));
    }

    #[test]
    fn updates_route_by_user_and_read_back_in_shard_order() {
        let r = router(3);
        let deltas: Vec<ProfileDelta> = (0..30)
            .map(|u| ProfileDelta::set(UserId::new(u), ItemId::new(u), u as f32))
            .collect();
        for d in &deltas {
            append_delta(&r, d).unwrap();
        }
        // Each user's delta lives on exactly its ring owner.
        let mut seen = 0usize;
        for (s, shard) in r.shards().iter().enumerate() {
            for d in read_deltas(shard.as_ref()).unwrap() {
                assert_eq!(r.ring.owner_of_user(d.user.raw()) as usize, s);
                seen += 1;
            }
        }
        assert_eq!(seen, deltas.len());
        // The façade read is the shard-order concatenation and decodes
        // to the full set.
        let mut routed = read_deltas(&r).unwrap();
        routed.sort_by_key(|d| d.user.raw());
        assert_eq!(routed, deltas);
        r.truncate_updates().unwrap();
        assert_eq!(read_deltas(&r).unwrap(), vec![]);
    }
}
