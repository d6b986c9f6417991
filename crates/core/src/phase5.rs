//! Phase 5: lazy profile updates.
//!
//! Profile changes arriving *during* iteration `t` are appended to the
//! backend's durable update log (the paper's queue `q`) and are **not**
//! visible to the similarity computation of iteration `t`. At the end
//! of the iteration this phase drains the log, rewrites only the
//! affected partition profile streams, and leaves the log empty for
//! iteration `t+1`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use knn_graph::UserId;
use knn_sim::{Profile, ProfileDelta};
use knn_store::backend::{append_delta, read_deltas, read_user_lists, write_user_lists};
use knn_store::delta_log::decode_deltas;
use knn_store::{CommitTarget, CommitTxn, StorageBackend, StoreError, StreamId};

use crate::par;
use crate::partition::Partitioning;
use crate::EngineError;

/// The engine-facing update queue: validated appends during the
/// iteration, bulk apply at its end. The queued deltas live in the
/// storage backend's update log, so they survive a crash on any
/// durable backend.
#[derive(Debug)]
pub(crate) struct UpdateQueue {
    num_users: usize,
}

/// Summary of one phase-5 run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Phase5Stats {
    /// Deltas applied.
    pub updates_applied: u64,
    /// Partition streams rewritten.
    pub partitions_rewritten: u64,
}

impl UpdateQueue {
    /// Creates the queue facade for a computation over `num_users`
    /// users (the log itself lives in the backend).
    pub(crate) fn new(num_users: usize) -> Self {
        UpdateQueue { num_users }
    }

    /// Queues one update for the next iteration boundary.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidUpdate`] for an out-of-range user
    /// or any non-finite weight (`Set` and `Replace` alike, via
    /// [`DeltaOp::weights_finite`](knn_sim::DeltaOp::weights_finite)),
    /// [`EngineError::Store`] on I/O failure.
    pub(crate) fn queue(
        &mut self,
        delta: &ProfileDelta,
        backend: &dyn StorageBackend,
    ) -> Result<(), EngineError> {
        if delta.user.index() >= self.num_users {
            return Err(EngineError::update(format!(
                "user {} out of range (n={})",
                delta.user, self.num_users
            )));
        }
        if !delta.op.weights_finite() {
            return Err(EngineError::update(format!(
                "non-finite weight in update for user {}",
                delta.user
            )));
        }
        append_delta(backend, delta)?;
        Ok(())
    }

    /// Number of queued updates (reads the log).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Store`] on read failure.
    pub(crate) fn pending(&self, backend: &dyn StorageBackend) -> Result<usize, EngineError> {
        Ok(read_deltas(backend)?.len())
    }

    /// Drains the log into the partition profile streams: groups
    /// deltas by the owning partition, rewrites each touched stream
    /// once — touched partitions are rebuilt and written across up to
    /// `threads` workers, each owning its (disjoint) stream, so peak
    /// memory stays `O(threads × partition)` and the persisted bytes
    /// are thread-count-invariant — and truncates the log.
    ///
    /// Returns the run statistics, the **sorted, deduplicated** set of
    /// users whose profile changed — the input of the engine's
    /// per-user dirty bits: every similarity score involving one of
    /// these users is stale from the next iteration on — and the raw
    /// log bytes this call consumed.
    ///
    /// With `txn` present the commit protocol is active: each touched
    /// profile stream is backed up (pre-image staged) before the
    /// rewrite loop, and the log is **not** truncated here — the
    /// engine truncates it inside [`CommitTxn::commit`], where the
    /// consumed-prefix record makes an interrupted truncation
    /// recoverable. With `txn == None` the legacy behavior is exact:
    /// rewrite, then truncate.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Store`] on I/O failure or corrupt
    /// streams.
    pub(crate) fn apply_all(
        &mut self,
        partitioning: &Partitioning,
        backend: &dyn StorageBackend,
        threads: usize,
        txn: Option<&mut CommitTxn>,
    ) -> Result<(Phase5Stats, Vec<u32>, Vec<u8>), EngineError> {
        // One raw read serves both decoding and the consumed-bytes
        // return (`read_deltas` is exactly this read + decode, so the
        // metering is unchanged).
        let raw = backend.read_updates()?;
        let deltas = decode_deltas(
            &raw,
            &PathBuf::from(format!("{}:updates.log", backend.name())),
        )?;
        if deltas.is_empty() {
            return Ok((Phase5Stats::default(), Vec::new(), raw));
        }
        let mut by_partition: BTreeMap<u32, Vec<&ProfileDelta>> = BTreeMap::new();
        let mut updated_users: Vec<u32> = Vec::with_capacity(deltas.len());
        for d in &deltas {
            by_partition
                .entry(partitioning.partition_of(d.user))
                .or_default()
                .push(d);
            updated_users.push(d.user.raw());
        }
        updated_users.sort_unstable();
        updated_users.dedup();
        let result = Phase5Stats {
            updates_applied: deltas.len() as u64,
            partitions_rewritten: by_partition.len() as u64,
        };
        // Each touched partition reads its profile stream, applies its
        // deltas in arrival order, and rewrites the stream — fully
        // independently (no other group touches that stream), so the
        // groups run concurrently and nothing is buffered past its
        // own write.
        let groups: Vec<(u32, Vec<&ProfileDelta>)> = by_partition.into_iter().collect();
        let committing = if let Some(txn) = txn {
            // Pre-images are staged sequentially, in partition order,
            // before any worker mutates — the backup traffic is
            // thread-count-invariant and every touched stream is
            // restorable whatever op the crash lands on.
            for (p, _) in &groups {
                txn.backup(backend, CommitTarget::Profiles(*p))?;
            }
            true
        } else {
            false
        };
        par::run_indexed(groups.len(), threads, |idx| {
            let (p, partition_deltas) = &groups[idx];
            let stream = StreamId::Profiles(*p);
            let rows = read_user_lists(backend, stream)?;
            let mut profiles: BTreeMap<u32, Profile> = BTreeMap::new();
            for (user, row) in rows {
                let profile = Profile::from_unsorted_pairs(row).map_err(|e| {
                    EngineError::Store(StoreError::corrupt(
                        backend.describe(stream),
                        format!("invalid profile for user {user}: {e}"),
                    ))
                })?;
                profiles.insert(user, profile);
            }
            for d in partition_deltas {
                let profile = profiles.get_mut(&d.user.raw()).ok_or_else(|| {
                    EngineError::Store(StoreError::corrupt(
                        backend.describe(stream),
                        format!("user {} missing from partition {p}", d.user),
                    ))
                })?;
                d.op.apply(profile);
            }
            let new_rows: Vec<(u32, Vec<(u32, f32)>)> = profiles
                .into_iter()
                .map(|(user, profile)| (user, profile.iter().map(|(i, w)| (i.raw(), w)).collect()))
                .collect();
            write_user_lists(backend, stream, &new_rows)?;
            Ok(())
        })?;
        if !committing {
            backend.truncate_updates()?;
        }
        Ok((result, updated_users, raw))
    }

    /// Reads one user's current stored profile (diagnostics and
    /// examples; the engine itself never random-accesses profiles).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Store`] on I/O failure and
    /// [`EngineError::InputMismatch`] for an unknown user.
    pub(crate) fn read_profile(
        user: UserId,
        partitioning: &Partitioning,
        backend: &dyn StorageBackend,
    ) -> Result<Profile, EngineError> {
        let p = partitioning.partition_of(user);
        let stream = StreamId::Profiles(p);
        let rows = read_user_lists(backend, stream)?;
        for (u, row) in rows {
            if u == user.raw() {
                return Profile::from_unsorted_pairs(row).map_err(|e| {
                    EngineError::Store(StoreError::corrupt(
                        backend.describe(stream),
                        format!("invalid profile for user {u}: {e}"),
                    ))
                });
            }
        }
        Err(EngineError::input(format!(
            "user {user} not found in partition {p}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase1::reshard_profiles;
    use knn_sim::{DeltaOp, ItemId, ProfileStore};
    use knn_store::MemBackend;

    fn setup(n: usize, m: usize) -> (MemBackend, Partitioning, UpdateQueue) {
        let b = MemBackend::new();
        let assignment: Vec<u32> = (0..n).map(|u| (u % m) as u32).collect();
        let p = Partitioning::from_assignment(assignment, m).unwrap();
        let store = ProfileStore::new(n);
        reshard_profiles(&b, None, &p, Some(&store), 1).unwrap();
        let q = UpdateQueue::new(n);
        (b, p, q)
    }

    #[test]
    fn queue_validates_user_and_weight() {
        let (b, _, mut q) = setup(4, 2);
        assert!(matches!(
            q.queue(&ProfileDelta::set(UserId::new(9), ItemId::new(0), 1.0), &b),
            Err(EngineError::InvalidUpdate { .. })
        ));
        assert!(matches!(
            q.queue(
                &ProfileDelta::set(UserId::new(0), ItemId::new(0), f32::NAN),
                &b
            ),
            Err(EngineError::InvalidUpdate { .. })
        ));
        assert!(q
            .queue(&ProfileDelta::set(UserId::new(0), ItemId::new(0), 1.0), &b)
            .is_ok());
        assert_eq!(q.pending(&b).unwrap(), 1);
    }

    #[test]
    fn apply_rewrites_only_touched_partitions() {
        let (b, p, mut q) = setup(6, 3);
        // Users 0 and 3 are both in partition 0; only it is touched.
        q.queue(&ProfileDelta::set(UserId::new(0), ItemId::new(5), 2.0), &b)
            .unwrap();
        q.queue(&ProfileDelta::set(UserId::new(3), ItemId::new(6), 3.0), &b)
            .unwrap();
        let (st, updated, _) = q.apply_all(&p, &b, 1, None).unwrap();
        assert_eq!(st.updates_applied, 2);
        assert_eq!(st.partitions_rewritten, 1);
        assert_eq!(updated, vec![0, 3], "updated users sorted and deduped");
        let profile = UpdateQueue::read_profile(UserId::new(0), &p, &b).unwrap();
        assert_eq!(profile.get(ItemId::new(5)), Some(2.0));
    }

    #[test]
    fn apply_preserves_arrival_order_per_user() {
        let (b, p, mut q) = setup(2, 1);
        let u = UserId::new(0);
        q.queue(&ProfileDelta::set(u, ItemId::new(1), 1.0), &b)
            .unwrap();
        q.queue(&ProfileDelta::set(u, ItemId::new(1), 2.0), &b)
            .unwrap();
        q.queue(&ProfileDelta::remove(u, ItemId::new(1)), &b)
            .unwrap();
        q.queue(&ProfileDelta::set(u, ItemId::new(1), 7.0), &b)
            .unwrap();
        let (_, updated, _) = q.apply_all(&p, &b, 1, None).unwrap();
        assert_eq!(
            updated,
            vec![0],
            "four deltas to one user dedup to one entry"
        );
        let profile = UpdateQueue::read_profile(u, &p, &b).unwrap();
        assert_eq!(profile.get(ItemId::new(1)), Some(7.0));
    }

    #[test]
    fn queue_is_empty_after_apply() {
        let (b, p, mut q) = setup(2, 1);
        q.queue(&ProfileDelta::set(UserId::new(1), ItemId::new(0), 1.0), &b)
            .unwrap();
        q.apply_all(&p, &b, 1, None).unwrap();
        assert_eq!(q.pending(&b).unwrap(), 0);
        let (st, updated, _) = q.apply_all(&p, &b, 1, None).unwrap();
        assert_eq!(st.updates_applied, 0);
        assert!(updated.is_empty());
    }

    #[test]
    fn replace_and_clear_apply() {
        let (b, p, mut q) = setup(2, 1);
        let u = UserId::new(0);
        let full = Profile::from_unsorted_pairs(vec![(1, 1.0), (2, 2.0)]).unwrap();
        q.queue(&ProfileDelta::replace(u, full.clone()), &b)
            .unwrap();
        q.apply_all(&p, &b, 1, None).unwrap();
        assert_eq!(UpdateQueue::read_profile(u, &p, &b).unwrap(), full);
        q.queue(&ProfileDelta::new(u, DeltaOp::Clear), &b).unwrap();
        q.apply_all(&p, &b, 1, None).unwrap();
        assert!(UpdateQueue::read_profile(u, &p, &b).unwrap().is_empty());
    }

    /// The phase-5 determinism leg: identical rewritten streams and
    /// stats at every thread count.
    #[test]
    fn thread_count_does_not_change_apply_output() {
        let mut reference: Option<(Phase5Stats, Vec<Vec<u8>>)> = None;
        for threads in [1usize, 2, 4] {
            let (b, p, mut q) = setup(12, 4);
            for u in 0..12u32 {
                q.queue(
                    &ProfileDelta::set(UserId::new(u), ItemId::new(u % 3), u as f32 + 0.5),
                    &b,
                )
                .unwrap();
            }
            let (st, _, _) = q.apply_all(&p, &b, threads, None).unwrap();
            let streams: Vec<Vec<u8>> = (0..4u32)
                .map(|part| b.read(StreamId::Profiles(part)).unwrap())
                .collect();
            match &reference {
                None => reference = Some((st, streams)),
                Some((ref_st, ref_streams)) => {
                    assert_eq!(ref_st, &st, "threads={threads}");
                    assert_eq!(ref_streams, &streams, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn commit_mode_stages_preimages_and_defers_truncation() {
        let (b, p, mut q) = setup(6, 3);
        let before = b.read(StreamId::Profiles(0)).unwrap();
        q.queue(&ProfileDelta::set(UserId::new(0), ItemId::new(5), 2.0), &b)
            .unwrap();
        let mut txn = CommitTxn::new(7);
        let (st, _, raw) = q.apply_all(&p, &b, 1, Some(&mut txn)).unwrap();
        assert_eq!(st.partitions_rewritten, 1);
        // Only the touched partition is staged, under the txn epoch,
        // holding the pre-image; the log is left for the commit step.
        assert!(b.exists(StreamId::Staged(CommitTarget::Profiles(0), 7)));
        assert!(!b.exists(StreamId::Staged(CommitTarget::Profiles(1), 7)));
        assert_eq!(
            b.read(StreamId::Staged(CommitTarget::Profiles(0), 7))
                .unwrap(),
            before
        );
        assert_eq!(b.read_updates().unwrap(), raw);
        assert!(!raw.is_empty());
        assert_eq!(
            q.pending(&b).unwrap(),
            1,
            "log not truncated in commit mode"
        );
    }

    #[test]
    fn read_profile_unknown_user_errors() {
        let (b, p, _q) = setup(2, 1);
        assert!(UpdateQueue::read_profile(UserId::new(0), &p, &b).is_ok());
        assert!(UpdateQueue::read_profile(UserId::new(1), &p, &b).is_ok());
    }
}
