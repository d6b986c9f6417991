//! Generation-stamped atomic iteration commits.
//!
//! The engine mutates its committed streams (meta, assignment,
//! profiles, KNN slices) **in place** during an iteration, so a crash
//! mid-iteration would otherwise leave a working directory at a torn
//! generation. This module makes iterations atomic with an undo-log
//! protocol built from the primitives every [`StorageBackend`] already
//! has:
//!
//! 1. Before the iteration first rewrites a committed stream, its
//!    pre-image is copied to a staged backup
//!    ([`StreamId::Staged`]`(target, epoch)`), tagged with the epoch
//!    (committed generation `t`) whose content it preserves
//!    ([`CommitTxn::backup`]). Backups are taken at most once per
//!    target per iteration.
//! 2. The iteration runs, mutating the base streams freely.
//! 3. A single CRC-framed **commit record** ([`CommitRecord`]) is
//!    written under [`StreamId::Commit`], naming the new generation
//!    `t+1` plus the length and CRC-32 of the update-log prefix the
//!    iteration consumed. Writing this record is the atomic step that
//!    makes generation `t+1` durable.
//! 4. The consumed update log is truncated, the record is normalized
//!    to `{t+1, 0, 0}`, and the staged backups are deleted
//!    ([`CommitTxn::commit`]).
//!
//! [`recover`] is the other half of the contract: called on open, it
//! rolls the directory back to the last committed generation —
//! restoring staged pre-images over torn base streams, reconciling the
//! update log (dropping an already-applied prefix, pruning a torn
//! tail at the record boundary), deleting orphaned staged and scratch
//! streams — and is idempotent, so a crash *during recovery* just
//! recovers again.
//!
//! **Legacy layouts:** a working directory written before this
//! protocol existed has no commit record and no staged streams.
//! [`recover`] recognizes that shape and leaves the committed state
//! untouched (beyond scratch GC), so pre-protocol directories still
//! resume.
//!
//! The protocol works identically through a sharding router: staged
//! backups route with their targets, the commit record lives on shard
//! 0, and one [`recover`] call over the router converges every shard
//! to the common committed generation.

use bytes::{Buf, BufMut, BytesMut};

use crate::backend::CommitTarget;
use crate::codec::{need, put_header, take_header};
use crate::crc32::crc32;
use crate::{RecordKind, StorageBackend, StoreError, StreamId};

/// The durable commit record: the single small stream whose (atomic)
/// rewrite flips a working directory's visible generation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitRecord {
    /// The last durably committed iteration (generation `t`).
    pub generation: u64,
    /// Length in bytes of the update-log prefix the committing
    /// iteration applied. Non-zero only in the window between the
    /// commit-record write and the log truncation; recovery uses it to
    /// finish the truncation exactly once.
    pub log_consumed_len: u64,
    /// CRC-32 of that consumed prefix, guarding the truncation against
    /// acting on a log that does not match the record.
    pub log_consumed_crc: u32,
}

impl CommitRecord {
    /// A record naming `generation` with no pending log truncation.
    pub fn clean(generation: u64) -> Self {
        CommitRecord {
            generation,
            log_consumed_len: 0,
            log_consumed_crc: 0,
        }
    }

    /// Encodes the record into its unframed codec payload.
    pub fn encode(&self) -> BytesMut {
        let mut buf = BytesMut::with_capacity(16 + 20);
        put_header(&mut buf, RecordKind::Commit as u16, 1);
        buf.put_u64_le(self.generation);
        buf.put_u64_le(self.log_consumed_len);
        buf.put_u32_le(self.log_consumed_crc);
        buf
    }

    /// Decodes a record payload written by [`CommitRecord::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] / [`StoreError::VersionMismatch`]
    /// on malformed content.
    pub fn decode(bytes: &[u8], path: &std::path::Path) -> Result<Self, StoreError> {
        let mut buf = bytes;
        let count = take_header(&mut buf, RecordKind::Commit as u16, path)?;
        if count != 1 {
            return Err(StoreError::corrupt(
                path,
                format!("commit record count {count}, expected 1"),
            ));
        }
        need(&buf, 20, "commit record", path)?;
        Ok(CommitRecord {
            generation: buf.get_u64_le(),
            log_consumed_len: buf.get_u64_le(),
            log_consumed_crc: buf.get_u32_le(),
        })
    }
}

/// Writes the commit record (framed like every stream).
///
/// # Errors
///
/// Returns [`StoreError::Io`] on storage failure.
pub fn write_commit(b: &dyn StorageBackend, record: &CommitRecord) -> Result<(), StoreError> {
    b.write(StreamId::Commit, &record.encode())
}

/// What reading the commit record found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitState {
    /// No commit record: a legacy (pre-protocol) layout, or a fresh
    /// directory.
    Absent,
    /// A commit record exists but fails its frame or codec checks — a
    /// crash tore the record rewrite itself.
    Torn,
    /// An intact record.
    Valid(CommitRecord),
}

/// Reads the commit record, classifying torn records instead of
/// failing on them (recovery treats a torn record as "the commit never
/// became durable").
///
/// # Errors
///
/// Returns [`StoreError::Io`] only on genuine storage failure.
pub fn read_commit_state(b: &dyn StorageBackend) -> Result<CommitState, StoreError> {
    if !b.exists(StreamId::Commit) {
        return Ok(CommitState::Absent);
    }
    match b.read(StreamId::Commit) {
        Ok(payload) => Ok(
            match CommitRecord::decode(&payload, &b.describe(StreamId::Commit)) {
                Ok(rec) => CommitState::Valid(rec),
                Err(_) => CommitState::Torn,
            },
        ),
        Err(StoreError::Corrupt { .. }) | Err(StoreError::VersionMismatch { .. }) => {
            Ok(CommitState::Torn)
        }
        Err(e) => Err(e),
    }
}

/// One iteration's undo log: tracks which committed streams have been
/// backed up this iteration, takes each backup exactly once, and
/// finalizes the iteration with the commit sequence.
#[derive(Debug)]
pub struct CommitTxn {
    epoch: u64,
    backed_up: Vec<CommitTarget>,
}

impl CommitTxn {
    /// Opens a transaction for the iteration moving `epoch` (the
    /// currently committed generation) to `epoch + 1`.
    pub fn new(epoch: u64) -> Self {
        CommitTxn {
            epoch,
            backed_up: Vec::new(),
        }
    }

    /// The committed generation whose pre-images this transaction
    /// stages.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Copies `target`'s current content to its staged backup, once
    /// per transaction (repeat calls are free no-ops). Must be called
    /// before the iteration first rewrites `target` in place.
    ///
    /// # Errors
    ///
    /// Returns the underlying storage error.
    pub fn backup(
        &mut self,
        b: &dyn StorageBackend,
        target: CommitTarget,
    ) -> Result<(), StoreError> {
        if self.backed_up.contains(&target) {
            return Ok(());
        }
        b.copy_stream(target.stream(), StreamId::Staged(target, self.epoch))?;
        self.backed_up.push(target);
        Ok(())
    }

    /// Finalizes the iteration: writes the commit record for
    /// `generation` (carrying the consumed update-log length and CRC),
    /// truncates the consumed log, normalizes the record, and deletes
    /// this transaction's staged backups. A crash at any point inside
    /// this sequence is repaired by [`recover`] without losing the
    /// commit (once the first record write landed) or the rollback
    /// (before it landed).
    ///
    /// # Errors
    ///
    /// Returns the underlying storage error.
    pub fn commit(
        mut self,
        b: &dyn StorageBackend,
        generation: u64,
        log_consumed: &[u8],
    ) -> Result<(), StoreError> {
        write_commit(
            b,
            &CommitRecord {
                generation,
                log_consumed_len: log_consumed.len() as u64,
                log_consumed_crc: crc32(log_consumed),
            },
        )?;
        if !log_consumed.is_empty() {
            b.truncate_updates()?;
            write_commit(b, &CommitRecord::clean(generation))?;
        }
        self.backed_up.sort_unstable();
        for target in self.backed_up.drain(..) {
            b.delete(StreamId::Staged(target, self.epoch))?;
        }
        Ok(())
    }
}

/// What [`recover`] found and did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// The committed generation the directory converged to; `None` for
    /// a legacy (pre-protocol) layout, which has no commit record.
    pub committed_generation: Option<u64>,
    /// Whether any staged pre-image was restored over its base stream
    /// (i.e. a torn iteration was rolled back).
    pub rolled_back: bool,
    /// Staged backups restored over their targets.
    pub restored: u64,
    /// Staged backups deleted (restored ones included).
    pub staged_deleted: u64,
    /// Staged backups that were themselves torn (their targets were
    /// never mutated, so they are dropped without a restore).
    pub torn_backups: u64,
    /// Per-iteration scratch streams (tuple buckets, spill runs,
    /// legacy exchange runs) garbage-collected.
    pub scratch_deleted: u64,
    /// Whether an applied-but-untruncated update-log prefix was
    /// truncated to finish an interrupted commit.
    pub log_truncated: bool,
    /// Detail of a torn update-log tail dropped at the last record
    /// boundary, when one was found.
    pub log_drop_detail: Option<String>,
}

/// Rolls a working directory back to its last committed generation.
///
/// Safe to call on any directory — cleanly closed, torn mid-iteration,
/// torn mid-commit, torn mid-recovery, or a legacy pre-protocol layout
/// — and idempotent. See the module docs for the full contract. When
/// `b` is a sharding router this converges every shard to the common
/// committed generation, since staged streams and the commit record
/// route like any other stream.
///
/// # Errors
///
/// Returns the underlying storage error.
pub fn recover(b: &dyn StorageBackend) -> Result<RecoveryReport, StoreError> {
    let mut report = RecoveryReport::default();
    let streams = b.list()?;
    let mut staged: Vec<(CommitTarget, u64)> = streams
        .iter()
        .filter_map(|s| match s {
            StreamId::Staged(t, e) => Some((*t, *e)),
            _ => None,
        })
        .collect();
    staged.sort_unstable();

    let restore =
        |report: &mut RecoveryReport, target: CommitTarget, epoch: u64| -> Result<(), StoreError> {
            match b.read(StreamId::Staged(target, epoch)) {
                Ok(bytes) => {
                    b.write(target.stream(), &bytes)?;
                    b.stats().record_rollback();
                    report.restored += 1;
                    report.rolled_back = true;
                }
                // A torn backup means the crash hit the backup copy
                // itself — before its target was first mutated, by the
                // protocol's ordering — so the base stream is still the
                // committed pre-image and needs no restore.
                Err(StoreError::Corrupt { .. }) => report.torn_backups += 1,
                Err(e) => return Err(e),
            }
            Ok(())
        };

    match read_commit_state(b)? {
        CommitState::Valid(rec) => {
            report.committed_generation = Some(rec.generation);
            // Staged backups tagged with the committed generation are
            // the undo log of an iteration that never committed:
            // restore them. Backups under any other epoch are leftovers
            // of an iteration that *did* commit (crash before backup
            // deletion): drop them.
            for &(target, epoch) in &staged {
                if epoch == rec.generation {
                    restore(&mut report, target, epoch)?;
                }
                b.delete(StreamId::Staged(target, epoch))?;
                report.staged_deleted += 1;
            }
            // A non-zero consumed length marks a crash inside the
            // commit sequence, after the record write but before the
            // log truncation: finish it, guarded by the CRC so the
            // truncation never acts on a log it does not match.
            if rec.log_consumed_len > 0 {
                let log = b.read_updates()?;
                let len = rec.log_consumed_len as usize;
                if log.len() >= len && crc32(&log[..len]) == rec.log_consumed_crc {
                    b.truncate_updates()?;
                    if log.len() > len {
                        b.append_updates(&log[len..])?;
                    }
                    report.log_truncated = true;
                }
                write_commit(b, &CommitRecord::clean(rec.generation))?;
            }
        }
        state @ (CommitState::Absent | CommitState::Torn) => {
            if let Some(epoch) = staged.iter().map(|&(_, e)| e).max() {
                // Staged backups but no (intact) commit record: a
                // crash tore the record rewrite itself, or hit the
                // first protocol iteration over a legacy layout. The
                // commit never became durable either way — roll back
                // to the staged epoch.
                for &(target, e) in &staged {
                    if e == epoch {
                        restore(&mut report, target, e)?;
                    }
                    b.delete(StreamId::Staged(target, e))?;
                    report.staged_deleted += 1;
                }
                write_commit(b, &CommitRecord::clean(epoch))?;
                report.committed_generation = Some(epoch);
            } else if state == CommitState::Torn {
                // A torn record with nothing staged: the very first
                // record write (after initial construction) tore. The
                // layout is otherwise legacy-equivalent; drop the torn
                // record and let the next iteration re-create it.
                b.delete(StreamId::Commit)?;
            }
            // Absent with nothing staged: a legacy pre-protocol
            // layout (or fresh directory). Leave the committed state
            // untouched.
        }
    }

    // A torn tail on the durable update log — a crash mid-append — is
    // dropped at the last whole-record boundary, never silently
    // wrapped into a decode error on the next drain.
    report.log_drop_detail = b.repair_update_log()?;

    // Per-iteration scratch from the interrupted iteration (tuple
    // buckets, spill runs, legacy exchange runs and legacy accumulator
    // streams) is dead weight the next
    // iteration would clear anyway — but a *resumed* directory must
    // list identically to a never-crashed one, so GC it now.
    report.scratch_deleted = streams.iter().filter(|s| s.is_tuple_scratch()).count() as u64;
    if report.scratch_deleted > 0 {
        b.clear_tuples()?;
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{self, DiskBackend, MemBackend};
    use crate::record_file;
    use crate::WorkingDir;
    use std::path::PathBuf;

    fn backends() -> Vec<(Box<dyn StorageBackend>, Option<WorkingDir>)> {
        let disk = DiskBackend::temp("commit_tests").unwrap();
        let wd = disk.working_dir().unwrap().clone();
        vec![
            (Box::new(disk) as Box<dyn StorageBackend>, Some(wd)),
            (Box::new(MemBackend::new()), None),
        ]
    }

    fn destroy(wd: Option<WorkingDir>) {
        if let Some(wd) = wd {
            wd.destroy().unwrap();
        }
    }

    fn seed_committed_state(b: &dyn StorageBackend, gen: u64) {
        backend::write_meta(b, &[(1, gen)]).unwrap();
        backend::write_pairs(b, StreamId::Assignment, &[(0, 0), (1, 1)]).unwrap();
        backend::write_user_lists(b, StreamId::Profiles(0), &[(0, vec![(1, 1.0)])]).unwrap();
        backend::write_scored_pairs(b, StreamId::KnnSlice(0), &[(0, 1, 0.5)]).unwrap();
        write_commit(b, &CommitRecord::clean(gen)).unwrap();
    }

    #[test]
    fn commit_record_round_trips_and_rejects_garbage() {
        let rec = CommitRecord {
            generation: 42,
            log_consumed_len: 137,
            log_consumed_crc: 0xdeadbeef,
        };
        let path = PathBuf::from("/test/commit.bin");
        assert_eq!(CommitRecord::decode(&rec.encode(), &path).unwrap(), rec);
        assert!(CommitRecord::decode(&rec.encode()[..20], &path).is_err());
        assert!(CommitRecord::decode(b"junk", &path).is_err());
    }

    #[test]
    fn clean_directory_recovers_to_itself() {
        for (b, wd) in backends() {
            let b = b.as_ref();
            seed_committed_state(b, 3);
            let before: Vec<u8> = b.read(StreamId::Profiles(0)).unwrap();
            let report = recover(b).unwrap();
            assert_eq!(report.committed_generation, Some(3));
            assert!(!report.rolled_back);
            assert_eq!(report.staged_deleted, 0);
            assert!(report.log_drop_detail.is_none());
            assert_eq!(b.read(StreamId::Profiles(0)).unwrap(), before);
            // Idempotent.
            assert_eq!(recover(b).unwrap(), report);
            destroy(wd);
        }
    }

    #[test]
    fn torn_iteration_rolls_back_to_the_staged_epoch() {
        for (b, wd) in backends() {
            let b = b.as_ref();
            seed_committed_state(b, 1);
            let committed = b.read(StreamId::Profiles(0)).unwrap();
            // An iteration starts: backs up, then tears mid-rewrite.
            let mut txn = CommitTxn::new(1);
            txn.backup(b, CommitTarget::Profiles(0)).unwrap();
            txn.backup(b, CommitTarget::Profiles(0)).unwrap(); // idempotent
            backend::write_user_lists(b, StreamId::Profiles(0), &[(0, vec![(9, 9.0)])]).unwrap();
            drop(txn); // crash
            let report = recover(b).unwrap();
            assert!(report.rolled_back);
            assert_eq!(report.restored, 1);
            assert_eq!(report.committed_generation, Some(1));
            assert_eq!(b.read(StreamId::Profiles(0)).unwrap(), committed);
            assert!(!b.exists(StreamId::Staged(CommitTarget::Profiles(0), 1)));
            assert_eq!(b.stats().snapshot().rollbacks, 1);
            destroy(wd);
        }
    }

    #[test]
    fn committed_iteration_drops_stale_backups_without_rollback() {
        for (b, wd) in backends() {
            let b = b.as_ref();
            seed_committed_state(b, 1);
            let mut txn = CommitTxn::new(1);
            txn.backup(b, CommitTarget::Profiles(0)).unwrap();
            let new_rows = vec![(0u32, vec![(9u32, 9.0f32)])];
            backend::write_user_lists(b, StreamId::Profiles(0), &new_rows).unwrap();
            // Commit lands, crash before the backup deletion: simulate
            // by writing the record but keeping the staged stream.
            write_commit(b, &CommitRecord::clean(2)).unwrap();
            let report = recover(b).unwrap();
            assert!(!report.rolled_back);
            assert_eq!(report.staged_deleted, 1);
            assert_eq!(report.committed_generation, Some(2));
            assert_eq!(
                backend::read_user_lists(b, StreamId::Profiles(0)).unwrap(),
                new_rows
            );
            destroy(wd);
        }
    }

    #[test]
    fn torn_commit_record_rolls_back() {
        for (b, wd) in backends() {
            let b = b.as_ref();
            seed_committed_state(b, 5);
            let committed = b.read(StreamId::KnnSlice(0)).unwrap();
            let mut txn = CommitTxn::new(5);
            txn.backup(b, CommitTarget::KnnSlice(0)).unwrap();
            backend::write_scored_pairs(b, StreamId::KnnSlice(0), &[(1, 0, 0.9)]).unwrap();
            // The record rewrite itself tears.
            let framed = record_file::frame(&CommitRecord::clean(6).encode());
            b.write_raw(StreamId::Commit, &framed[..framed.len() - 7])
                .unwrap();
            let report = recover(b).unwrap();
            assert!(report.rolled_back);
            assert_eq!(report.committed_generation, Some(5));
            assert_eq!(b.read(StreamId::KnnSlice(0)).unwrap(), committed);
            // The record was re-created clean at the rolled-back epoch.
            assert_eq!(
                read_commit_state(b).unwrap(),
                CommitState::Valid(CommitRecord::clean(5))
            );
            destroy(wd);
        }
    }

    #[test]
    fn torn_backup_is_dropped_without_restore() {
        for (b, wd) in backends() {
            let b = b.as_ref();
            seed_committed_state(b, 2);
            let committed = b.read(StreamId::Profiles(0)).unwrap();
            // The crash hit the backup copy itself: target unmutated.
            let framed = record_file::frame(&committed);
            b.write_raw(
                StreamId::Staged(CommitTarget::Profiles(0), 2),
                &framed[..framed.len() / 3],
            )
            .unwrap();
            let report = recover(b).unwrap();
            assert!(!report.rolled_back);
            assert_eq!(report.torn_backups, 1);
            assert_eq!(report.staged_deleted, 1);
            assert_eq!(b.read(StreamId::Profiles(0)).unwrap(), committed);
            destroy(wd);
        }
    }

    #[test]
    fn interrupted_log_truncation_is_finished_exactly_once() {
        for (b, wd) in backends() {
            let b = b.as_ref();
            seed_committed_state(b, 0);
            let consumed = b"0123456789abcdef".to_vec();
            b.append_updates(&consumed).unwrap();
            // Crash after the commit-record write, before truncation.
            write_commit(
                b,
                &CommitRecord {
                    generation: 1,
                    log_consumed_len: consumed.len() as u64,
                    log_consumed_crc: crc32(&consumed),
                },
            )
            .unwrap();
            let report = recover(b).unwrap();
            assert!(report.log_truncated);
            assert!(b.read_updates().unwrap().is_empty());
            assert_eq!(
                read_commit_state(b).unwrap(),
                CommitState::Valid(CommitRecord::clean(1))
            );
            // Re-recovery does not truncate again.
            let report2 = recover(b).unwrap();
            assert!(!report2.log_truncated);
            destroy(wd);
        }
    }

    #[test]
    fn mismatched_log_is_left_alone() {
        for (b, wd) in backends() {
            let b = b.as_ref();
            seed_committed_state(b, 0);
            // The record claims a consumed prefix the log does not
            // carry (truncation already happened; fresh bytes landed).
            write_commit(
                b,
                &CommitRecord {
                    generation: 1,
                    log_consumed_len: 999,
                    log_consumed_crc: 7,
                },
            )
            .unwrap();
            let report = recover(b).unwrap();
            assert!(!report.log_truncated);
            assert_eq!(
                read_commit_state(b).unwrap(),
                CommitState::Valid(CommitRecord::clean(1))
            );
            destroy(wd);
        }
    }

    #[test]
    fn legacy_layout_is_left_untouched() {
        for (b, wd) in backends() {
            let b = b.as_ref();
            // Pre-protocol shape: committed streams, no commit record.
            backend::write_meta(b, &[(1, 4)]).unwrap();
            backend::write_user_lists(b, StreamId::Profiles(0), &[(0, vec![(1, 1.0)])]).unwrap();
            let before = b.read(StreamId::Profiles(0)).unwrap();
            let report = recover(b).unwrap();
            assert_eq!(report.committed_generation, None);
            assert!(!report.rolled_back);
            assert!(!b.exists(StreamId::Commit), "legacy stays legacy");
            assert_eq!(b.read(StreamId::Profiles(0)).unwrap(), before);
            destroy(wd);
        }
    }

    #[test]
    fn recovery_gcs_scratch_streams() {
        for (b, wd) in backends() {
            let b = b.as_ref();
            seed_committed_state(b, 1);
            backend::write_pairs(b, StreamId::TupleBucket(0, 1), &[(0, 1)]).unwrap();
            backend::write_pairs(b, StreamId::TupleRun(0, 1, 0), &[(0, 1)]).unwrap();
            backend::write_pairs(b, StreamId::ExchangeRun(1, 0, 2), &[(0, 1)]).unwrap();
            backend::write_user_lists(b, StreamId::Accumulators(1), &[]).unwrap();
            let report = recover(b).unwrap();
            assert_eq!(report.scratch_deleted, 4);
            assert!(!b.list().unwrap().iter().any(|s| s.is_tuple_scratch()));
            destroy(wd);
        }
    }

    #[test]
    fn torn_log_tail_is_pruned_and_reported() {
        use knn_graph::UserId;
        use knn_sim::{ItemId, ProfileDelta};
        for (b, wd) in backends() {
            let b = b.as_ref();
            seed_committed_state(b, 1);
            backend::append_delta(b, &ProfileDelta::set(UserId::new(0), ItemId::new(3), 1.5))
                .unwrap();
            let whole = b.read_updates().unwrap();
            // A torn append: half of a second record.
            let mut torn = BytesMut::new();
            crate::delta_log::encode_delta(
                &mut torn,
                &ProfileDelta::set(UserId::new(1), ItemId::new(4), 2.5),
            );
            b.append_updates(&torn[..torn.len() - 3]).unwrap();
            let report = recover(b).unwrap();
            let detail = report.log_drop_detail.expect("torn tail reported");
            assert!(detail.contains("dropped"), "{detail}");
            assert_eq!(b.read_updates().unwrap(), whole, "whole records kept");
            // The pruned log decodes strictly.
            assert_eq!(backend::read_deltas(b).unwrap().len(), 1);
            destroy(wd);
        }
    }

    #[test]
    fn txn_commit_sequence_leaves_a_clean_directory() {
        for (b, wd) in backends() {
            let b = b.as_ref();
            seed_committed_state(b, 0);
            let log = b"some-consumed-log-bytes".to_vec();
            b.append_updates(&log).unwrap();
            let mut txn = CommitTxn::new(0);
            txn.backup(b, CommitTarget::Meta).unwrap();
            txn.backup(b, CommitTarget::Profiles(0)).unwrap();
            backend::write_meta(b, &[(1, 1)]).unwrap();
            txn.commit(b, 1, &log).unwrap();
            assert_eq!(
                read_commit_state(b).unwrap(),
                CommitState::Valid(CommitRecord::clean(1))
            );
            assert!(b.read_updates().unwrap().is_empty());
            assert!(!b
                .list()
                .unwrap()
                .iter()
                .any(|s| matches!(s, StreamId::Staged(..))));
            destroy(wd);
        }
    }
}
