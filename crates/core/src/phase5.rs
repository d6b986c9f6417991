//! Phase 5: lazy profile updates.
//!
//! Profile changes arriving *during* iteration `t` are appended to the
//! backend's durable update log (the paper's queue `q`) and are **not**
//! visible to the similarity computation of iteration `t`. At the end
//! of the iteration this phase drains the log and rewrites only the
//! affected partition profile streams; the iteration's commit then
//! truncates the consumed log for iteration `t+1`.
//!
//! With offer-time suppression on, the phase ends with the
//! **stale-seed sweep** ([`sweep_stale_seeds`]): an update makes every
//! score involving the updated user stale, so each clean user whose
//! `G(t+1)` row holds an updated member gets that member's fresh
//! score, and keeps its seeded verdict for iteration `t+1` if no fresh
//! score falls behind the row's old k-th entry. The updated users'
//! new rows come from the apply step, already in memory; the sweep
//! reads each profile partition holding an affected user once, and
//! nothing at all when no update was applied. The work is O(change):
//! one updated member no longer voids a row's verdict.

use std::collections::BTreeMap;
use std::path::PathBuf;

use knn_graph::{KnnGraph, Neighbor, UserId};
use knn_sim::{Measure, Profile, ProfileArena, ProfileDelta, RowKernel};
use knn_store::backend::{append_delta, read_deltas, read_user_lists, write_user_lists};
use knn_store::delta_log::decode_deltas;
use knn_store::{CommitTarget, CommitTxn, StorageBackend, StoreError, StreamId};

use crate::par;
use crate::partition::Partitioning;
use crate::phase2::FreshScore;
use crate::phase4::{load_arena, score_canonical};
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
    /// are thread-count-invariant.
    ///
    /// Returns the run statistics, the new rows of the users whose
    /// profile changed as one [`ProfileArena`] — its ascending
    /// [`users`](ProfileArena::users) are the input of the engine's
    /// per-user dirty bits: every similarity score involving one of
    /// these users is stale from the next iteration on — and the raw
    /// log bytes this call consumed.
    ///
    /// Each touched profile stream is backed up into `txn` (pre-image
    /// staged) before the rewrite loop. The log is **not** truncated
    /// here: the engine truncates it inside [`CommitTxn::commit`],
    /// where the consumed-prefix record makes an interrupted
    /// truncation recoverable.
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
        txn: &mut CommitTxn,
    ) -> Result<(Phase5Stats, ProfileArena, Vec<u8>), EngineError> {
        // One raw read serves both decoding and the consumed-bytes
        // return (`read_deltas` is exactly this read + decode, so the
        // metering is unchanged).
        let raw = backend.read_updates()?;
        let deltas = decode_deltas(
            &raw,
            &PathBuf::from(format!("{}:updates.log", backend.name())),
        )?;
        if deltas.is_empty() {
            return Ok((Phase5Stats::default(), ProfileArena::default(), raw));
        }
        let mut by_partition: BTreeMap<u32, Vec<&ProfileDelta>> = BTreeMap::new();
        for d in &deltas {
            by_partition
                .entry(partitioning.partition_of(d.user))
                .or_default()
                .push(d);
        }
        let result = Phase5Stats {
            updates_applied: deltas.len() as u64,
            partitions_rewritten: by_partition.len() as u64,
        };
        // Each touched partition reads its profile stream, applies its
        // deltas in arrival order, and rewrites the stream — fully
        // independently (no other group touches that stream), so the
        // groups run concurrently and nothing is buffered past its
        // own write. Each returns its updated users' new rows.
        let groups: Vec<(u32, Vec<&ProfileDelta>)> = by_partition.into_iter().collect();
        // Pre-images are staged sequentially, in partition order,
        // before any worker mutates — the backup traffic is
        // thread-count-invariant and every touched stream is
        // restorable whatever op the crash lands on.
        for (p, _) in &groups {
            txn.backup(backend, CommitTarget::Profiles(*p))?;
        }
        let updated = par::run_indexed(groups.len(), threads, |idx| {
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
            let mut touched: Vec<u32> = partition_deltas.iter().map(|d| d.user.raw()).collect();
            touched.sort_unstable();
            Ok(new_rows
                .into_iter()
                .filter(|(user, _)| touched.binary_search(user).is_ok())
                .collect::<Vec<_>>())
        })?;
        let mut updated: Vec<(u32, Vec<(u32, f32)>)> = updated.into_iter().flatten().collect();
        updated.sort_unstable_by_key(|&(user, _)| user);
        let entries = updated.iter().map(|(_, row)| row.len()).sum();
        let mut arena = ProfileArena::builder(updated.len(), entries);
        for (user, row) in updated {
            // The rows were just rebuilt from valid profiles.
            arena.push(user, row).map_err(|e| {
                EngineError::input(format!("invalid updated profile for user {user}: {e}"))
            })?;
        }
        Ok((result, arena.finish(), raw))
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

/// The stale-seed sweep, run at the end of phase 5 once the deltas are
/// applied: the per-user seed verdicts and fresh member scores for
/// iteration `t+1`'s suppression (see [`crate::phase2::PruneState`]).
///
/// `graph` is `G(t+1)`, `updated` the updated users' new rows from
/// [`UpdateQueue::apply_all`] and `profile_dirty` their dirty bits.
/// A user `u` is seed-ok when its profile is clean, its row is fully
/// scored, and every updated member `d` of its row scores freshly at
/// least as high as the row's old k-th entry. Each stale pair is
/// scored exactly as phase 4 would score it
/// ([`score_canonical`]), so the seeds are bit-identical to the scores
/// a full rescore computes.
///
/// I/O: each profile partition holding a clean, fully scored user with
/// an updated member is read once (one arena per worker resident, plus
/// `updated`); with no update applied nothing is read. Returns
/// `(seed_ok, fresh)`, `fresh` sorted by `(u, d)` and kept only for
/// seed-ok users.
///
/// # Errors
///
/// Returns [`EngineError::Store`] on I/O failure or corrupt profile
/// streams, and [`EngineError::InputMismatch`] if a partition stream
/// lacks one of its users.
pub(crate) fn sweep_stale_seeds(
    graph: &KnnGraph,
    profile_dirty: &[bool],
    updated: &ProfileArena,
    partitioning: &Partitioning,
    backend: &dyn StorageBackend,
    measure: Measure,
    threads: usize,
) -> Result<(Vec<bool>, Vec<FreshScore>), EngineError> {
    let mut seed_ok: Vec<bool> = (0..graph.num_vertices())
        .map(|u| !profile_dirty[u] && graph.fully_scored(UserId::new(u as u32)))
        .collect();
    let stale = |u: UserId| {
        graph
            .neighbors(u)
            .iter()
            .any(|nb| profile_dirty[nb.id.index()])
    };
    // The affected users of each partition, ascending; partitions
    // without one are not read.
    let groups: Vec<(u32, Vec<UserId>)> = (0..partitioning.num_partitions() as u32)
        .filter_map(|p| {
            let users: Vec<UserId> = partitioning
                .users_of(p)
                .iter()
                .copied()
                .filter(|&u| seed_ok[u.index()] && stale(u))
                .collect();
            (!users.is_empty()).then_some((p, users))
        })
        .collect();
    let scored = par::run_indexed(groups.len(), threads, |idx| {
        let (p, users) = &groups[idx];
        let arena = load_arena(backend, *p)?;
        let mut kernel = RowKernel::new(measure);
        let mut fresh = Vec::new();
        for &u in users {
            let own = arena.get(u.raw()).ok_or_else(|| {
                EngineError::input(format!("user {u} missing from partition {p}"))
            })?;
            for nb in graph.neighbors(u) {
                if let Some(theirs) = updated.get(nb.id.raw()) {
                    let sim = score_canonical(&mut kernel, (u.raw(), own), (nb.id.raw(), theirs));
                    fresh.push((u.raw(), nb.id.raw(), sim));
                }
            }
        }
        Ok(fresh)
    })?;
    let mut fresh: Vec<FreshScore> = scored.into_iter().flatten().collect();
    fresh.sort_unstable_by_key(|&(u, d, _)| (u, d));
    for run in fresh.chunk_by(|a, b| a.0 == b.0) {
        let u = run[0].0;
        // A run exists only for a non-empty row; its last entry is the
        // old k-th one (rows are best-first).
        let old_kth = graph.neighbors(UserId::new(u)).last().copied();
        seed_ok[u as usize] = old_kth.is_some_and(|kth| {
            run.iter()
                .all(|&(_, d, sim)| !kth.beats(&Neighbor::new(UserId::new(d), sim)))
        });
    }
    fresh.retain(|&(u, ..)| seed_ok[u as usize]);
    Ok((seed_ok, fresh))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase1::reshard_profiles;
    use knn_sim::{DeltaOp, ItemId, ProfileStore, Similarity};
    use knn_store::MemBackend;

    /// Applies the queue and commits, as one engine iteration does.
    fn apply(
        q: &mut UpdateQueue,
        p: &Partitioning,
        b: &MemBackend,
        threads: usize,
    ) -> (Phase5Stats, Vec<u32>) {
        let mut txn = CommitTxn::new(0);
        let (stats, updated, consumed) = q.apply_all(p, b, threads, &mut txn).unwrap();
        txn.commit(b, 1, &consumed).unwrap();
        (stats, updated.users().to_vec())
    }

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
        let (st, updated) = apply(&mut q, &p, &b, 1);
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
        let (_, updated) = apply(&mut q, &p, &b, 1);
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
        apply(&mut q, &p, &b, 1);
        assert_eq!(q.pending(&b).unwrap(), 0);
        let (st, updated) = apply(&mut q, &p, &b, 1);
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
        apply(&mut q, &p, &b, 1);
        assert_eq!(UpdateQueue::read_profile(u, &p, &b).unwrap(), full);
        q.queue(&ProfileDelta::new(u, DeltaOp::Clear), &b).unwrap();
        apply(&mut q, &p, &b, 1);
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
            let (st, _) = apply(&mut q, &p, &b, threads);
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
        let (st, _, raw) = q.apply_all(&p, &b, 1, &mut txn).unwrap();
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
            "log truncation is left to the commit"
        );
    }

    /// A line world for the sweep: user `u` rates items `u` and `u+1`,
    /// users alternate between two partitions, and `G(t+1)`'s rows
    /// carry the true cosine scores.
    fn sweep_world() -> (
        MemBackend,
        Partitioning,
        UpdateQueue,
        ProfileStore,
        KnnGraph,
    ) {
        let n = 6;
        let mut store = ProfileStore::new(n);
        for u in 0..n as u32 {
            store.set(
                UserId::new(u),
                Profile::from_unsorted_pairs(vec![(u, 1.0), (u + 1, 1.0)]).unwrap(),
            );
        }
        let b = MemBackend::new();
        let assignment: Vec<u32> = (0..n).map(|u| (u % 2) as u32).collect();
        let p = Partitioning::from_assignment(assignment, 2).unwrap();
        reshard_profiles(&b, None, &p, Some(&store), 1).unwrap();
        let rows: [&[u32]; 6] = [&[1, 2], &[0, 2], &[1, 3], &[2, 4], &[3, 5], &[4]];
        let mut g = KnnGraph::new(n, 2);
        for (u, row) in rows.iter().enumerate() {
            let user = UserId::new(u as u32);
            for &v in *row {
                let sim = Measure::Cosine.score(store.get(user), store.get(UserId::new(v)));
                g.insert(user, Neighbor::new(UserId::new(v), sim));
            }
        }
        (b, p, UpdateQueue::new(n), store, g)
    }

    /// The verdict rule on a hand-checked world. User 1 gains item 0:
    /// its score with user 0 rises (0.5 → 0.82), with user 2 it falls
    /// (0.5 → 0.41). Row 0's old k-th entry is user 2 at 0.0, so row 0
    /// keeps its verdict and seeds the fresh score; row 2's is user 3
    /// at 0.5, which now beats user 1, so row 2 loses it. Rows without
    /// user 1 keep theirs untouched, and user 1 itself is dirty. Only
    /// partition 0 (users 0 and 2) is read, once; the fresh score is
    /// bit-identical to the pair kernel's.
    #[test]
    fn sweep_keeps_exactly_the_verdicts_the_fresh_scores_allow() {
        let (b, p, mut q, store, g) = sweep_world();
        let one = UserId::new(1);
        q.queue(&ProfileDelta::set(one, ItemId::new(0), 1.0), &b)
            .unwrap();
        let mut txn = CommitTxn::new(0);
        let (_, updated, _) = q.apply_all(&p, &b, 1, &mut txn).unwrap();
        assert_eq!(updated.users(), &[1]);
        let dirty = [false, true, false, false, false, false];
        let before = b.io_snapshot();
        let (seed_ok, fresh) =
            sweep_stale_seeds(&g, &dirty, &updated, &p, &b, Measure::Cosine, 2).unwrap();
        let io = b.io_snapshot() - before;
        assert_eq!((io.read_ops, io.write_ops), (1, 0), "one partition read");
        assert_eq!(seed_ok, vec![true, false, false, true, true, true]);
        let new_one = UpdateQueue::read_profile(one, &p, &b).unwrap();
        let expected = Measure::Cosine.score(store.get(UserId::new(0)), &new_one);
        assert!(expected > 0.8);
        assert_eq!(fresh.len(), 1, "row 2 lost its verdict, so no fresh entry");
        assert_eq!(fresh[0].0, 0);
        assert_eq!(fresh[0].1, 1);
        assert_eq!(fresh[0].2.to_bits(), expected.to_bits());
    }

    /// Without an applied update the sweep reads nothing, and a seed
    /// verdict is exactly "clean and fully scored".
    #[test]
    fn sweep_without_updates_reads_nothing() {
        let (b, p, _, _, mut g) = sweep_world();
        g.insert(UserId::new(5), Neighbor::unscored(UserId::new(0)));
        let before = b.io_snapshot();
        let (seed_ok, fresh) = sweep_stale_seeds(
            &g,
            &[false; 6],
            &ProfileArena::default(),
            &p,
            &b,
            Measure::Cosine,
            2,
        )
        .unwrap();
        assert_eq!(b.io_snapshot() - before, Default::default());
        assert_eq!(seed_ok, vec![true, true, true, true, true, false]);
        assert!(fresh.is_empty());
    }

    #[test]
    fn read_profile_unknown_user_errors() {
        let (b, p, _q) = setup(2, 1);
        assert!(UpdateQueue::read_profile(UserId::new(0), &p, &b).is_ok());
        assert!(UpdateQueue::read_profile(UserId::new(1), &p, &b).is_ok());
    }
}
