//! Phase 1: KNN-graph partitioning and profile layout.
//!
//! Splits `G(t)` into `m` balanced partitions and migrates the profile
//! streams to the new layout through the engine's [`StorageBackend`].
//! Phase 1 writes no edge or top-K state: the candidate generator reads
//! `G(t)` in RAM, and phase 4 builds its accumulators there.
//!
//! The per-partition work — sorting rows, encoding and writing stream
//! payloads — runs across the engine's worker budget. Every stream is
//! written by exactly one worker and the streams are disjoint, so the
//! persisted bytes (and the backend's atomic I/O meter) are identical
//! at every thread count.

use knn_graph::UserId;
use knn_sim::ProfileStore;
use knn_store::backend::{read_user_lists, write_user_lists};
use knn_store::{StorageBackend, StreamId};

use crate::par;
use crate::partition::Partitioning;
use crate::EngineError;

/// Migrates profile streams from `old` partition layout to `new`,
/// reading old streams and sorting/writing new ones across up to
/// `threads` workers (one worker per stream — the streams are
/// disjoint, so the persisted bytes are thread-count-invariant).
///
/// When `old` is `None` the profiles come from `initial` (engine
/// setup); otherwise each old partition stream is read once and its
/// rows are redistributed. Every user must appear exactly once.
///
/// # Errors
///
/// Returns [`EngineError::Store`] on I/O failure and
/// [`EngineError::InputMismatch`] if the old layout does not cover
/// exactly the expected users.
pub fn reshard_profiles(
    backend: &dyn StorageBackend,
    old: Option<&Partitioning>,
    new: &Partitioning,
    initial: Option<&ProfileStore>,
    threads: usize,
) -> Result<u64, EngineError> {
    let m = new.num_partitions();
    let n = new.num_users();
    let mut staged: Vec<Vec<knn_store::record_file::UserListRow>> = vec![Vec::new(); m];
    let mut seen = 0u64;

    let mut place = |staged: &mut Vec<Vec<knn_store::record_file::UserListRow>>,
                     user: u32,
                     row: Vec<(u32, f32)>|
     -> Result<(), EngineError> {
        if user as usize >= n {
            return Err(EngineError::input(format!(
                "profile row for user {user} but n={n}"
            )));
        }
        let p = new.partition_of(UserId::new(user));
        staged[p as usize].push((user, row));
        seen += 1;
        Ok(())
    };

    match (old, initial) {
        (Some(old_layout), _) => {
            // Read every old partition stream concurrently; placement
            // stays on the driving thread (the staged rows are sorted
            // by user before the write, so arrival order is moot).
            let all_rows = par::run_indexed(old_layout.num_partitions(), threads, |p| {
                Ok(read_user_lists(backend, StreamId::Profiles(p as u32))?)
            })?;
            for rows in all_rows {
                for (user, row) in rows {
                    place(&mut staged, user, row)?;
                }
            }
        }
        (None, Some(store)) => {
            for (user, profile) in store.iter() {
                let row: Vec<(u32, f32)> = profile.iter().map(|(i, w)| (i.raw(), w)).collect();
                place(&mut staged, user.raw(), row)?;
            }
        }
        (None, None) => {
            return Err(EngineError::input(
                "reshard needs either an old layout or an initial profile store",
            ));
        }
    }

    if seen != n as u64 {
        return Err(EngineError::input(format!(
            "reshard saw {seen} profile rows, expected {n}"
        )));
    }

    // Sort and write each new stream on its own worker, dropping the
    // partition's rows as soon as its stream is persisted.
    par::run_indexed_owned(staged, threads, |p, mut rows| {
        rows.sort_unstable_by_key(|&(u, _)| u);
        write_user_lists(backend, StreamId::Profiles(p as u32), &rows)?;
        Ok(())
    })?;
    Ok(seen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_store::{DiskBackend, MemBackend};

    fn setup(n: usize, m: usize) -> (Box<dyn StorageBackend>, Partitioning) {
        let assignment: Vec<u32> = (0..n).map(|u| (u % m) as u32).collect();
        let p = Partitioning::from_assignment(assignment, m).unwrap();
        (Box::new(MemBackend::new()), p)
    }

    #[test]
    fn initial_reshard_places_every_profile() {
        let (b, p) = setup(5, 2);
        let mut store = ProfileStore::new(5);
        for u in 0..5u32 {
            store
                .get_mut(UserId::new(u))
                .set(knn_sim::ItemId::new(u), u as f32 + 1.0);
        }
        let moved = reshard_profiles(b.as_ref(), None, &p, Some(&store), 1).unwrap();
        assert_eq!(moved, 5);
        let rows0 = read_user_lists(b.as_ref(), StreamId::Profiles(0)).unwrap();
        let users0: Vec<u32> = rows0.iter().map(|&(u, _)| u).collect();
        assert_eq!(users0, vec![0, 2, 4]);
    }

    #[test]
    fn relayout_moves_rows_between_files() {
        // Run the relayout on the disk backend too: it is the
        // migration path production working dirs take.
        let disk = DiskBackend::temp("phase1_relayout").unwrap();
        let wd = disk.working_dir().unwrap().clone();
        let old = Partitioning::from_assignment(vec![0, 1, 0, 1], 2).unwrap(); // u % 2
        let mut store = ProfileStore::new(4);
        for u in 0..4u32 {
            store
                .get_mut(UserId::new(u))
                .set(knn_sim::ItemId::new(9), u as f32);
        }
        reshard_profiles(&disk, None, &old, Some(&store), 1).unwrap();
        // New layout: contiguous halves.
        let new = Partitioning::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let moved = reshard_profiles(&disk, Some(&old), &new, None, 2).unwrap();
        assert_eq!(moved, 4);
        let rows0 = read_user_lists(&disk, StreamId::Profiles(0)).unwrap();
        let users0: Vec<u32> = rows0.iter().map(|&(u, _)| u).collect();
        assert_eq!(users0, vec![0, 1]);
        wd.destroy().unwrap();
    }

    #[test]
    fn reshard_without_source_errors() {
        let (b, p) = setup(4, 2);
        assert!(matches!(
            reshard_profiles(b.as_ref(), None, &p, None, 1),
            Err(EngineError::InputMismatch { .. })
        ));
    }

    #[test]
    fn reshard_detects_missing_users() {
        let (b, p) = setup(4, 2);
        let store = ProfileStore::new(3); // one user short
        assert!(matches!(
            reshard_profiles(b.as_ref(), None, &p, Some(&store), 1),
            Err(EngineError::InputMismatch { .. })
        ));
    }

    #[test]
    fn io_is_counted() {
        let (b, p) = setup(4, 2);
        let store = ProfileStore::new(4);
        reshard_profiles(b.as_ref(), None, &p, Some(&store), 1).unwrap();
        assert!(b.stats().snapshot().bytes_written > 0);
    }

    /// The phase-1 determinism leg: identical stream bytes, stats, and
    /// I/O totals at every thread count.
    #[test]
    fn thread_count_does_not_change_phase1_output() {
        let n = 50;
        let mut store = ProfileStore::new(n);
        for u in 0..n as u32 {
            store
                .get_mut(UserId::new(u))
                .set(knn_sim::ItemId::new(u % 7), 1.0 + u as f32);
        }
        type Reference = (Vec<(StreamId, Vec<u8>)>, u64);
        let mut reference: Option<Reference> = None;
        for threads in [1usize, 2, 4] {
            let (b, p) = setup(n, 5);
            let b = b.as_ref();
            reshard_profiles(b, None, &p, Some(&store), threads).unwrap();
            let mut streams: Vec<(StreamId, Vec<u8>)> = b
                .list()
                .unwrap()
                .into_iter()
                .map(|s| (s, b.read(s).unwrap()))
                .collect();
            streams.sort_by_key(|&(s, _)| s);
            let bytes_written = b.stats().snapshot().bytes_written;
            match &reference {
                None => reference = Some((streams, bytes_written)),
                Some((ref_streams, ref_bytes)) => {
                    assert_eq!(ref_streams, &streams, "threads={threads}");
                    assert_eq!(ref_bytes, &bytes_written, "threads={threads}");
                }
            }
        }
    }
}
