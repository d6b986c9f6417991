//! Phase 1: KNN-graph partitioning and storage layout.
//!
//! Splits `G(t)` into `m` balanced partitions, writes each partition's
//! in-edge and out-edge streams **sorted by the bridge vertex** `v` (so
//! phase 2 can emit all two-hop tuples `s → v → d` with one sequential
//! merge-scan), migrates profile streams to the new layout, and resets
//! the per-partition top-K accumulator state. All I/O goes through the
//! engine's [`StorageBackend`].
//!
//! The per-partition work — sorting edge rows, encoding and writing
//! stream payloads — runs across the engine's worker budget. Every
//! stream is written by exactly one worker and the streams are
//! disjoint, so the persisted bytes (and the backend's atomic I/O
//! meter) are identical at every thread count.

use knn_graph::{KnnGraph, UserId};
use knn_sim::ProfileStore;
use knn_store::backend::{read_user_lists, write_pairs, write_user_lists};
use knn_store::{StorageBackend, StreamId};

use crate::par;
use crate::partition::Partitioning;
use crate::EngineError;

/// One partition's grouped edge rows: `(out_rows, in_rows)`.
type EdgeRows = (Vec<(u32, u32)>, Vec<(u32, u32)>);

/// Summary of one phase-1 run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Phase1Stats {
    /// Directed edges written into in-edge streams.
    pub in_edges_written: u64,
    /// Directed edges written into out-edge streams.
    pub out_edges_written: u64,
    /// Profiles migrated between partition streams.
    pub profiles_resharded: u64,
    /// Accumulator entries pre-seeded from `G(t)`'s scored edges.
    pub accums_seeded: u64,
}

/// Writes the per-partition edge streams of `graph` under
/// `partitioning`, preparing partitions across up to `threads`
/// workers.
///
/// For partition `Ri` with users `Vi`:
/// * the **out-edge stream** holds rows `(v, d)` for every edge
///   `v → d, v ∈ Vi`, sorted by `(v, d)`;
/// * the **in-edge stream** holds rows `(v, s)` for every edge
///   `s → v, v ∈ Vi`, sorted by `(v, s)` — the bridge `v` comes first
///   in both layouts.
///
/// Also resets each partition's accumulator stream. Without `seed_ok`
/// every accumulator starts empty (the classic full-rescore path).
/// With `seed_ok`, the accumulator of each user `u` with `seed_ok[u]`
/// is pre-seeded with `u`'s current scored neighbor list — replaying
/// iteration `t-1`'s verdict so phase 2 can drop offers of pairs it
/// already evaluated. Callers must only set `seed_ok[u]` when every
/// seed score is still valid: `u`'s own profile **and** every profile
/// in `u`'s neighbor list unchanged since those scores were computed,
/// and no unscored sentinel in the list (see the engine's dirty-bit
/// plumbing).
///
/// # Errors
///
/// Returns [`EngineError::Store`] on I/O failure.
pub fn write_partition_edges(
    graph: &KnnGraph,
    partitioning: &Partitioning,
    backend: &dyn StorageBackend,
    threads: usize,
    seed_ok: Option<&[bool]>,
) -> Result<Phase1Stats, EngineError> {
    let m = partitioning.num_partitions();
    let mut result = Phase1Stats::default();

    // Group edges by the partition that owns each endpoint-as-bridge.
    let mut out_rows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); m];
    let mut in_rows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); m];
    for (s, nb) in graph.iter_edges() {
        let d = nb.id;
        out_rows[partitioning.partition_of(s) as usize].push((s.raw(), d.raw()));
        in_rows[partitioning.partition_of(d) as usize].push((d.raw(), s.raw()));
    }

    // Each worker owns one partition's rows: sort, write the three
    // streams (no other worker touches them), report the edge counts.
    let rows: Vec<EdgeRows> = out_rows.into_iter().zip(in_rows).collect();
    let counts = par::run_indexed_owned(rows, threads, |p, (mut out, mut inn)| {
        let p = p as u32;
        out.sort_unstable();
        inn.sort_unstable();
        write_pairs(backend, StreamId::OutEdges(p), &out)?;
        write_pairs(backend, StreamId::InEdges(p), &inn)?;
        // Accumulator state for every user of p: empty, or seeded
        // from the user's current scored neighbors.
        let mut seeded = 0u64;
        let accum_rows: Vec<(u32, Vec<(u32, f32)>)> = partitioning
            .users_of(p)
            .iter()
            .map(|&u| {
                let row = match seed_ok {
                    Some(ok) if ok[u.index()] => graph.seed_row(u),
                    _ => Vec::new(),
                };
                seeded += row.len() as u64;
                (u.raw(), row)
            })
            .collect();
        write_user_lists(backend, StreamId::Accumulators(p), &accum_rows)?;
        Ok((out.len() as u64, inn.len() as u64, seeded))
    })?;
    for (out_edges, in_edges, seeded) in counts {
        result.out_edges_written += out_edges;
        result.in_edges_written += in_edges;
        result.accums_seeded += seeded;
    }

    Ok(result)
}

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
    use knn_graph::Neighbor;
    use knn_store::backend::read_pairs;
    use knn_store::{DiskBackend, MemBackend};

    fn setup(n: usize, m: usize) -> (Box<dyn StorageBackend>, Partitioning) {
        let assignment: Vec<u32> = (0..n).map(|u| (u % m) as u32).collect();
        let p = Partitioning::from_assignment(assignment, m).unwrap();
        (Box::new(MemBackend::new()), p)
    }

    fn graph_with_edges(n: usize, k: usize, edges: &[(u32, u32)]) -> KnnGraph {
        let mut g = KnnGraph::new(n, k);
        for &(s, d) in edges {
            g.insert(UserId::new(s), Neighbor::new(UserId::new(d), 0.5));
        }
        g
    }

    #[test]
    fn edge_files_are_sorted_by_bridge() {
        let (b, p) = setup(6, 2);
        let b = b.as_ref();
        // Edges: 4→0, 2→0, 0→5 (users 0,2,4 in partition 0; 1,3,5 in 1).
        let g = graph_with_edges(6, 3, &[(4, 0), (2, 0), (0, 5)]);
        let st = write_partition_edges(&g, &p, b, 1, None).unwrap();
        assert_eq!(st.out_edges_written, 3);
        assert_eq!(st.in_edges_written, 3);
        // Partition 0 out-edges: bridges 0,2,4 → rows (0,5),(2,0),(4,0).
        let out0 = read_pairs(b, StreamId::OutEdges(0)).unwrap();
        assert_eq!(out0, vec![(0, 5), (2, 0), (4, 0)]);
        // Partition 0 in-edges: edges into users 0,2,4: (0,2),(0,4).
        let in0 = read_pairs(b, StreamId::InEdges(0)).unwrap();
        assert_eq!(in0, vec![(0, 2), (0, 4)]);
        // Partition 1 in-edges: edge into 5 from 0.
        let in1 = read_pairs(b, StreamId::InEdges(1)).unwrap();
        assert_eq!(in1, vec![(5, 0)]);
    }

    #[test]
    fn accumulator_files_initialized_empty() {
        let (b, p) = setup(4, 2);
        let g = graph_with_edges(4, 2, &[]);
        write_partition_edges(&g, &p, b.as_ref(), 1, None).unwrap();
        let rows = read_user_lists(b.as_ref(), StreamId::Accumulators(0)).unwrap();
        assert_eq!(rows, vec![(0u32, vec![]), (2, vec![])]);
    }

    #[test]
    fn accumulators_seed_from_scored_edges_when_allowed() {
        let (b, p) = setup(4, 2);
        let mut g = KnnGraph::new(4, 2);
        g.insert(UserId::new(0), Neighbor::new(UserId::new(1), 0.9));
        g.insert(UserId::new(0), Neighbor::new(UserId::new(3), 0.4));
        g.insert(UserId::new(2), Neighbor::new(UserId::new(1), 0.7));
        // User 0 may seed; user 2 may not (e.g. its profile changed).
        let seed_ok = vec![true, true, false, true];
        let st = write_partition_edges(&g, &p, b.as_ref(), 1, Some(&seed_ok)).unwrap();
        assert_eq!(st.accums_seeded, 2, "only user 0's two edges seed");
        let rows = read_user_lists(b.as_ref(), StreamId::Accumulators(0)).unwrap();
        assert_eq!(
            rows,
            vec![(0u32, vec![(1, 0.9), (3, 0.4)]), (2, vec![])],
            "seed rows carry the scored list best-first; denied users stay empty"
        );
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
        let g = graph_with_edges(4, 2, &[(0, 1), (2, 3)]);
        write_partition_edges(&g, &p, b.as_ref(), 1, None).unwrap();
        assert!(b.stats().snapshot().bytes_written > 0);
    }

    /// The phase-1 determinism leg: identical stream bytes, stats, and
    /// I/O totals at every thread count.
    #[test]
    fn thread_count_does_not_change_phase1_output() {
        let n = 50;
        let g = KnnGraph::random_init(n, 4, 33);
        let mut store = ProfileStore::new(n);
        for u in 0..n as u32 {
            store
                .get_mut(UserId::new(u))
                .set(knn_sim::ItemId::new(u % 7), 1.0 + u as f32);
        }
        type Reference = (Phase1Stats, Vec<(StreamId, Vec<u8>)>, u64);
        let mut reference: Option<Reference> = None;
        for threads in [1usize, 2, 4] {
            let (b, p) = setup(n, 5);
            let b = b.as_ref();
            reshard_profiles(b, None, &p, Some(&store), threads).unwrap();
            let st = write_partition_edges(&g, &p, b, threads, None).unwrap();
            let mut streams: Vec<(StreamId, Vec<u8>)> = b
                .list()
                .unwrap()
                .into_iter()
                .map(|s| (s, b.read(s).unwrap()))
                .collect();
            streams.sort_by_key(|&(s, _)| s);
            let bytes_written = b.stats().snapshot().bytes_written;
            match &reference {
                None => reference = Some((st, streams, bytes_written)),
                Some((ref_st, ref_streams, ref_bytes)) => {
                    assert_eq!(ref_st, &st, "threads={threads}");
                    assert_eq!(ref_streams, &streams, "threads={threads}");
                    assert_eq!(ref_bytes, &bytes_written, "threads={threads}");
                }
            }
        }
    }
}
