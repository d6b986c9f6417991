//! Phase 2: candidate tuple generation and deduplication.
//!
//! Streams each partition's sorted in-edge and out-edge streams once,
//! joining on the bridge vertex `v`: every `(s, v)` in-edge crossed
//! with every `(v, d)` out-edge yields the two-hop candidate `(s, d)`,
//! and the out-edges themselves are the direct candidates `(v, d)` —
//! together the "neighbors and neighbors' neighbors" set the paper's
//! KNN step scores. Uniqueness is enforced by the tuple table
//! ([`crate::tuple_table::TupleTable`]).
//!
//! Partitions are scanned **in parallel**: every scan owns a private
//! [`TupleTable`] spilling into its own run namespace, and
//! [`crate::tuple_table::merge_parts`] folds the per-scan outputs into
//! the final bucket streams. The algorithm is the same at every thread
//! count — only the distribution of scans over workers changes — so
//! tuple buckets, [`PiGraph`] weights, and [`TupleTableStats`] are
//! identical whether phase 2 ran on one thread or eight.

use knn_graph::EdgeAdditions;
use knn_store::backend::read_pairs;
use knn_store::{StorageBackend, StreamId};

use crate::par;
use crate::partition::Partitioning;
use crate::tuple_table::{merge_parts, BucketMeta, TupleTable, TupleTableStats};
use crate::{EngineError, PiGraph};

/// Output of phase 2: the PI graph over the written tuple buckets plus
/// dedup statistics and the per-bucket tuple metadata (direction bits
/// always; old-path bits when an edge-addition oracle was supplied).
#[derive(Debug, Clone, PartialEq)]
pub struct Phase2Output {
    /// The partition-interaction graph (bucket tuple counts).
    pub pi: PiGraph,
    /// Tuple-table statistics.
    pub stats: TupleTableStats,
    /// Per-bucket tuple metadata, aligned with each bucket stream's
    /// sorted tuple order: which directions of each canonical tuple
    /// exist (phase 4 scores each unordered pair once and offers along
    /// these), and which were already evaluated last iteration.
    pub tuple_meta: BucketMeta,
}

/// Options of one phase-2 run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase2Options {
    /// Per-bucket staging row count that triggers a spill.
    pub spill_threshold: usize,
    /// Optional per-scan-table staging byte budget (see
    /// [`TupleTable::with_memory_budget`]); peak phase-2 staging is
    /// then at most `min(threads, partitions) × budget`.
    pub tuple_table_memory: Option<usize>,
    /// Worker budget for the partition scans and the bucket merge.
    pub threads: usize,
}

impl Phase2Options {
    /// Options with the given spill threshold and worker budget, no
    /// byte budget.
    pub fn new(spill_threshold: usize, threads: usize) -> Self {
        Phase2Options {
            spill_threshold,
            tuple_table_memory: None,
            threads,
        }
    }
}

/// Runs phase 2 over the edge streams written by
/// [`crate::phase1::write_partition_edges`], scanning partitions
/// across up to `options.threads` workers.
///
/// With an `additions` oracle (the edges of `G(t)` absent from
/// `G(t-1)`), every offered tuple is tagged with whether its
/// generating path consists entirely of **old** edges — such a pair
/// was already generated and evaluated last iteration, which is what
/// lets phase 4 skip its kernel evaluation. The tag does not change
/// the tuple set, the bucket bytes, the PI graph, or the stats (the
/// old-path bits live in the returned [`BucketMeta`] and, transiently,
/// in the spill runs the merge consumes).
///
/// # Errors
///
/// Returns [`EngineError::Store`] on I/O failure or corrupt edge
/// streams.
pub fn generate_tuples(
    partitioning: &Partitioning,
    backend: &dyn StorageBackend,
    options: &Phase2Options,
    additions: Option<&EdgeAdditions>,
) -> Result<Phase2Output, EngineError> {
    backend.clear_tuples()?;
    let all: Vec<u32> = (0..partitioning.num_partitions() as u32).collect();
    let parts = scan_tables(partitioning, backend, options, additions, &all)?;
    let (pi, stats, tuple_meta) = merge_parts(backend, partitioning, parts, options.threads)?;
    Ok(Phase2Output {
        pi,
        stats,
        tuple_meta,
    })
}

/// Scans the given `partitions`, returning one
/// [`TableParts`](crate::tuple_table::TableParts) per partition in the
/// given order. This is [`generate_tuples`]'s scan half, exposed so a
/// sharded driver can scan only the partitions a shard owns, extract
/// the foreign buckets, and feed the rest into
/// [`crate::tuple_table::merge_parts_with_exchange`]. Each table's run
/// namespace is its **partition id** (not its slot in `partitions`),
/// so spill-run stream names are identical however partitions are
/// divided among callers.
///
/// # Errors
///
/// Returns [`EngineError::Store`] on I/O failure or corrupt edge
/// streams.
pub fn scan_tables(
    partitioning: &Partitioning,
    backend: &dyn StorageBackend,
    options: &Phase2Options,
    additions: Option<&EdgeAdditions>,
    partitions: &[u32],
) -> Result<Vec<crate::tuple_table::TableParts>, EngineError> {
    par::run_indexed(partitions.len(), options.threads, |idx| {
        let p = partitions[idx];
        let mut table =
            TupleTable::with_namespace(backend, partitioning, options.spill_threshold, p)
                .with_memory_budget(options.tuple_table_memory);
        scan_partition(p, backend, &mut table, additions)?;
        Ok(table.into_parts())
    })
}

/// Scans one partition's edge streams, offering every direct and
/// two-hop candidate to `table` (tagged with path age when an oracle
/// is present).
pub fn scan_partition(
    p: u32,
    backend: &dyn StorageBackend,
    table: &mut TupleTable<'_>,
    additions: Option<&EdgeAdditions>,
) -> Result<(), EngineError> {
    // Rows are (bridge, other), sorted by bridge then other.
    let in_rows = read_pairs(backend, StreamId::InEdges(p))?;
    let out_rows = read_pairs(backend, StreamId::OutEdges(p))?;

    // An edge is "old" when it is not among this iteration's
    // additions; a path is old when every edge on it is.
    let edge_is_old = |s: u32, d: u32| additions.is_some_and(|a| !a.is_added(s, d));

    // Direct candidates: each out-edge (v, d) of G(t).
    for &(v, d) in &out_rows {
        table.offer_flagged(v, d, edge_is_old(v, d))?;
    }

    // Two-hop candidates: group both lists by bridge and cross.
    let (mut i, mut j) = (0usize, 0usize);
    while i < in_rows.len() && j < out_rows.len() {
        let bridge = in_rows[i].0;
        match bridge.cmp(&out_rows[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let i_end = in_rows[i..].partition_point(|r| r.0 == bridge) + i;
                let j_end = out_rows[j..].partition_point(|r| r.0 == bridge) + j;
                for &(_, s) in &in_rows[i..i_end] {
                    // The in-leg s → bridge is shared by every tuple
                    // of this group; check it once.
                    let in_leg_old = edge_is_old(s, bridge);
                    for &(_, d) in &out_rows[j..j_end] {
                        table.offer_flagged(s, d, in_leg_old && edge_is_old(bridge, d))?;
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    Ok(())
}

/// Reference tuple set for a KNN graph: all direct edges plus all
/// two-hop pairs `(s, d)` with `s → v → d`, excluding self-pairs.
/// Used by tests and the reference engine to validate
/// [`generate_tuples`].
pub fn reference_tuple_set(graph: &knn_graph::KnnGraph) -> std::collections::HashSet<(u32, u32)> {
    let n = graph.num_vertices();
    let mut set = std::collections::HashSet::new();
    // In-neighbor lists: sources per bridge.
    let mut sources: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (s, nb) in graph.iter_edges() {
        set.insert((s.raw(), nb.id.raw()));
        sources[nb.id.index()].push(s.raw());
    }
    for v in 0..n as u32 {
        let bridge = knn_graph::UserId::new(v);
        for &s in &sources[bridge.index()] {
            for d_nb in graph.neighbors(bridge) {
                if s != d_nb.id.raw() {
                    set.insert((s, d_nb.id.raw()));
                }
            }
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase1::write_partition_edges;
    use knn_graph::{KnnGraph, Neighbor, UserId};
    use knn_store::MemBackend;

    fn setup(n: usize, m: usize) -> (MemBackend, Partitioning) {
        let assignment: Vec<u32> = (0..n).map(|u| (u % m) as u32).collect();
        let p = Partitioning::from_assignment(assignment, m).unwrap();
        (MemBackend::new(), p)
    }

    fn run_phase2(g: &KnnGraph, b: &dyn StorageBackend, p: &Partitioning) -> Phase2Output {
        write_partition_edges(g, p, b, 1, None).unwrap();
        generate_tuples(p, b, &Phase2Options::new(1 << 16, 1), None).unwrap()
    }

    /// Expands the canonical buckets back to the directed tuple view
    /// (what the reference engine scores) via the direction bits.
    fn all_tuples(
        out: &Phase2Output,
        b: &dyn StorageBackend,
    ) -> std::collections::HashSet<(u32, u32)> {
        use crate::tuple_table::meta_bits;
        let mut set = std::collections::HashSet::new();
        for ((i, j), _) in out.pi.iter_buckets() {
            for (idx, (u, v, _)) in knn_store::backend::read_tuples(b, StreamId::TupleBucket(i, j))
                .unwrap()
                .into_iter()
                .enumerate()
            {
                let bits = out.tuple_meta.bits((i, j), idx);
                if bits & meta_bits::FWD != 0 {
                    set.insert((u, v));
                }
                if bits & meta_bits::BWD != 0 {
                    set.insert((v, u));
                }
            }
        }
        set
    }

    #[test]
    fn path_graph_generates_direct_and_two_hop() {
        // 0→1→2: direct (0,1),(1,2); two-hop (0,2).
        let (b, p) = setup(3, 2);
        let mut g = KnnGraph::new(3, 2);
        g.insert(UserId::new(0), Neighbor::new(UserId::new(1), 0.5));
        g.insert(UserId::new(1), Neighbor::new(UserId::new(2), 0.5));
        let out = run_phase2(&g, &b, &p);
        let got = all_tuples(&out, &b);
        let expected: std::collections::HashSet<(u32, u32)> =
            [(0, 1), (1, 2), (0, 2)].into_iter().collect();
        assert_eq!(got, expected);
        assert_eq!(out.stats.unique, 3);
    }

    #[test]
    fn cycle_deduplicates_and_skips_self() {
        // Triangle 0→1→2→0: two-hop pairs include (0,2),(1,0),(2,1);
        // (0,0) etc. are skipped as self-tuples.
        let (b, p) = setup(3, 3);
        let mut g = KnnGraph::new(3, 1);
        g.insert(UserId::new(0), Neighbor::new(UserId::new(1), 0.5));
        g.insert(UserId::new(1), Neighbor::new(UserId::new(2), 0.5));
        g.insert(UserId::new(2), Neighbor::new(UserId::new(0), 0.5));
        let out = run_phase2(&g, &b, &p);
        let got = all_tuples(&out, &b);
        assert_eq!(got, reference_tuple_set(&g));
        assert!(got.iter().all(|&(s, d)| s != d));
    }

    #[test]
    fn diamond_counts_duplicate_once() {
        // a→b→d and a→c→d: tuple (a,d) generated via two bridges.
        let (b, p) = setup(4, 2);
        let mut g = KnnGraph::new(4, 2);
        let nb = |id: u32| Neighbor::new(UserId::new(id), 0.5);
        g.insert(UserId::new(0), nb(1));
        g.insert(UserId::new(0), nb(2));
        g.insert(UserId::new(1), nb(3));
        g.insert(UserId::new(2), nb(3));
        let out = run_phase2(&g, &b, &p);
        assert!(
            out.stats.duplicates >= 1,
            "diamond tuple must be deduplicated"
        );
        let got = all_tuples(&out, &b);
        assert_eq!(got, reference_tuple_set(&g));
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        for seed in 0..5u64 {
            let n = 40;
            let g = KnnGraph::random_init(n, 4, seed);
            let (b, p) = setup(n, 5);
            let out = run_phase2(&g, &b, &p);
            let got = all_tuples(&out, &b);
            assert_eq!(got, reference_tuple_set(&g), "seed {seed}");
            assert_eq!(out.tuple_meta.num_directed() as usize, got.len());
            assert!(out.stats.unique as usize <= got.len());
        }
    }

    #[test]
    fn pi_graph_weights_match_bucket_contents() {
        let (b, p) = setup(30, 4);
        let g = KnnGraph::random_init(30, 3, 9);
        let out = run_phase2(&g, &b, &p);
        for ((i, j), w) in out.pi.iter_buckets() {
            let rows = knn_store::backend::read_tuples(&b, StreamId::TupleBucket(i, j)).unwrap();
            assert_eq!(rows.len() as u64, w);
            for (s, d, _) in rows {
                assert_eq!(p.partition_of(UserId::new(s)), i);
                assert_eq!(p.partition_of(UserId::new(d)), j);
            }
        }
    }

    /// The tuple metadata against brute-force oracles: each direction
    /// bit matches membership in the directed reference tuple set, and
    /// each old-path bit matches the directed tuple set of the
    /// shared-edge (old ∩ new) subgraph.
    #[test]
    fn tuple_meta_matches_brute_force_path_analysis() {
        use crate::tuple_table::meta_bits;
        for seed in [3u64, 8] {
            let n = 40;
            let old_g = KnnGraph::random_init(n, 4, seed);
            // Perturb: rebuild with a different seed so a realistic
            // mix of edges is shared/new.
            let new_g = KnnGraph::random_init(n, 4, seed + 100);
            let additions = new_g.additions_since(&old_g);
            let (b, p) = setup(n, 4);
            write_partition_edges(&new_g, &p, &b, 1, None).unwrap();
            let out =
                generate_tuples(&p, &b, &Phase2Options::new(1 << 16, 1), Some(&additions)).unwrap();

            // Brute-force oracles: the directed tuple sets of the new
            // graph and of the shared-edge subgraph.
            let directed = reference_tuple_set(&new_g);
            let mut shared = KnnGraph::new(n, 4);
            for (s, nb) in new_g.iter_edges() {
                if !additions.is_added(s.raw(), nb.id.raw()) {
                    shared.insert(s, nb);
                }
            }
            let old_pairs = reference_tuple_set(&shared);

            let mut checked = 0usize;
            let mut old_count = 0usize;
            for ((i, j), _) in out.pi.iter_buckets() {
                let bucket =
                    knn_store::backend::read_tuples(&b, StreamId::TupleBucket(i, j)).unwrap();
                for (idx, &(u, v, _)) in bucket.iter().enumerate() {
                    let bits = out.tuple_meta.bits((i, j), idx);
                    let label = format!("seed {seed}: tuple ({u}, {v})");
                    assert_eq!(
                        bits & meta_bits::FWD != 0,
                        directed.contains(&(u, v)),
                        "{label} FWD"
                    );
                    assert_eq!(
                        bits & meta_bits::BWD != 0,
                        directed.contains(&(v, u)),
                        "{label} BWD"
                    );
                    assert_eq!(
                        bits & meta_bits::OLD_FWD != 0,
                        old_pairs.contains(&(u, v)),
                        "{label} OLD_FWD"
                    );
                    assert_eq!(
                        bits & meta_bits::OLD_BWD != 0,
                        old_pairs.contains(&(v, u)),
                        "{label} OLD_BWD"
                    );
                    checked += 1;
                    old_count += (bits & (meta_bits::OLD_FWD | meta_bits::OLD_BWD) != 0) as usize;
                }
            }
            assert_eq!(checked as u64, out.stats.unique);
            assert!(old_count > 0, "seed {seed}: some paths must be old");
            assert!(
                (old_count as u64) < out.stats.unique,
                "seed {seed}: some paths must be new"
            );
        }
    }

    /// Tagging tuples never changes what is persisted: bucket bytes,
    /// PI graph, and stats are identical with and without the oracle.
    #[test]
    fn oracle_does_not_change_buckets_or_stats() {
        let n = 30;
        let g = KnnGraph::random_init(n, 3, 17);
        let additions = g.additions_since(&KnnGraph::new(n, 3)); // everything new
        let mut outputs = Vec::new();
        for oracle in [None, Some(&additions)] {
            let (b, p) = setup(n, 3);
            write_partition_edges(&g, &p, &b, 1, None).unwrap();
            let out = generate_tuples(&p, &b, &Phase2Options::new(1 << 16, 1), oracle).unwrap();
            let mut streams: Vec<(StreamId, Vec<u8>)> = b
                .list()
                .unwrap()
                .into_iter()
                .map(|s| (s, b.read(s).unwrap()))
                .collect();
            streams.sort_by_key(|&(s, _)| s);
            outputs.push((out.pi, out.stats, streams));
        }
        assert_eq!(outputs[0], outputs[1]);
    }

    /// The spill threshold is output-invariant for real scans, oracle
    /// included: identical buckets, PI graph, metadata, and dedup stats
    /// whether every offer spills or none does (spill counts
    /// legitimately differ).
    #[test]
    fn spill_threshold_is_output_invariant_under_the_oracle() {
        let n = 50;
        let old_g = KnnGraph::random_init(n, 4, 5);
        let g = KnnGraph::random_init(n, 4, 55);
        let additions = g.additions_since(&old_g);
        let mut outputs = Vec::new();
        for spill_threshold in [2usize, 1 << 16] {
            let (b, p) = setup(n, 4);
            write_partition_edges(&g, &p, &b, 1, None).unwrap();
            let opts = Phase2Options::new(spill_threshold, 2);
            let out = generate_tuples(&p, &b, &opts, Some(&additions)).unwrap();
            let mut streams: Vec<(StreamId, Vec<u8>)> = b
                .list()
                .unwrap()
                .into_iter()
                .filter(|s| matches!(s, StreamId::TupleBucket(..)))
                .map(|s| (s, b.read(s).unwrap()))
                .collect();
            streams.sort_by_key(|&(s, _)| s);
            outputs.push((
                out.pi,
                (out.stats.offered, out.stats.unique, out.stats.duplicates),
                out.tuple_meta,
                streams,
            ));
        }
        assert_eq!(outputs[0], outputs[1]);
    }

    #[test]
    fn empty_graph_produces_no_tuples() {
        let (b, p) = setup(4, 2);
        let g = KnnGraph::new(4, 2);
        let out = run_phase2(&g, &b, &p);
        assert_eq!(out.pi.total_tuples(), 0);
        assert_eq!(out.stats.offered, 0);
    }

    #[test]
    fn stale_buckets_from_previous_iteration_are_cleared() {
        let (b, p) = setup(3, 2);
        knn_store::backend::write_pairs(&b, StreamId::TupleBucket(1, 1), &[(9, 9)]).unwrap();
        let g = KnnGraph::new(3, 2);
        let _ = run_phase2(&g, &b, &p);
        assert!(
            !b.exists(StreamId::TupleBucket(1, 1)),
            "stale bucket must be removed"
        );
    }

    /// The determinism guarantee at the phase boundary: identical
    /// buckets (bytes included), PI graph, and stats at every thread
    /// count, on spill-heavy configurations too.
    #[test]
    fn thread_count_does_not_change_phase2_output() {
        for spill_threshold in [1usize, 4, 1 << 16] {
            let n = 60;
            let g = KnnGraph::random_init(n, 4, 21);
            type Reference = (Phase2Output, Vec<(StreamId, Vec<u8>)>);
            let mut reference: Option<Reference> = None;
            for threads in [1usize, 2, 4] {
                let (b, p) = setup(n, 5);
                write_partition_edges(&g, &p, &b, threads, None).unwrap();
                let out =
                    generate_tuples(&p, &b, &Phase2Options::new(spill_threshold, threads), None)
                        .unwrap();
                let mut streams: Vec<(StreamId, Vec<u8>)> = b
                    .list()
                    .unwrap()
                    .into_iter()
                    .filter(|s| matches!(s, StreamId::TupleBucket(..)))
                    .map(|s| (s, b.read(s).unwrap()))
                    .collect();
                streams.sort_by_key(|&(s, _)| s);
                match &reference {
                    None => reference = Some((out, streams)),
                    Some((ref_out, ref_streams)) => {
                        assert_eq!(ref_out, &out, "threads={threads} spill={spill_threshold}");
                        assert_eq!(
                            ref_streams, &streams,
                            "bucket bytes diverged at threads={threads} spill={spill_threshold}"
                        );
                    }
                }
            }
        }
    }
}
