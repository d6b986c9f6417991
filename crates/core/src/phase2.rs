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
//! This is also where redundancy is decided. With the previous
//! iteration's bookkeeping (`Suppression`), a directed candidate
//! whose verdict is already known is never offered: NN-Descent's "join
//! only what is new", on the paper's out-of-core machinery. The
//! suppressed offers are counted and reported as
//! `IterationReport::sims_skipped`.
//!
//! Partitions are scanned **in parallel**: every scan owns a private
//! [`TupleTable`] spilling into its own run namespace, and
//! [`crate::tuple_table::merge_parts`] folds the per-scan outputs into
//! the final bucket streams. The algorithm is the same at every thread
//! count — only the distribution of scans over workers changes — so
//! tuple buckets, [`PiGraph`] weights, [`TupleTableStats`] and the
//! suppressed count are identical whether phase 2 ran on one thread or
//! eight.

use knn_graph::EdgeAdditions;
use knn_store::backend::read_pairs;
use knn_store::{StorageBackend, StreamId};

use crate::par;
use crate::partition::Partitioning;
use crate::tuple_table::{merge_parts, TupleTable, TupleTableStats};
use crate::{EngineError, PiGraph};

/// Output of phase 2: the PI graph over the written tuple buckets plus
/// dedup statistics.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Phase2Output {
    /// The partition-interaction graph (bucket tuple counts).
    pub pi: PiGraph,
    /// Tuple-table statistics.
    pub stats: TupleTableStats,
    /// Directed offers suppressed as redundant (never offered, so not
    /// in `stats`).
    pub suppressed: u64,
}

/// Options of one phase-2 run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Phase2Options {
    /// Per-bucket staging row count that triggers a spill.
    pub spill_threshold: usize,
    /// Optional per-scan-table staging byte budget (see
    /// [`TupleTable::with_memory_budget`]); peak phase-2 staging is
    /// then at most `min(threads, partitions) × budget`.
    pub tuple_table_memory: Option<usize>,
    /// Worker budget for the partition scans and the bucket merge.
    pub threads: usize,
}

/// The fresh score of updated member `d` in seed-ok user `u`'s row:
/// `(u, d, sim)` (see [`PruneState::fresh`]).
pub(crate) type FreshScore = (u32, u32, f32);

/// What the previous iteration leaves for this one's suppression,
/// maintained by the engine.
#[derive(Debug)]
pub(crate) struct PruneState {
    /// Users whose profile changed in the last phase 5 — every score
    /// involving them is stale.
    pub profile_dirty: Vec<bool>,
    /// Edges of `G(t)` absent from `G(t-1)` — a candidate generated
    /// only through such an edge was never evaluated before.
    pub additions: EdgeAdditions,
    /// Per user: the prior top-K verdict replays. The user's own
    /// profile is clean, its `G(t)` row is fully scored, and every
    /// updated member `d` of the row scores freshly at least as high
    /// as the row's old k-th entry (`!old_kth.beats(&fresh)`). Every
    /// candidate that lost last iteration lost to that k-th entry, so
    /// it still loses to all `K` seeds.
    pub seed_ok: Vec<bool>,
    /// `(u, d, sim)`, sorted by `(u, d)`: the fresh score of every
    /// updated member `d` of a seed-ok user `u`'s row — what phase 4
    /// seeds in place of the stale `G(t)` score. O(updated users ×
    /// K), computed by phase 5's stale-seed sweep.
    pub fresh: Vec<FreshScore>,
}

/// The inputs of the offer-time redundancy rule (see
/// [`generate_tuples`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Suppression<'a> {
    /// The previous iteration's bookkeeping: dirty bits, edge
    /// additions and the per-user seed verdicts
    /// ([`PruneState::seed_ok`]).
    pub state: &'a PruneState,
    /// Phase 4 offers every score in both directions.
    pub include_reverse: bool,
}

impl Suppression<'_> {
    /// Whether a redundant path may start with the edge `s → v`: the
    /// edge is old and `s`'s verdict replays.
    fn starts_redundant(&self, s: u32, v: u32) -> bool {
        self.state.seed_ok[s as usize] && !self.state.additions.is_added(s, v)
    }

    /// Whether a redundant path may end with the edge `v → d`: the edge
    /// is old, `d`'s profile is clean, and — when the reverse offer
    /// lands in `d`'s accumulator too — `d`'s verdict replays.
    fn ends_redundant(&self, v: u32, d: u32) -> bool {
        !self.state.profile_dirty[d as usize]
            && (!self.include_reverse || self.state.seed_ok[d as usize])
            && !self.state.additions.is_added(v, d)
    }
}

/// Runs phase 2 over the edge streams written by
/// [`crate::phase1::write_partition_edges`], scanning partitions
/// across up to `options.threads` workers.
///
/// With `suppression`, a directed candidate `s → d` is **not offered**
/// when its generating path is all old (both legs of a two-hop path,
/// the edge itself for a direct one), `seed_ok[s]`, `d`'s profile is
/// clean, and — with reverse offers — `seed_ok[d]`. Such a pair lost
/// last iteration to the k-th entry of the row phase 4 seeds, and
/// every seed (fresh scores for updated members included) is at least
/// as good as that entry, so scoring it again cannot change any
/// accumulator: graphs stay identical, only the work shrinks. A pair
/// that some other path still offers is scored as usual. `None`
/// offers every candidate, which is right whenever the previous
/// iteration's bookkeeping is unavailable (first iteration, resume,
/// pruning disabled).
///
/// # Errors
///
/// Returns [`EngineError::Store`] on I/O failure or corrupt edge
/// streams.
pub(crate) fn generate_tuples(
    partitioning: &Partitioning,
    backend: &dyn StorageBackend,
    options: &Phase2Options,
    suppression: Option<&Suppression<'_>>,
) -> Result<Phase2Output, EngineError> {
    backend.clear_tuples()?;
    let scans = par::run_indexed(partitioning.num_partitions(), options.threads, |idx| {
        let p = idx as u32;
        let mut table =
            TupleTable::with_namespace(backend, partitioning, options.spill_threshold, p)
                .with_memory_budget(options.tuple_table_memory);
        let suppressed = scan_partition(p, backend, &mut table, suppression)?;
        Ok((table.into_parts(), suppressed))
    })?;
    let suppressed = scans.iter().map(|&(_, n)| n).sum();
    let parts = scans.into_iter().map(|(parts, _)| parts).collect();
    let (pi, stats) = merge_parts(backend, partitioning, parts, options.threads)?;
    Ok(Phase2Output {
        pi,
        stats,
        suppressed,
    })
}

/// Scans one partition's edge streams, offering every direct and
/// two-hop candidate to `table` that `suppression` does not rule
/// redundant, and returns how many directed offers it suppressed.
fn scan_partition(
    p: u32,
    backend: &dyn StorageBackend,
    table: &mut TupleTable<'_>,
    suppression: Option<&Suppression<'_>>,
) -> Result<u64, EngineError> {
    // Rows are (bridge, other), sorted by bridge then other.
    let in_rows = read_pairs(backend, StreamId::InEdges(p))?;
    let out_rows = read_pairs(backend, StreamId::OutEdges(p))?;

    // Per out-edge: may a redundant path end with it? Shared by the
    // direct candidate and every two-hop candidate through the edge,
    // so it is worked out once per edge.
    let out_leg_redundant: Vec<bool> = match suppression {
        Some(sup) => out_rows
            .iter()
            .map(|&(v, d)| sup.ends_redundant(v, d))
            .collect(),
        None => vec![false; out_rows.len()],
    };
    let mut suppressed = 0u64;

    // Direct candidates: each out-edge (v, d) of G(t).
    for (&(v, d), &redundant) in out_rows.iter().zip(&out_leg_redundant) {
        if redundant && suppression.is_some_and(|sup| sup.state.seed_ok[v as usize]) {
            suppressed += 1;
        } else {
            table.offer(v, d)?;
        }
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
                let out_legs = out_rows[j..j_end].iter().zip(&out_leg_redundant[j..j_end]);
                for &(_, s) in &in_rows[i..i_end] {
                    // The in-leg s → bridge is shared by every tuple
                    // of this group; check it once.
                    let in_redundant =
                        suppression.is_some_and(|sup| sup.starts_redundant(s, bridge));
                    for (&(_, d), &out_redundant) in out_legs.clone() {
                        if in_redundant && out_redundant && s != d {
                            suppressed += 1;
                        } else {
                            table.offer(s, d)?;
                        }
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    Ok(suppressed)
}

/// Reference tuple set for a KNN graph: all direct edges plus all
/// two-hop pairs `(s, d)` with `s → v → d`, excluding self-pairs.
/// Used by tests and the reference engine to validate phase 2's
/// unsuppressed output.
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
    use crate::phase1::{reshard_profiles, write_partition_edges};
    use crate::phase4::{run_phase4, Phase4Options, Phase4Output, CHUNK};
    use crate::traversal::Heuristic;
    use knn_graph::{KnnGraph, Neighbor, UserId};
    use knn_sim::{Measure, ProfileStore};
    use knn_store::MemBackend;
    use std::collections::HashSet;

    impl Phase2Options {
        /// Options with the given spill threshold and worker budget,
        /// no byte budget.
        pub(crate) fn new(spill_threshold: usize, threads: usize) -> Self {
            Phase2Options {
                spill_threshold,
                tuple_table_memory: None,
                threads,
            }
        }
    }

    fn setup(n: usize, m: usize) -> (MemBackend, Partitioning) {
        let assignment: Vec<u32> = (0..n).map(|u| (u % m) as u32).collect();
        let p = Partitioning::from_assignment(assignment, m).unwrap();
        (MemBackend::new(), p)
    }

    fn run_phase2(g: &KnnGraph, b: &dyn StorageBackend, p: &Partitioning) -> Phase2Output {
        write_partition_edges(g, p, b, 1).unwrap();
        generate_tuples(p, b, &Phase2Options::new(1 << 16, 1), None).unwrap()
    }

    /// Expands the canonical buckets back to the directed tuples (what
    /// the reference engine scores) via the direction bits the bucket
    /// rows carry.
    fn directed_tuples(out: &Phase2Output, b: &dyn StorageBackend) -> Vec<(u32, u32)> {
        use crate::tuple_table::meta_bits;
        let mut tuples = Vec::new();
        for ((i, j), _) in out.pi.iter_buckets() {
            for (u, v, bits) in
                knn_store::backend::read_tuples(b, StreamId::TupleBucket(i, j)).unwrap()
            {
                if bits & meta_bits::FWD != 0 {
                    tuples.push((u, v));
                }
                if bits & meta_bits::BWD != 0 {
                    tuples.push((v, u));
                }
            }
        }
        tuples
    }

    fn all_tuples(out: &Phase2Output, b: &dyn StorageBackend) -> HashSet<(u32, u32)> {
        directed_tuples(out, b).into_iter().collect()
    }

    /// The tuple-bucket streams of `b`, bytes included, in stream order.
    fn bucket_streams(b: &dyn StorageBackend) -> Vec<(StreamId, Vec<u8>)> {
        let mut streams: Vec<(StreamId, Vec<u8>)> = b
            .list()
            .unwrap()
            .into_iter()
            .filter(|s| matches!(s, StreamId::TupleBucket(..)))
            .map(|s| (s, b.read(s).unwrap()))
            .collect();
        streams.sort_by_key(|&(s, _)| s);
        streams
    }

    /// A deterministic pseudo-random flag per user.
    fn flags(n: usize, seed: u64, one_in: u64) -> Vec<bool> {
        (0..n as u64)
            .map(|u| u.wrapping_add(seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61 < 8 / one_in)
            .collect()
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
        let expected: HashSet<(u32, u32)> = [(0, 1), (1, 2), (0, 2)].into_iter().collect();
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
            let directed = directed_tuples(&out, &b);
            let got: HashSet<(u32, u32)> = directed.iter().copied().collect();
            assert_eq!(got, reference_tuple_set(&g), "seed {seed}");
            assert_eq!(directed.len(), got.len());
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

    /// The offer-time rule against a brute-force oracle over random
    /// `G(t-1)` / `G(t)`, random `seed_ok` and `profile_dirty`, with
    /// reverse offers off and on: the direction bits read back from
    /// the bucket streams are exactly the directed candidates with a
    /// path the rule keeps, and the suppressed count is exactly the
    /// number of generating paths it drops.
    #[test]
    fn offer_time_rule_matches_brute_force_oracle() {
        for seed in [3u64, 8] {
            for include_reverse in [false, true] {
                let n = 40;
                let old_g = KnnGraph::random_init(n, 4, seed);
                // A different seed gives a realistic mix of shared and
                // new edges.
                let new_g = KnnGraph::random_init(n, 4, seed + 100);
                let state = PruneState {
                    profile_dirty: flags(n, seed, 8),
                    additions: new_g.additions_since(&old_g),
                    seed_ok: flags(n, seed + 1, 8).iter().map(|&f| !f).collect(),
                    fresh: Vec::new(),
                };
                let seed_ok = &state.seed_ok;
                let sup = Suppression {
                    state: &state,
                    include_reverse,
                };
                let (b, p) = setup(n, 4);
                write_partition_edges(&new_g, &p, &b, 1).unwrap();
                let out =
                    generate_tuples(&p, &b, &Phase2Options::new(1 << 16, 1), Some(&sup)).unwrap();

                // Brute force: every generating path of G(t), and
                // whether the rule drops it.
                let added = |s: u32, d: u32| state.additions.is_added(s, d);
                let endpoints_ok = |s: u32, d: u32| {
                    seed_ok[s as usize]
                        && !state.profile_dirty[d as usize]
                        && (!include_reverse || seed_ok[d as usize])
                };
                let mut paths: Vec<(u32, u32, bool)> = Vec::new(); // (s, d, all old)
                for (s, nb) in new_g.iter_edges() {
                    let (s, v) = (s.raw(), nb.id.raw());
                    paths.push((s, v, !added(s, v)));
                    for d_nb in new_g.neighbors(nb.id) {
                        let d = d_nb.id.raw();
                        if d != s {
                            paths.push((s, d, !added(s, v) && !added(v, d)));
                        }
                    }
                }
                let dropped = |&(s, d, old): &(u32, u32, bool)| old && endpoints_ok(s, d);
                let kept: HashSet<(u32, u32)> = paths
                    .iter()
                    .filter(|path| !dropped(path))
                    .map(|&(s, d, _)| (s, d))
                    .collect();
                let suppressed = paths.iter().filter(|path| dropped(path)).count() as u64;

                let label = format!("seed {seed}, include_reverse {include_reverse}");
                let directed = directed_tuples(&out, &b);
                assert_eq!(directed.len(), kept.len(), "{label}");
                assert_eq!(
                    directed.into_iter().collect::<HashSet<_>>(),
                    kept,
                    "{label}"
                );
                assert_eq!(out.suppressed, suppressed, "{label}");
                assert_eq!(
                    out.stats.offered + out.suppressed,
                    paths.len() as u64,
                    "{label}: every path is either offered or suppressed"
                );
                assert!(suppressed > 0, "{label}: some offers must be suppressed");
                assert!(!kept.is_empty(), "{label}: some offers must survive");
            }
        }
    }

    /// With every user dirty nothing is redundant: the oracle
    /// suppresses no offer, and buckets (bytes included), PI graph and
    /// stats are those of the oracle-free run.
    #[test]
    fn oracle_does_not_change_buckets_or_stats() {
        let n = 30;
        let old_g = KnnGraph::random_init(n, 3, 4);
        let g = KnnGraph::random_init(n, 3, 17);
        let state = PruneState {
            profile_dirty: vec![true; n],
            additions: g.additions_since(&old_g),
            seed_ok: vec![true; n],
            fresh: Vec::new(),
        };
        let sup = Suppression {
            state: &state,
            include_reverse: false,
        };
        let mut outputs = Vec::new();
        for oracle in [None, Some(&sup)] {
            let (b, p) = setup(n, 3);
            write_partition_edges(&g, &p, &b, 1).unwrap();
            let out = generate_tuples(&p, &b, &Phase2Options::new(1 << 16, 1), oracle).unwrap();
            let mut streams: Vec<(StreamId, Vec<u8>)> = b
                .list()
                .unwrap()
                .into_iter()
                .map(|s| (s, b.read(s).unwrap()))
                .collect();
            streams.sort_by_key(|&(s, _)| s);
            outputs.push((out, streams));
        }
        assert_eq!(outputs[1].0.suppressed, 0);
        assert_eq!(outputs[0], outputs[1]);
    }

    /// The spill threshold is output-invariant for real scans, oracle
    /// included: identical buckets, PI graph, dedup stats and
    /// suppressed count whether every offer spills or none does (spill
    /// counts legitimately differ).
    #[test]
    fn spill_threshold_is_output_invariant_under_the_oracle() {
        let n = 50;
        let old_g = KnnGraph::random_init(n, 4, 5);
        let g = KnnGraph::random_init(n, 4, 55);
        let state = PruneState {
            profile_dirty: flags(n, 5, 4),
            additions: g.additions_since(&old_g),
            seed_ok: vec![true; n],
            fresh: Vec::new(),
        };
        let sup = Suppression {
            state: &state,
            include_reverse: false,
        };
        let mut outputs = Vec::new();
        for spill_threshold in [2usize, 1 << 16] {
            let (b, p) = setup(n, 4);
            write_partition_edges(&g, &p, &b, 1).unwrap();
            let opts = Phase2Options::new(spill_threshold, 2);
            let out = generate_tuples(&p, &b, &opts, Some(&sup)).unwrap();
            outputs.push((
                out.pi,
                (out.stats.offered, out.stats.unique, out.stats.duplicates),
                out.suppressed,
                bucket_streams(&b),
            ));
        }
        assert!(outputs[0].2 > 0, "the oracle must suppress something");
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
                write_partition_edges(&g, &p, &b, threads).unwrap();
                let out =
                    generate_tuples(&p, &b, &Phase2Options::new(spill_threshold, threads), None)
                        .unwrap();
                let streams = bucket_streams(&b);
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

    fn line_profiles(n: usize) -> ProfileStore {
        // User u rates items u and u+1: consecutive users overlap.
        let mut store = ProfileStore::new(n);
        for u in 0..n as u32 {
            let p = store.get_mut(UserId::new(u));
            p.set(knn_sim::ItemId::new(u), 1.0);
            p.set(knn_sim::ItemId::new(u + 1), 1.0);
        }
        store
    }

    /// One iteration (phases 1, 2 and 4) from `current` on a fresh
    /// world with clean profiles. With `previous`, phase 4 seeds the
    /// accumulators and phase 2 suppresses against the `previous` →
    /// `current` additions, as the engine does.
    fn iterate(
        current: &KnnGraph,
        previous: Option<&KnnGraph>,
        profiles: &ProfileStore,
        k: usize,
        m: usize,
    ) -> (Phase2Output, Phase4Output) {
        let n = current.num_vertices();
        let (b, p) = setup(n, m);
        let state = previous.map(|previous| PruneState {
            profile_dirty: vec![false; n],
            additions: current.additions_since(previous),
            seed_ok: (0..n as u32)
                .map(|u| current.fully_scored(UserId::new(u)))
                .collect(),
            fresh: Vec::new(),
        });
        let sup = state.as_ref().map(|state| Suppression {
            state,
            include_reverse: false,
        });
        reshard_profiles(&b, None, &p, Some(profiles), 1).unwrap();
        write_partition_edges(current, &p, &b, 1).unwrap();
        let p2 = generate_tuples(&p, &b, &Phase2Options::new(1 << 16, 1), sup.as_ref()).unwrap();
        let options = Phase4Options {
            k,
            measure: Measure::Cosine,
            threads: 1,
            cache_slots: 2,
            include_reverse: false,
            bound_filter: false,
            chunk: CHUNK,
        };
        let schedule = Heuristic::Sequential.schedule(&p2.pi);
        let p4 = run_phase4(&schedule, &p2.pi, &p, &b, current, state.as_ref(), &options).unwrap();
        (p2, p4)
    }

    /// Offer-time suppression is exact: iteration 2 with the honest
    /// G(0) → G(1) addition oracle suppresses a real share of the
    /// offers and still lands on the identical G(2).
    #[test]
    fn suppression_is_exact_on_iteration_two() {
        let (n, k, m) = (40, 4, 4);
        let g0 = KnnGraph::random_init(n, k, 21);
        let profiles = line_profiles(n);
        let g1 = iterate(&g0, None, &profiles, k, m).1.graph;
        let reference = iterate(&g1, None, &profiles, k, m).1.graph;
        let (p2, p4) = iterate(&g1, Some(&g0), &profiles, k, m);
        assert_eq!(p4.graph, reference, "suppression changed G(2)");
        assert!(p2.suppressed > 0, "no offer was suppressed");
        assert!(p4.sims_computed > 0, "iteration 2 still has fresh pairs");
    }

    /// At a fixed point (G(t+1) == G(t), static profiles) every offer
    /// is suppressed: no tuple, no kernel evaluation, no partition
    /// load, identical graph.
    #[test]
    fn suppression_skips_everything_at_a_fixed_point() {
        let (n, k, m) = (40, 4, 4);
        let profiles = line_profiles(n);
        let mut prev = KnnGraph::random_init(n, k, 21);
        let mut current = iterate(&prev, None, &profiles, k, m).1.graph;
        let mut rounds = 0;
        while current != prev {
            prev = current;
            current = iterate(&prev, None, &profiles, k, m).1.graph;
            rounds += 1;
            assert!(rounds < 20, "line-profile world failed to converge");
        }
        // current == prev: the oracle between them is empty.
        let (p2, p4) = iterate(&current, Some(&prev), &profiles, k, m);
        assert_eq!(p4.graph, current, "fixed point not reproduced");
        assert_eq!(p2.stats.offered, 0, "a fully static world offers nothing");
        assert!(p2.suppressed > 0);
        assert_eq!(
            p4.sims_computed, 0,
            "a fully static world needs zero kernel evaluations"
        );
        assert_eq!(p4.cache.total_ops(), 0);
    }
}
