//! Phase 2: the live-bucket pass, and the candidate generator phase 4
//! calls pair by pair.
//!
//! A candidate of user `s` is a neighbour `d` of `G(t)` (the direct
//! edge `s → d`) or a neighbour's neighbour (the two-hop path
//! `s → v → d`): the "neighbors and neighbors' neighbors" set the
//! paper's KNN step scores. The paper materialises these tuples on
//! disk because it does not assume `G(t)` fits in RAM. Here `G(t)` is
//! resident (`n·K` ids), so nothing is stored: `Legs` indexes
//! `G(t)`'s edges once per iteration, the live pass
//! (`live_buckets`) finds which partition pairs hold at least one
//! candidate, and phase 4 generates each pair's buckets
//! (`pair_candidates`) when it reaches them.
//!
//! A candidate tuple is stored **canonically**: the unordered pair
//! `(min, max)`, with direction bits recording
//! which directed tuples exist, in bucket `(part(min), part(max))`.
//! Bucket rows are sorted by `(min, max)`, each pair once.
//!
//! This is also where redundancy is decided. With the previous
//! iteration's bookkeeping (`Suppression`), a directed candidate
//! whose verdict is already known is never offered: NN-Descent's "join
//! only what is new". The decision is per generating path, and the
//! suppressed offers are reported as `IterationReport::sims_skipped`.
//!
//! The live set is **exact**: a bucket pair is live if and only if one
//! of its buckets generates a row. Phase 3 schedules from it, so the
//! schedule, the partition operations and phase 4's bucket order are
//! those of the rows themselves.

use knn_graph::{EdgeAdditions, KnnGraph, UserId};

use crate::partition::Partitioning;
use crate::phase4::{meta_bits, TupleRow};
use crate::PiGraph;

/// The largest partition count the engine accepts, enforced by
/// [`crate::EngineConfig`]'s builder: the live pass keeps an `m × m`
/// bit matrix, 32 MiB at this bound.
pub const MAX_PARTITIONS: usize = 1 << 14;

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
/// [`pair_candidates`]).
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

/// Leg flag: a redundant path may start with this edge
/// ([`Suppression::starts_redundant`]).
const STARTS: u8 = 1;
/// Leg flag: a redundant path may end with this edge
/// ([`Suppression::ends_redundant`]).
const ENDS: u8 = 2;

/// One edge `v → target` of `G(t)`, packed into 8 bytes so that a
/// row's legs share a cache line.
#[derive(Debug, Clone, Copy)]
struct Leg {
    target: u32,
    /// The target's partition (below [`MAX_PARTITIONS`]).
    part: u16,
    /// [`STARTS`] / [`ENDS`] (none without suppression).
    flags: u8,
}

/// The edges of `G(t)`, indexed for candidate generation: each user's
/// out-legs sorted by the target's partition, with the target's
/// partition and the leg's suppression flags beside it. Built once per
/// iteration in `O(n·K)` and dropped after phase 4.
#[derive(Debug)]
pub(crate) struct Legs {
    /// User `u`'s legs are `start[u]..start[u + 1]`.
    start: Vec<usize>,
    legs: Vec<Leg>,
}

impl Legs {
    /// Indexes `graph`'s edges under `partitioning`, flagging each leg
    /// by `suppression`'s rule.
    pub(crate) fn new(
        graph: &KnnGraph,
        partitioning: &Partitioning,
        suppression: Option<&Suppression<'_>>,
    ) -> Self {
        let n = graph.num_vertices();
        let assignment = partitioning.assignment();
        let edges = graph.num_edges();
        let mut legs = Legs {
            start: Vec::with_capacity(n + 1),
            legs: Vec::with_capacity(edges),
        };
        let mut row: Vec<(u32, u32)> = Vec::new();
        legs.start.push(0);
        for v in 0..n as u32 {
            row.clear();
            row.extend(
                graph
                    .neighbors(UserId::new(v))
                    .iter()
                    .map(|nb| (assignment[nb.id.index()], nb.id.raw())),
            );
            row.sort_unstable();
            for &(p, d) in &row {
                let flags = suppression.map_or(0, |sup| {
                    (u8::from(sup.starts_redundant(v, d)) * STARTS)
                        | (u8::from(sup.ends_redundant(v, d)) * ENDS)
                });
                legs.legs.push(Leg {
                    target: d,
                    part: u16::try_from(p).expect("partition ids stay below MAX_PARTITIONS"),
                    flags,
                });
            }
            legs.start.push(legs.legs.len());
        }
        legs
    }

    /// User `v`'s legs.
    fn row(&self, v: u32) -> std::ops::Range<usize> {
        self.start[v as usize]..self.start[v as usize + 1]
    }

    /// User `v`'s legs into partition `p`.
    fn row_into(&self, v: u32, p: u32) -> std::ops::Range<usize> {
        let row = self.row(v);
        let legs = &self.legs[row.clone()];
        let lo = legs.partition_point(|leg| u32::from(leg.part) < p);
        let hi = lo + legs[lo..].partition_point(|leg| u32::from(leg.part) == p);
        row.start + lo..row.start + hi
    }

    /// Visits every directed path from a user of `sources` to a user of
    /// partition `to`: direct edges `s → d` and two-hop paths
    /// `s → v → d` with `s != d`, each with whether the offer-time
    /// rule suppresses it. Costs the sources' legs plus the paths.
    fn paths_into(&self, sources: &[UserId], to: u32, mut visit: impl FnMut(u32, u32, bool)) {
        for s in sources.iter().map(|u| u.raw()) {
            for leg in self.row(s) {
                let v = self.legs[leg].target;
                if u32::from(self.legs[leg].part) == to {
                    visit(s, v, self.legs[leg].flags == STARTS | ENDS);
                }
                let starts = self.legs[leg].flags & STARTS != 0;
                for out in self.row_into(v, to) {
                    let d = self.legs[out].target;
                    if d != s {
                        visit(s, d, starts && self.legs[out].flags & ENDS != 0);
                    }
                }
            }
        }
    }
}

/// What the live pass finds: the bucket pairs phase 3 schedules, and
/// how many generating paths `G(t)` has.
#[derive(Debug)]
pub(crate) struct Live {
    /// One weight-1 entry per live pair: `(a, b)` with `a < b` when
    /// bucket `(a, b)` or `(b, a)` has a row, `(a, a)` when the
    /// diagonal bucket does. Row counts are known only once phase 4
    /// has generated the buckets.
    pub pi: PiGraph,
    /// Directed generating paths with distinct endpoints, suppressed
    /// or not: the offers phase 4 makes plus the suppressed ones.
    pub paths: u64,
}

/// Finds the live bucket pairs of `legs` in `O(n·K·⌈m/64⌉)` plus one
/// `O(log K)` lookup per leg, without generating a row.
///
/// Per pivot `v`, a path `s → v → d` is offered unless both legs are
/// flagged redundant. So a pair of distinct partitions `{a, b}` is live
/// through `v` when some in-leg from `a` is not redundant and `v` has
/// any out-leg into `b`, or some in-leg from `a` exists and `v` has a
/// non-redundant out-leg into `b` (either way round): one mask OR per
/// in-leg. A diagonal bucket may also see `s → v → s`, which is no
/// candidate, so its liveness is checked path by path until one path
/// holds. Direct edges mark their own bucket unless suppressed.
pub(crate) fn live_buckets(legs: &Legs, partitioning: &Partitioning) -> Live {
    let m = partitioning.num_partitions();
    let n = partitioning.num_users();
    let assignment = partitioning.assignment();
    let words = m.div_ceil(64);
    // Row a, bit b: a path runs between partitions a and b (a != b).
    let mut cross = vec![0u64; m * words];
    let mut diagonal = vec![false; m];
    let mut paths = 0u64;

    // Direct candidates, and G(t)'s transpose: each pivot's in-legs
    // with their STARTS flag.
    let mut in_start = vec![0usize; n + 1];
    for leg in &legs.legs {
        let d = leg.target;
        in_start[d as usize + 1] += 1;
    }
    for v in 0..n {
        in_start[v + 1] += in_start[v];
    }
    let mut fill = in_start.clone();
    let mut in_legs = vec![(0u32, false); legs.legs.len()];
    for s in 0..n as u32 {
        let a = assignment[s as usize] as usize;
        for leg in legs.row(s) {
            let (d, b) = (legs.legs[leg].target, usize::from(legs.legs[leg].part));
            paths += 1;
            if legs.legs[leg].flags != STARTS | ENDS {
                if a == b {
                    diagonal[a] = true;
                } else {
                    cross[a * words + b / 64] |= 1 << (b % 64);
                }
            }
            let slot = &mut fill[d as usize];
            in_legs[*slot] = (s, legs.legs[leg].flags & STARTS != 0);
            *slot += 1;
        }
    }
    drop(fill);

    // Two-hop candidates, pivot by pivot.
    let (mut all, mut fresh) = (vec![0u64; words], vec![0u64; words]);
    for v in 0..n as u32 {
        let out = legs.row(v);
        let ins = &in_legs[in_start[v as usize]..in_start[v as usize + 1]];
        if out.is_empty() || ins.is_empty() {
            continue;
        }
        for leg in out.clone() {
            let b = usize::from(legs.legs[leg].part);
            all[b / 64] |= 1 << (b % 64);
            if legs.legs[leg].flags & ENDS == 0 {
                fresh[b / 64] |= 1 << (b % 64);
            }
        }
        for &(s, starts) in ins {
            let a = assignment[s as usize];
            let mask = if starts { &fresh } else { &all };
            for (row, &word) in cross[a as usize * words..][..words].iter_mut().zip(mask) {
                *row |= word;
            }
            let into_a = legs.row_into(v, a);
            let back = legs.legs[into_a.clone()].iter().any(|leg| leg.target == s);
            paths += (out.len() - usize::from(back)) as u64;
            if !diagonal[a as usize] {
                diagonal[a as usize] = into_a.into_iter().any(|d| {
                    legs.legs[d].target != s && !(starts && legs.legs[d].flags & ENDS != 0)
                });
            }
        }
        for leg in out {
            let b = usize::from(legs.legs[leg].part);
            all[b / 64] = 0;
            fresh[b / 64] = 0;
        }
    }

    let mut pi = PiGraph::new(m);
    let has = |a: usize, b: usize| cross[a * words + b / 64] >> (b % 64) & 1 != 0;
    for (a, &live) in diagonal.iter().enumerate() {
        if live {
            pi.add_bucket(a as u32, a as u32, 1);
        }
        for b in a + 1..m {
            if has(a, b) || has(b, a) {
                pi.add_bucket(a as u32, b as u32, 1);
            }
        }
    }
    Live { pi, paths }
}

/// One generated bucket: its rows and its share of the funnel counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct BucketCandidates {
    /// Canonical rows `(u, v, bits)`, `u < v`, sorted by `(u, v)`.
    pub rows: Vec<TupleRow>,
    /// Directed offers made (duplicates included).
    pub offered: u64,
    /// Directed offers the offer-time rule suppressed.
    pub suppressed: u64,
}

/// The offers of one bucket as they are generated: canonical keys
/// `u << 32 | v` of the forward and the backward ones.
#[derive(Debug, Default)]
struct Offers {
    fwd: Vec<u64>,
    bwd: Vec<u64>,
    suppressed: u64,
}

impl Offers {
    /// Records the directed offer `s → d`, or its suppression.
    fn offer(&mut self, s: u32, d: u32, redundant: bool) {
        let key = |u: u32, v: u32| u64::from(u) << 32 | u64::from(v);
        if redundant {
            self.suppressed += 1;
        } else if s < d {
            self.fwd.push(key(s, d));
        } else {
            self.bwd.push(key(d, s));
        }
    }

    /// Sorts and deduplicates the offers into canonical rows, OR-ing
    /// the bits of a pair offered both ways.
    fn finish(mut self) -> BucketCandidates {
        let offered = (self.fwd.len() + self.bwd.len()) as u64;
        for keys in [&mut self.fwd, &mut self.bwd] {
            keys.sort_unstable();
            keys.dedup();
        }
        let (fwd, bwd) = (&self.fwd, &self.bwd);
        let mut rows = Vec::with_capacity(fwd.len().max(bwd.len()));
        let (mut i, mut j) = (0, 0);
        while i < fwd.len() || j < bwd.len() {
            // u64::MAX is no key: a canonical pair has u < v.
            let f = fwd.get(i).copied().unwrap_or(u64::MAX);
            let g = bwd.get(j).copied().unwrap_or(u64::MAX);
            let (key, bits) = match f.cmp(&g) {
                std::cmp::Ordering::Less => (f, meta_bits::FWD),
                std::cmp::Ordering::Greater => (g, meta_bits::BWD),
                std::cmp::Ordering::Equal => (f, meta_bits::FWD | meta_bits::BWD),
            };
            i += usize::from(f <= g);
            j += usize::from(g <= f);
            rows.push(((key >> 32) as u32, key as u32, bits));
        }
        BucketCandidates {
            rows,
            offered,
            suppressed: self.suppressed,
        }
    }
}

/// Generates the buckets of the pair `{a, b}`: `[(a, b), (b, a)]`, or
/// `[(a, a)]` alone. Bucket `(a, b)` holds every canonical pair
/// `(u, v)`, `u < v`, `u` in partition `a`, `v` in partition `b`, that
/// some unsuppressed path offers, with [`meta_bits::FWD`] when `u → v`
/// is offered and [`meta_bits::BWD`] when `v → u` is. Costs the legs of
/// the two partitions plus the pair's paths, and one sort of each
/// bucket's offers: no pass over all `n` users.
///
/// With `Suppression`, a directed candidate `s → d` is **not offered**
/// when its generating path is all old (both legs of a two-hop path,
/// the edge itself for a direct one), `seed_ok[s]`, `d`'s profile is
/// clean, and — with reverse offers — `seed_ok[d]`. Such a pair lost
/// last iteration to the k-th entry of the row phase 4 seeds, and
/// every seed (fresh scores for updated members included) is at least
/// as good as that entry, so scoring it again cannot change any
/// accumulator: graphs stay identical, only the work shrinks. A pair
/// that some other path still offers is scored as usual.
pub(crate) fn pair_candidates(
    legs: &Legs,
    partitioning: &Partitioning,
    (a, b): (u32, u32),
) -> Vec<BucketCandidates> {
    if a == b {
        let mut offers = Offers::default();
        legs.paths_into(partitioning.users_of(a), a, |s, d, r| offers.offer(s, d, r));
        return vec![offers.finish()];
    }
    // A path between a user of `a` and a user of `b` belongs to (a, b)
    // when the user of `a` has the smaller id, to (b, a) otherwise.
    let (mut ab, mut ba) = (Offers::default(), Offers::default());
    legs.paths_into(partitioning.users_of(a), b, |s, d, r| {
        if s < d { &mut ab } else { &mut ba }.offer(s, d, r)
    });
    legs.paths_into(partitioning.users_of(b), a, |s, d, r| {
        if d < s { &mut ab } else { &mut ba }.offer(s, d, r)
    });
    vec![ab.finish(), ba.finish()]
}

/// Generates bucket `(a, b)` alone (see [`pair_candidates`]).
#[cfg(test)]
pub(crate) fn bucket_candidates(
    legs: &Legs,
    partitioning: &Partitioning,
    key: (u32, u32),
) -> BucketCandidates {
    pair_candidates(legs, partitioning, key).swap_remove(0)
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
    use crate::phase1::reshard_profiles;
    use crate::phase4::{run_phase4, Phase4Options, Phase4Output, CHUNK};
    use crate::traversal::Heuristic;
    use knn_graph::{KnnGraph, Neighbor, UserId};
    use knn_sim::{Measure, ProfileStore};
    use knn_store::MemBackend;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashSet};

    fn partitioning(n: usize, m: usize) -> Partitioning {
        let assignment: Vec<u32> = (0..n).map(|u| (u % m) as u32).collect();
        Partitioning::from_assignment(assignment, m).unwrap()
    }

    /// Every bucket `(a, b)` of the partitioning, generated, keyed by
    /// bucket, with the live pass beside it.
    fn generate(
        g: &KnnGraph,
        p: &Partitioning,
        sup: Option<&Suppression<'_>>,
    ) -> (Live, BTreeMap<(u32, u32), BucketCandidates>) {
        let legs = Legs::new(g, p, sup);
        let m = p.num_partitions() as u32;
        let buckets = (0..m)
            .flat_map(|a| (0..m).map(move |b| (a, b)))
            .map(|key| (key, bucket_candidates(&legs, p, key)))
            .collect();
        (live_buckets(&legs, p), buckets)
    }

    /// Sums the buckets' counts: `(offered, unique, suppressed)`.
    fn totals(buckets: &BTreeMap<(u32, u32), BucketCandidates>) -> (u64, u64, u64) {
        buckets.values().fold((0, 0, 0), |(o, u, s), c| {
            (o + c.offered, u + c.rows.len() as u64, s + c.suppressed)
        })
    }

    /// Expands the canonical rows back to the directed tuples (what the
    /// reference engine scores) via their direction bits.
    fn directed_tuples(buckets: &BTreeMap<(u32, u32), BucketCandidates>) -> Vec<(u32, u32)> {
        let mut tuples = Vec::new();
        for c in buckets.values() {
            for &(u, v, bits) in &c.rows {
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

    fn all_tuples(buckets: &BTreeMap<(u32, u32), BucketCandidates>) -> HashSet<(u32, u32)> {
        directed_tuples(buckets).into_iter().collect()
    }

    /// A deterministic pseudo-random flag per user.
    fn flags(n: usize, seed: u64, one_in: u64) -> Vec<bool> {
        (0..n as u64)
            .map(|u| u.wrapping_add(seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61 < 8 / one_in)
            .collect()
    }

    /// A graph whose every edge is mutual: `u ↔ u ± 1 … u ± k/2` on a
    /// ring, so every pivot sees `s → v → s` paths.
    fn mutual_ring(n: usize, k: usize) -> KnnGraph {
        let mut g = KnnGraph::new(n, k);
        for u in 0..n {
            for step in 1..=k / 2 {
                for d in [(u + step) % n, (u + n - step) % n] {
                    g.insert(
                        UserId::new(u as u32),
                        Neighbor::new(UserId::new(d as u32), 0.5),
                    );
                }
            }
        }
        g
    }

    #[test]
    fn path_graph_generates_direct_and_two_hop() {
        // 0→1→2: direct (0,1),(1,2); two-hop (0,2).
        let p = partitioning(3, 2);
        let mut g = KnnGraph::new(3, 2);
        g.insert(UserId::new(0), Neighbor::new(UserId::new(1), 0.5));
        g.insert(UserId::new(1), Neighbor::new(UserId::new(2), 0.5));
        let (_, buckets) = generate(&g, &p, None);
        let expected: HashSet<(u32, u32)> = [(0, 1), (1, 2), (0, 2)].into_iter().collect();
        assert_eq!(all_tuples(&buckets), expected);
        assert_eq!(totals(&buckets).1, 3);
    }

    #[test]
    fn cycle_deduplicates_and_skips_self() {
        // Triangle 0→1→2→0: two-hop pairs include (0,2),(1,0),(2,1);
        // (0,0) etc. are skipped as self-tuples.
        let p = partitioning(3, 3);
        let mut g = KnnGraph::new(3, 1);
        g.insert(UserId::new(0), Neighbor::new(UserId::new(1), 0.5));
        g.insert(UserId::new(1), Neighbor::new(UserId::new(2), 0.5));
        g.insert(UserId::new(2), Neighbor::new(UserId::new(0), 0.5));
        let (_, buckets) = generate(&g, &p, None);
        let got = all_tuples(&buckets);
        assert_eq!(got, reference_tuple_set(&g));
        assert!(got.iter().all(|&(s, d)| s != d));
    }

    #[test]
    fn diamond_counts_duplicate_once() {
        // a→b→d and a→c→d: tuple (a,d) generated via two bridges.
        let p = partitioning(4, 2);
        let mut g = KnnGraph::new(4, 2);
        let nb = |id: u32| Neighbor::new(UserId::new(id), 0.5);
        g.insert(UserId::new(0), nb(1));
        g.insert(UserId::new(0), nb(2));
        g.insert(UserId::new(1), nb(3));
        g.insert(UserId::new(2), nb(3));
        let (_, buckets) = generate(&g, &p, None);
        let (offered, unique, _) = totals(&buckets);
        assert!(offered - unique >= 1, "diamond tuple must be deduplicated");
        assert_eq!(all_tuples(&buckets), reference_tuple_set(&g));
    }

    /// Random graphs, plus a world of mutual edges whose user count is
    /// no multiple of the partition count: the directed expansion is
    /// the reference set, each directed tuple once.
    #[test]
    fn matches_reference_on_random_graphs() {
        let worlds = (0..5u64)
            .map(|seed| (KnnGraph::random_init(40, 4, seed), 5))
            .chain([(mutual_ring(43, 6), 5)]);
        for (case, (g, m)) in worlds.enumerate() {
            let p = partitioning(g.num_vertices(), m);
            let (_, buckets) = generate(&g, &p, None);
            let directed = directed_tuples(&buckets);
            let got: HashSet<(u32, u32)> = directed.iter().copied().collect();
            assert_eq!(got, reference_tuple_set(&g), "case {case}");
            assert_eq!(directed.len(), got.len());
            assert!(totals(&buckets).1 as usize <= got.len());
        }
    }

    /// The offer-time rule against a brute-force oracle over random
    /// `G(t-1)` / `G(t)`, random `seed_ok` and `profile_dirty`, with
    /// reverse offers off and on, and over a mutual-edge world whose
    /// size is no multiple of the partition count: the direction bits
    /// are exactly the directed candidates with a path the rule keeps,
    /// and the suppressed count is exactly the number of generating
    /// paths it drops.
    #[test]
    fn offer_time_rule_matches_brute_force_oracle() {
        let worlds = [3u64, 8]
            .map(|seed| {
                (
                    seed,
                    KnnGraph::random_init(40, 4, seed),
                    // A different seed gives a realistic mix of shared
                    // and new edges.
                    KnnGraph::random_init(40, 4, seed + 100),
                )
            })
            .into_iter()
            .chain([(5, KnnGraph::random_init(43, 6, 5), mutual_ring(43, 6))]);
        for (seed, old_g, new_g) in worlds {
            for include_reverse in [false, true] {
                let n = new_g.num_vertices();
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
                let (live, buckets) = generate(&new_g, &partitioning(n, 4), Some(&sup));

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
                let directed = directed_tuples(&buckets);
                assert_eq!(directed.len(), kept.len(), "{label}");
                assert_eq!(
                    directed.into_iter().collect::<HashSet<_>>(),
                    kept,
                    "{label}"
                );
                let (offered, _, generated_suppressed) = totals(&buckets);
                assert_eq!(generated_suppressed, suppressed, "{label}");
                assert_eq!(
                    offered + suppressed,
                    paths.len() as u64,
                    "{label}: every path is either offered or suppressed"
                );
                assert_eq!(live.paths, paths.len() as u64, "{label}");
                assert!(suppressed > 0, "{label}: some offers must be suppressed");
                assert!(!kept.is_empty(), "{label}: some offers must survive");
            }
        }
    }

    /// With every user dirty nothing is redundant: the rule suppresses
    /// no offer, and the rows, live set and counts are those of the
    /// rule-free run.
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
        let p = partitioning(n, 3);
        let (plain_live, plain) = generate(&g, &p, None);
        let (live, ruled) = generate(&g, &p, Some(&sup));
        assert_eq!(totals(&ruled).2, 0);
        assert_eq!(ruled, plain);
        assert_eq!((live.pi, live.paths), (plain_live.pi, plain_live.paths));
    }

    #[test]
    fn empty_graph_produces_no_tuples() {
        let p = partitioning(4, 2);
        let g = KnnGraph::new(4, 2);
        let (live, buckets) = generate(&g, &p, None);
        assert_eq!(live.pi, PiGraph::new(2));
        assert_eq!(live.paths, 0);
        assert_eq!(totals(&buckets), (0, 0, 0));
    }

    /// The live set of a generated world, as the schedule reads it:
    /// unordered pairs with a row in either bucket, and diagonal
    /// buckets with a row.
    fn non_empty(buckets: &BTreeMap<(u32, u32), BucketCandidates>, m: usize) -> PiGraph {
        let mut pi = PiGraph::new(m);
        for (&(a, b), c) in buckets {
            let key = (a.min(b), a.max(b));
            if !c.rows.is_empty() && pi.bucket_weight(key.0, key.1) == 0 {
                pi.add_bucket(key.0, key.1, 1);
            }
        }
        pi
    }

    fn nb(id: u32) -> Neighbor {
        Neighbor::new(UserId::new(id), 0.5)
    }

    /// `s → v → s` paths make no row and are no path: 0 ↔ 2 is mutual
    /// inside partition 0 (users u → partition u % 2), so with both
    /// direct edges suppressed the diagonal bucket is not live.
    #[test]
    fn self_tuples_ignored() {
        let mut g = KnnGraph::new(4, 2);
        g.insert(UserId::new(0), nb(2));
        g.insert(UserId::new(2), nb(0));
        let p = partitioning(4, 2);
        let (live, _) = generate(&g, &p, None);
        assert_eq!(live.paths, 2, "0→2 and 2→0; the two s→v→s paths are none");

        let state = PruneState {
            profile_dirty: vec![false; 4],
            additions: g.additions_since(&g),
            seed_ok: vec![true; 4],
            fresh: Vec::new(),
        };
        let sup = Suppression {
            state: &state,
            include_reverse: false,
        };
        let (live, buckets) = generate(&g, &p, Some(&sup));
        assert!(buckets.values().all(|c| c.rows.is_empty()));
        assert_eq!(live.pi, PiGraph::new(2));
        assert_eq!(totals(&buckets), (0, 0, 2));
    }

    /// A pair offered through several paths makes one row: 0 → 1
    /// directly and via pivots 2 and 4, 0 → 3 directly, all into
    /// bucket (0, 1) (users u → partition u % 2).
    #[test]
    fn dedups_within_bucket() {
        let mut g = KnnGraph::new(6, 4);
        for d in [1, 2, 4, 3] {
            g.insert(UserId::new(0), nb(d));
        }
        g.insert(UserId::new(2), nb(1));
        g.insert(UserId::new(4), nb(1));
        let p = partitioning(6, 2);
        let (live, buckets) = generate(&g, &p, None);
        let fwd = meta_bits::FWD;
        assert_eq!(buckets[&(0, 1)].offered, 4);
        assert_eq!(buckets[&(0, 1)].rows, vec![(0, 1, fwd), (0, 3, fwd)]);
        assert_eq!(live.pi, non_empty(&buckets, 2));
    }

    /// The symmetric-dedup contract: (s, d) and (d, s) collapse to one
    /// canonical row carrying both direction bits, in the canonical
    /// pair's bucket.
    #[test]
    fn opposite_directions_collapse_to_one_canonical_tuple() {
        let mut g = KnnGraph::new(4, 2);
        g.insert(UserId::new(0), nb(1)); // forward
        g.insert(UserId::new(1), nb(0)); // backward: same canonical row
        g.insert(UserId::new(3), nb(2)); // backward only
        let p = partitioning(4, 2);
        let (live, buckets) = generate(&g, &p, None);
        assert_eq!(buckets[&(0, 1)].offered, 3);
        assert_eq!(
            buckets[&(0, 1)].rows,
            vec![
                (0, 1, meta_bits::FWD | meta_bits::BWD),
                (2, 3, meta_bits::BWD)
            ]
        );
        assert_eq!(totals(&buckets), (3, 2, 0));
        assert_eq!(
            all_tuples(&buckets),
            [(0, 1), (1, 0), (3, 2)].into_iter().collect()
        );
        assert_eq!(live.paths, 3);
        assert_eq!(live.pi, non_empty(&buckets, 2));
    }

    /// A pair keys into (part(min), part(max)): 3 → 0, 3 → 2 and
    /// 1 → 2 → 0 are backward rows of bucket (0, 1), 1 → 2 a forward
    /// row of bucket (1, 0); 3 → 2 → 0 offers (0, 3) a second time.
    #[test]
    fn buckets_key_by_canonical_partition_pair() {
        let mut g = KnnGraph::new(4, 2);
        g.insert(UserId::new(3), nb(0));
        g.insert(UserId::new(1), nb(2));
        g.insert(UserId::new(3), nb(2));
        g.insert(UserId::new(2), nb(0));
        let p = partitioning(4, 2);
        let (live, buckets) = generate(&g, &p, None);
        let bwd = meta_bits::BWD;
        assert_eq!(
            buckets[&(0, 1)].rows,
            vec![(0, 1, bwd), (0, 3, bwd), (2, 3, bwd)]
        );
        assert_eq!(buckets[&(0, 1)].offered, 4);
        assert_eq!(buckets[&(1, 0)].rows, vec![(1, 2, meta_bits::FWD)]);
        assert_eq!(buckets[&(0, 0)].rows, vec![(0, 2, bwd)]);
        assert!(buckets[&(1, 1)].rows.is_empty());
        assert_eq!(totals(&buckets), (6, 5, 0));
        assert_eq!(live.paths, 6);
        assert_eq!(live.pi, non_empty(&buckets, 2));
        assert_eq!(live.pi.num_pairs(), 1);
        assert_eq!(live.pi.self_pairs(), vec![0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The live set equals the set of non-empty generated buckets,
        /// and the path count is what phase 4 offers plus what it
        /// suppresses, over random `G(t-1)` / `G(t)` (mutual edges
        /// included), dirty bits, `seed_ok`, reverse offers off and
        /// on, and user counts that are no multiple of `m`.
        #[test]
        fn live_set_matches_the_generated_buckets(
            n in 4usize..40,
            k in 1usize..6,
            m in 1usize..6,
            seed in 0u64..1000,
            include_reverse in 0u8..2,
            suppress in 0u8..2,
        ) {
            let m = m.min(n);
            let old_g = KnnGraph::random_init(n, k.min(n - 1), seed);
            let g = if seed % 3 == 0 {
                mutual_ring(n, 2 * k)
            } else {
                KnnGraph::random_init(n, k.min(n - 1), seed + 1)
            };
            let state = PruneState {
                profile_dirty: flags(n, seed, 4),
                additions: g.additions_since(&old_g),
                seed_ok: flags(n, seed + 7, 2).iter().map(|&f| !f).collect(),
                fresh: Vec::new(),
            };
            let sup = Suppression { state: &state, include_reverse: include_reverse == 1 };
            let p = partitioning(n, m);
            let (live, buckets) = generate(&g, &p, (suppress == 1).then_some(&sup));
            prop_assert_eq!(&live.pi, &non_empty(&buckets, m));
            let (offered, _, suppressed) = totals(&buckets);
            prop_assert_eq!(live.paths, offered + suppressed);
            for (&(a, b), c) in &buckets {
                for w in c.rows.windows(2) {
                    prop_assert!((w[0].0, w[0].1) < (w[1].0, w[1].1), "rows sorted, unique");
                }
                for &(u, v, bits) in &c.rows {
                    prop_assert!(u < v && bits != 0 && bits & !(meta_bits::FWD | meta_bits::BWD) == 0);
                    prop_assert_eq!((p.partition_of(UserId::new(u)), p.partition_of(UserId::new(v))), (a, b));
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

    /// One iteration (phases 2 and 4) from `current` on a fresh world
    /// with clean profiles. With `previous`, phase 4 seeds the
    /// accumulators and the generator suppresses against the
    /// `previous` → `current` additions, as the engine does.
    fn iterate(
        current: &KnnGraph,
        previous: Option<&KnnGraph>,
        profiles: &ProfileStore,
        k: usize,
        m: usize,
    ) -> (Live, Phase4Output) {
        let n = current.num_vertices();
        let (b, p) = (MemBackend::new(), partitioning(n, m));
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
        let legs = Legs::new(current, &p, sup.as_ref());
        let live = live_buckets(&legs, &p);
        let options = Phase4Options {
            k,
            measure: Measure::Cosine,
            threads: 1,
            cache_slots: 2,
            include_reverse: false,
            bound_filter: false,
            chunk: CHUNK,
        };
        let schedule = Heuristic::Sequential.schedule(&live.pi);
        let p4 = run_phase4(&schedule, &legs, &p, &b, current, state.as_ref(), &options).unwrap();
        (live, p4)
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
        let (live, p4) = iterate(&g1, Some(&g0), &profiles, k, m);
        assert_eq!(p4.graph, reference, "suppression changed G(2)");
        assert!(live.paths > p4.tuples.offered, "no offer was suppressed");
        assert!(p4.sims_computed > 0, "iteration 2 still has fresh pairs");
    }

    /// At a fixed point (G(t+1) == G(t), static profiles) every offer
    /// is suppressed: no live bucket, no tuple, no kernel evaluation,
    /// no partition load, identical graph.
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
        let (live, p4) = iterate(&current, Some(&prev), &profiles, k, m);
        assert_eq!(p4.graph, current, "fixed point not reproduced");
        assert_eq!(
            live.pi,
            PiGraph::new(m),
            "a fully static world has no live bucket"
        );
        assert_eq!(p4.tuples.offered, 0, "a fully static world offers nothing");
        assert!(live.paths > 0);
        assert_eq!(
            p4.sims_computed, 0,
            "a fully static world needs zero kernel evaluations"
        );
        assert_eq!(p4.cache.total_ops(), 0);
    }
}
