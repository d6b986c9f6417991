//! Phase-3 PI-graph traversal heuristics.
//!
//! A heuristic turns the PI graph into a *schedule*: an ordered list of
//! partition pairs such that every unordered pair with tuples appears
//! exactly once (self-pairs included). Phase 4 processes the schedule
//! with a two-slot cache, so the ordering alone decides how many
//! partition load/unload operations the iteration pays — the metric of
//! the paper's Table 1.
//!
//! All heuristics share the paper's pivot discipline: pick a pivot
//! partition, process **all** its remaining PI edges while it stays
//! resident, remove it from further consideration, continue with the
//! next pivot. They differ in pivot choice and neighbor order:
//!
//! * [`Heuristic::Sequential`] — pivots `0..m` in index order,
//!   neighbors ascending (the paper's baseline);
//! * [`Heuristic::DegreeHighLow`] — pivot = highest remaining degree,
//!   neighbors from highest to lowest degree (paper, version 1);
//! * [`Heuristic::DegreeLowHigh`] — same pivots, neighbors from lowest
//!   to highest degree (paper, version 2 — usually the best);
//! * [`Heuristic::GreedyChain`] — extension: the next pivot is the
//!   just-processed neighbor when possible, so the pivot switch finds
//!   the partition already resident (the paper's future-work call for
//!   "more heuristics");
//! * [`Heuristic::WeightAware`] — extension: degree ordering weighted
//!   by tuple counts, prioritizing heavy buckets.

mod schedule;
mod sim_trace;

pub use schedule::{PairStep, Schedule};
pub use sim_trace::{simulate_schedule_ops, TraversalCost};

use crate::PiGraph;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

/// The built-in traversal heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Heuristic {
    /// Pivots in partition-index order (paper's baseline).
    Sequential,
    /// Degree-ordered pivots, neighbors high→low degree (paper v1).
    DegreeHighLow,
    /// Degree-ordered pivots, neighbors low→high degree (paper v2).
    #[default]
    DegreeLowHigh,
    /// Chain pivots through already-resident partitions (extension).
    GreedyChain,
    /// Tuple-weight-ordered pivots and neighbors (extension).
    WeightAware,
}

impl Heuristic {
    /// All built-in heuristics (paper + extensions).
    pub const ALL: [Heuristic; 5] = [
        Heuristic::Sequential,
        Heuristic::DegreeHighLow,
        Heuristic::DegreeLowHigh,
        Heuristic::GreedyChain,
        Heuristic::WeightAware,
    ];

    /// Computes the processing schedule for `pi`.
    ///
    /// The schedule covers every unordered pair of `pi` exactly once
    /// and every self-pair exactly once (tested invariant).
    pub fn schedule(&self, pi: &PiGraph) -> Schedule {
        let mut state = TraversalState::new(pi);
        let mut steps: Vec<PairStep> = Vec::new();
        while let Some(pivot) = self.next_pivot(&mut state) {
            // Self-bucket first: it needs only the pivot resident.
            if state.self_pairs[pivot as usize] {
                state.self_pairs[pivot as usize] = false;
                steps.push(PairStep { a: pivot, b: pivot });
            }
            let mut neighbors: Vec<u32> = state.adjacency[pivot as usize].iter().copied().collect();
            self.order_neighbors(&state, pivot, &mut neighbors);
            for j in neighbors {
                steps.push(PairStep { a: pivot, b: j });
                state.remove_pair(pivot, j);
            }
            state.retire(pivot);
        }
        Schedule::new(steps)
    }

    fn next_pivot(&self, state: &mut TraversalState) -> Option<u32> {
        match self {
            Heuristic::Sequential => state.active_ascending(),
            Heuristic::DegreeHighLow | Heuristic::DegreeLowHigh => state.active_max_degree(),
            Heuristic::GreedyChain => state
                .last_processed
                .filter(|p| state.has_work(*p))
                .or_else(|| state.active_max_degree()),
            Heuristic::WeightAware => state.active_max_weight(),
        }
    }

    fn order_neighbors(&self, state: &TraversalState, pivot: u32, neighbors: &mut [u32]) {
        match self {
            Heuristic::Sequential => neighbors.sort_unstable(),
            Heuristic::DegreeHighLow => {
                neighbors.sort_unstable_by_key(|&j| (std::cmp::Reverse(state.degree(j)), j));
            }
            Heuristic::DegreeLowHigh => {
                neighbors.sort_unstable_by_key(|&j| (state.degree(j), j));
            }
            Heuristic::GreedyChain => {
                // Ascending degree, so the heaviest neighbor runs last
                // and is still resident when it becomes the next pivot.
                neighbors.sort_unstable_by_key(|&j| (state.degree(j), j));
            }
            Heuristic::WeightAware => {
                neighbors
                    .sort_unstable_by_key(|&j| (std::cmp::Reverse(state.pair_weight(pivot, j)), j));
            }
        }
    }
}

impl std::fmt::Display for Heuristic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Heuristic::Sequential => "sequential",
            Heuristic::DegreeHighLow => "degree-high-low",
            Heuristic::DegreeLowHigh => "degree-low-high",
            Heuristic::GreedyChain => "greedy-chain",
            Heuristic::WeightAware => "weight-aware",
        };
        f.write_str(s)
    }
}

/// Mutable traversal bookkeeping over the remaining PI graph.
///
/// Pivot selection must stay cheap at Table-1 scale (tens of thousands
/// of PI nodes), so the degree/weight orders use lazy max-heaps: every
/// degree or weight change pushes a fresh entry, and stale entries are
/// discarded at pop time by re-checking the current value.
struct TraversalState {
    /// Remaining neighbor sets (both directions merged), by partition.
    adjacency: Vec<BTreeSet<u32>>,
    /// Partitions with an unprocessed self-bucket.
    self_pairs: Vec<bool>,
    /// Pair weights for the weight-aware ordering.
    weights: HashMap<(u32, u32), u64>,
    /// Remaining total incident weight per partition.
    total_weights: Vec<u64>,
    /// Lazy max-heap of (degree, lowest-id-first) pivot candidates.
    degree_heap: BinaryHeap<(usize, Reverse<u32>)>,
    /// Lazy max-heap of (total weight, lowest-id-first) candidates.
    weight_heap: BinaryHeap<(u64, Reverse<u32>)>,
    /// Monotone cursor for the sequential order.
    seq_cursor: usize,
    /// The neighbor processed most recently (greedy-chain state).
    last_processed: Option<u32>,
    /// Pivot candidates not yet retired.
    active: Vec<bool>,
}

impl TraversalState {
    fn new(pi: &PiGraph) -> Self {
        let m = pi.num_partitions();
        let mut adjacency: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); m];
        let mut weights = HashMap::new();
        let mut total_weights = vec![0u64; m];
        for (i, j) in pi.unordered_pairs() {
            adjacency[i as usize].insert(j);
            adjacency[j as usize].insert(i);
            let w = pi.pair_weight(i, j);
            weights.insert((i, j), w);
            total_weights[i as usize] += w;
            total_weights[j as usize] += w;
        }
        let mut self_pairs = vec![false; m];
        for p in pi.self_pairs() {
            self_pairs[p as usize] = true;
        }
        let active = vec![true; m];
        let mut state = TraversalState {
            adjacency,
            self_pairs,
            weights,
            total_weights,
            degree_heap: BinaryHeap::new(),
            weight_heap: BinaryHeap::new(),
            seq_cursor: 0,
            last_processed: None,
            active,
        };
        for p in 0..m as u32 {
            if state.has_work(p) {
                state.degree_heap.push((state.degree(p), Reverse(p)));
                state
                    .weight_heap
                    .push((state.total_weights[p as usize], Reverse(p)));
            }
        }
        state
    }

    fn degree(&self, p: u32) -> usize {
        self.adjacency[p as usize].len()
    }

    fn pair_weight(&self, a: u32, b: u32) -> u64 {
        let key = if a < b { (a, b) } else { (b, a) };
        self.weights.get(&key).copied().unwrap_or(0)
    }

    fn has_work(&self, p: u32) -> bool {
        self.active[p as usize] && (self.degree(p) > 0 || self.self_pairs[p as usize])
    }

    fn active_ascending(&mut self) -> Option<u32> {
        // Edges are only ever removed, so a skipped partition never
        // regains work: the cursor is monotone.
        while self.seq_cursor < self.active.len() {
            let p = self.seq_cursor as u32;
            if self.has_work(p) {
                return Some(p);
            }
            self.seq_cursor += 1;
        }
        None
    }

    fn active_max_degree(&mut self) -> Option<u32> {
        while let Some((d, Reverse(p))) = self.degree_heap.pop() {
            if self.has_work(p) && self.degree(p) == d {
                return Some(p);
            }
            // Stale entry: a fresh one was pushed when the degree
            // changed (or the partition is retired/workless).
        }
        None
    }

    fn active_max_weight(&mut self) -> Option<u32> {
        while let Some((w, Reverse(p))) = self.weight_heap.pop() {
            if self.has_work(p) && self.total_weights[p as usize] == w {
                return Some(p);
            }
        }
        None
    }

    fn remove_pair(&mut self, a: u32, b: u32) {
        let w = self.pair_weight(a, b);
        self.adjacency[a as usize].remove(&b);
        self.adjacency[b as usize].remove(&a);
        for p in [a, b] {
            self.total_weights[p as usize] -= w;
            if self.has_work(p) {
                self.degree_heap.push((self.degree(p), Reverse(p)));
                self.weight_heap
                    .push((self.total_weights[p as usize], Reverse(p)));
            }
        }
        self.last_processed = Some(b);
    }

    fn retire(&mut self, p: u32) {
        self.active[p as usize] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pi_from_pairs(m: usize, pairs: &[(u32, u32)]) -> PiGraph {
        PiGraph::from_network_shape(m, pairs)
    }

    /// Every unordered pair and self-pair appears exactly once.
    fn assert_covers(pi: &PiGraph, schedule: &Schedule) {
        let mut expected: Vec<(u32, u32)> = pi.unordered_pairs();
        expected.extend(pi.self_pairs().into_iter().map(|i| (i, i)));
        expected.sort_unstable();
        let mut got: Vec<(u32, u32)> = schedule
            .steps()
            .iter()
            .map(|s| if s.a <= s.b { (s.a, s.b) } else { (s.b, s.a) })
            .collect();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn all_heuristics_cover_every_pair_exactly_once() {
        let pi = pi_from_pairs(
            6,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (1, 1),
                (5, 5),
            ],
        );
        for h in Heuristic::ALL {
            let s = h.schedule(&pi);
            assert_covers(&pi, &s);
        }
    }

    #[test]
    fn sequential_pivots_in_index_order() {
        let pi = pi_from_pairs(4, &[(0, 3), (1, 2), (0, 1)]);
        let s = Heuristic::Sequential.schedule(&pi);
        let steps = s.steps();
        // Pivot 0 first: edges (0,1) then (0,3); then pivot 1: (1,2).
        assert_eq!(steps[0], PairStep { a: 0, b: 1 });
        assert_eq!(steps[1], PairStep { a: 0, b: 3 });
        assert_eq!(steps[2], PairStep { a: 1, b: 2 });
    }

    #[test]
    fn degree_heuristics_pick_highest_degree_pivot() {
        // Star centered at 2 plus a pendant pair (0,1).
        let pi = pi_from_pairs(6, &[(2, 0), (2, 1), (2, 3), (2, 4), (0, 1)]);
        for h in [Heuristic::DegreeHighLow, Heuristic::DegreeLowHigh] {
            let s = h.schedule(&pi);
            assert_eq!(s.steps()[0].a, 2, "{h} should pivot on the hub");
            assert_covers(&pi, &s);
        }
    }

    #[test]
    fn high_low_and_low_high_order_neighbors_oppositely() {
        // Pivot 0 has neighbors 1 (degree 1), 2 (degree 2), 3 (degree 3).
        let pi = pi_from_pairs(7, &[(0, 1), (0, 2), (0, 3), (2, 4), (3, 4), (3, 5)]);
        let hi = Heuristic::DegreeHighLow.schedule(&pi);
        let lo = Heuristic::DegreeLowHigh.schedule(&pi);
        // Both pick pivot 0 or 3 (degree 3); ties break to the lower id
        // via Reverse(p) in max_by_key.
        assert_eq!(hi.steps()[0].a, 0);
        assert_eq!(lo.steps()[0].a, 0);
        let hi_order: Vec<u32> = hi.steps().iter().take(3).map(|s| s.b).collect();
        let lo_order: Vec<u32> = lo.steps().iter().take(3).map(|s| s.b).collect();
        assert_eq!(hi_order, vec![3, 2, 1]);
        assert_eq!(lo_order, vec![1, 2, 3]);
    }

    #[test]
    fn self_pair_scheduled_before_neighbors() {
        let pi = pi_from_pairs(3, &[(0, 0), (0, 1), (0, 2)]);
        for h in Heuristic::ALL {
            let s = h.schedule(&pi);
            let self_pos = s.steps().iter().position(|st| st.a == st.b).unwrap();
            let first_zero_pair = s
                .steps()
                .iter()
                .position(|st| st.a != st.b && (st.a == 0 || st.b == 0))
                .unwrap();
            assert!(self_pos < first_zero_pair, "{h}: self-pair must come first");
        }
    }

    #[test]
    fn isolated_self_pair_still_scheduled() {
        let pi = pi_from_pairs(3, &[(1, 1)]);
        for h in Heuristic::ALL {
            let s = h.schedule(&pi);
            assert_eq!(s.steps(), &[PairStep { a: 1, b: 1 }], "{h}");
        }
    }

    #[test]
    fn empty_pi_graph_gives_empty_schedule() {
        let pi = PiGraph::new(4);
        for h in Heuristic::ALL {
            assert!(h.schedule(&pi).steps().is_empty());
        }
    }

    #[test]
    fn greedy_chain_reuses_last_neighbor_as_pivot() {
        // Path 0-1-2-3: after pivot 1 (max degree first is 1 or 2),
        // the chain should continue through a resident partition.
        let pi = pi_from_pairs(4, &[(0, 1), (1, 2), (2, 3)]);
        let s = Heuristic::GreedyChain.schedule(&pi);
        // Consecutive steps share a partition whenever possible.
        let steps = s.steps();
        for w in steps.windows(2) {
            let shared =
                w[0].a == w[1].a || w[0].a == w[1].b || w[0].b == w[1].a || w[0].b == w[1].b;
            assert!(shared, "chain broke between {:?} and {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn weight_aware_prefers_heavy_pairs_first() {
        let mut pi = PiGraph::new(4);
        pi.add_bucket(0, 1, 1);
        pi.add_bucket(2, 3, 100);
        let s = Heuristic::WeightAware.schedule(&pi);
        assert_eq!(s.steps()[0], PairStep { a: 2, b: 3 });
    }

    #[test]
    fn display_names_are_distinct() {
        let names: std::collections::HashSet<String> =
            Heuristic::ALL.iter().map(|h| h.to_string()).collect();
        assert_eq!(names.len(), Heuristic::ALL.len());
    }
}
