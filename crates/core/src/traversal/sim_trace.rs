//! Dry-run cost simulation of a traversal schedule.
//!
//! Replays a [`Schedule`] against a payload-free [`SlotCache`] to count
//! the partition load/unload operations it would incur — this is the
//! generator of our Table-1 numbers, and phase 4 uses the identical
//! cache so the dry run matches the real execution exactly.

use std::convert::Infallible;

use knn_store::{CacheCounters, SlotCache};

use super::Schedule;

/// The simulated cost of one schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraversalCost {
    /// Partition loads (cache misses).
    pub loads: u64,
    /// Partition unloads (evictions plus the end-of-run flush).
    pub unloads: u64,
    /// Requests satisfied by an already-resident partition.
    pub hits: u64,
    /// Number of schedule steps.
    pub steps: u64,
}

impl TraversalCost {
    /// Loads + unloads — the paper's Table-1 metric.
    pub fn total_ops(&self) -> u64 {
        self.loads + self.unloads
    }
}

impl From<CacheCounters> for TraversalCost {
    fn from(c: CacheCounters) -> Self {
        TraversalCost {
            loads: c.loads,
            unloads: c.unloads,
            hits: c.hits,
            steps: 0,
        }
    }
}

/// Replays `schedule` against a `slots`-slot cache (the paper uses 2)
/// and returns the operation counts, including the final flush that
/// unloads whatever is still resident.
///
/// # Panics
///
/// Panics if `slots < 2` while the schedule contains a non-self pair
/// (a pair cannot be co-resident in one slot).
pub fn simulate_schedule_ops(schedule: &Schedule, slots: usize) -> TraversalCost {
    let mut cache: SlotCache<()> = SlotCache::new(slots);
    for step in schedule.iter() {
        cache
            .ensure(step.a, None, |_| Ok::<(), Infallible>(()))
            .expect("infallible");
        if !step.is_self() {
            cache
                .ensure(step.b, Some(step.a), |_| Ok::<(), Infallible>(()))
                .expect("infallible");
        }
    }
    cache.flush();
    let mut cost = TraversalCost::from(cache.counters());
    cost.steps = schedule.len() as u64;
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{Heuristic, PairStep};
    use crate::PiGraph;

    #[test]
    fn empty_schedule_costs_nothing() {
        let cost = simulate_schedule_ops(&Schedule::default(), 2);
        assert_eq!(cost.total_ops(), 0);
        assert_eq!(cost.steps, 0);
    }

    #[test]
    fn single_pair_costs_two_loads_two_unloads() {
        let s = Schedule::new(vec![PairStep { a: 0, b: 1 }]);
        let cost = simulate_schedule_ops(&s, 2);
        assert_eq!(cost.loads, 2);
        assert_eq!(cost.unloads, 2, "final flush unloads both");
        assert_eq!(cost.total_ops(), 4);
    }

    #[test]
    fn self_pair_costs_one_load_one_unload() {
        let s = Schedule::new(vec![PairStep { a: 3, b: 3 }]);
        let cost = simulate_schedule_ops(&s, 2);
        assert_eq!(cost.loads, 1);
        assert_eq!(cost.unloads, 1);
    }

    #[test]
    fn pivot_stays_resident_across_its_steps() {
        // Pivot 0 with three neighbors: loads = 1 (pivot) + 3, hits = 2
        // (pivot re-touched on steps 2 and 3).
        let s = Schedule::new(vec![
            PairStep { a: 0, b: 1 },
            PairStep { a: 0, b: 2 },
            PairStep { a: 0, b: 3 },
        ]);
        let cost = simulate_schedule_ops(&s, 2);
        assert_eq!(cost.loads, 4);
        assert_eq!(cost.hits, 2);
        // Evictions: loading 2 evicts 1; loading 3 evicts 2; flush
        // unloads 0 and 3.
        assert_eq!(cost.unloads, 4);
    }

    #[test]
    fn chained_schedule_saves_ops_versus_scattered() {
        // Path graph: chain order (0,1),(1,2),(2,3) lets each new pivot
        // already be resident; scattered order re-loads.
        let chain = Schedule::new(vec![
            PairStep { a: 0, b: 1 },
            PairStep { a: 1, b: 2 },
            PairStep { a: 2, b: 3 },
        ]);
        let scattered = Schedule::new(vec![
            PairStep { a: 0, b: 1 },
            PairStep { a: 2, b: 3 },
            PairStep { a: 1, b: 2 },
        ]);
        let c = simulate_schedule_ops(&chain, 2).total_ops();
        let s = simulate_schedule_ops(&scattered, 2).total_ops();
        assert!(c < s, "chain {c} vs scattered {s}");
    }

    #[test]
    fn more_slots_never_cost_more() {
        let pi = PiGraph::from_network_shape(
            8,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (0, 7),
            ],
        );
        for h in Heuristic::ALL {
            let schedule = h.schedule(&pi);
            let two = simulate_schedule_ops(&schedule, 2).total_ops();
            let four = simulate_schedule_ops(&schedule, 4).total_ops();
            assert!(four <= two, "{h}: 4 slots {four} vs 2 slots {two}");
        }
    }

    #[test]
    fn loads_equal_unloads_at_quiescence() {
        let pi = PiGraph::from_network_shape(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        for h in Heuristic::ALL {
            let cost = simulate_schedule_ops(&h.schedule(&pi), 2);
            assert_eq!(
                cost.loads, cost.unloads,
                "{h}: every load must eventually unload"
            );
        }
    }

    #[test]
    fn degree_heuristics_beat_sequential_on_heavy_tailed_pi() {
        // A hub-dominated PI structure similar in spirit to the paper's
        // datasets: the degree-based orders should need fewer ops.
        use knn_graph::generators::{chung_lu, ChungLuConfig};
        let n = 400;
        let edges = chung_lu(ChungLuConfig::new(n, 1600, 42));
        let pi = PiGraph::from_network_shape(n, &edges);
        let seq = simulate_schedule_ops(&Heuristic::Sequential.schedule(&pi), 2).total_ops();
        let lo = simulate_schedule_ops(&Heuristic::DegreeLowHigh.schedule(&pi), 2).total_ops();
        let hi = simulate_schedule_ops(&Heuristic::DegreeHighLow.schedule(&pi), 2).total_ops();
        assert!(lo < seq, "low-high {lo} should beat sequential {seq}");
        assert!(hi < seq, "high-low {hi} should beat sequential {seq}");
    }
}
