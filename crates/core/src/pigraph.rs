//! The partition-interaction (PI) graph — phase 3's data structure.
//!
//! Each node is a partition; a directed edge `(Ri, Rj)` stands for the
//! bucket of tuples `{(s, d) : s ∈ Ri, d ∈ Rj}` produced by phase 2.
//! Processing requires co-loading `Ri` and `Rj`, so the traversal
//! works over **unordered pairs**: when `{Ri, Rj}` are resident, both
//! buckets `(i, j)` and `(j, i)` are scored (self-pairs `(i, i)` need
//! only one resident partition).

use std::collections::BTreeMap;

/// The partition-interaction graph with per-bucket tuple counts.
///
/// ```
/// use knn_core::PiGraph;
///
/// let mut pi = PiGraph::new(3);
/// pi.add_bucket(0, 1, 10);
/// pi.add_bucket(1, 0, 5);
/// pi.add_bucket(2, 2, 7);
/// assert_eq!(pi.pair_weight(0, 1), 15);       // both directions
/// assert_eq!(pi.pair_weight(2, 2), 7);        // self-pair
/// assert_eq!(pi.degree(0), 1);
/// assert_eq!(pi.num_pairs(), 1);              // self-pairs not counted
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PiGraph {
    m: usize,
    /// Directed bucket tuple counts, keyed `(src, dst)`; `BTreeMap`
    /// keeps every iteration order deterministic.
    buckets: BTreeMap<(u32, u32), u64>,
}

impl PiGraph {
    /// Creates an empty PI graph over `m` partitions.
    pub fn new(m: usize) -> Self {
        PiGraph {
            m,
            buckets: BTreeMap::new(),
        }
    }

    /// Number of partitions (nodes).
    pub fn num_partitions(&self) -> usize {
        self.m
    }

    /// Registers (or accumulates into) the directed bucket `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range or `count == 0`.
    pub fn add_bucket(&mut self, i: u32, j: u32, count: u64) {
        assert!(
            (i as usize) < self.m && (j as usize) < self.m,
            "partition out of range"
        );
        assert!(count > 0, "empty buckets must not be registered");
        *self.buckets.entry((i, j)).or_insert(0) += count;
    }

    /// The tuple count of the directed bucket `(i, j)` (0 if absent).
    pub fn bucket_weight(&self, i: u32, j: u32) -> u64 {
        self.buckets.get(&(i, j)).copied().unwrap_or(0)
    }

    /// Iterates directed buckets `((i, j), count)` in key order.
    pub fn iter_buckets(&self) -> impl Iterator<Item = ((u32, u32), u64)> + '_ {
        self.buckets.iter().map(|(&k, &v)| (k, v))
    }

    /// Combined tuple count of the unordered pair `{i, j}`: both
    /// directed buckets for `i != j`, the single self-bucket for
    /// `i == j`.
    pub fn pair_weight(&self, i: u32, j: u32) -> u64 {
        if i == j {
            self.bucket_weight(i, i)
        } else {
            self.bucket_weight(i, j) + self.bucket_weight(j, i)
        }
    }

    /// All unordered pairs `{i, j}` (as `(min, max)`) with nonzero
    /// weight, **excluding** self-pairs, in deterministic order.
    pub fn unordered_pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = self
            .buckets
            .keys()
            .filter(|&&(i, j)| i != j)
            .map(|&(i, j)| if i < j { (i, j) } else { (j, i) })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Partitions with a nonzero self-bucket `(i, i)`, ascending.
    pub fn self_pairs(&self) -> Vec<u32> {
        self.buckets
            .keys()
            .filter(|&&(i, j)| i == j)
            .map(|&(i, _)| i)
            .collect()
    }

    /// Distinct neighbor partitions of `i` (either direction, `!= i`),
    /// ascending.
    pub fn neighbors(&self, i: u32) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .buckets
            .keys()
            .filter_map(|&(a, b)| {
                if a == i && b != i {
                    Some(b)
                } else if b == i && a != i {
                    Some(a)
                } else {
                    None
                }
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of distinct neighbor partitions of `i`.
    pub fn degree(&self, i: u32) -> usize {
        self.neighbors(i).len()
    }

    /// Number of unordered non-self pairs.
    pub fn num_pairs(&self) -> usize {
        self.unordered_pairs().len()
    }

    /// Total tuples across all buckets.
    #[cfg(test)]
    pub(crate) fn total_tuples(&self) -> u64 {
        self.buckets.values().sum()
    }

    /// Builds the PI graph a plain graph's edges would induce if that
    /// graph *were* the PI structure — the reading the paper uses for
    /// its Table-1 evaluation ("if the PI graph structure were to
    /// resemble these networks"). Each undirected input pair becomes a
    /// weight-1 pair.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= m`.
    pub fn from_network_shape(m: usize, undirected_pairs: &[(u32, u32)]) -> Self {
        let mut pi = PiGraph::new(m);
        for &(a, b) in undirected_pairs {
            pi.add_bucket(a, b, 1);
        }
        pi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PiGraph {
        let mut pi = PiGraph::new(4);
        pi.add_bucket(0, 1, 3);
        pi.add_bucket(1, 0, 2);
        pi.add_bucket(0, 2, 1);
        pi.add_bucket(3, 3, 9);
        pi
    }

    #[test]
    fn weights_accumulate() {
        let mut pi = PiGraph::new(2);
        pi.add_bucket(0, 1, 2);
        pi.add_bucket(0, 1, 3);
        assert_eq!(pi.bucket_weight(0, 1), 5);
    }

    #[test]
    fn pair_weight_sums_both_directions() {
        let pi = sample();
        assert_eq!(pi.pair_weight(0, 1), 5);
        assert_eq!(pi.pair_weight(1, 0), 5);
        assert_eq!(pi.pair_weight(0, 2), 1);
        assert_eq!(pi.pair_weight(3, 3), 9);
        assert_eq!(pi.pair_weight(1, 2), 0);
    }

    #[test]
    fn unordered_pairs_dedupe_directions() {
        let pi = sample();
        assert_eq!(pi.unordered_pairs(), vec![(0, 1), (0, 2)]);
        assert_eq!(pi.num_pairs(), 2);
    }

    #[test]
    fn self_pairs_listed_separately() {
        let pi = sample();
        assert_eq!(pi.self_pairs(), vec![3]);
    }

    #[test]
    fn neighbors_and_degree() {
        let pi = sample();
        assert_eq!(pi.neighbors(0), vec![1, 2]);
        assert_eq!(pi.degree(0), 2);
        assert_eq!(pi.degree(3), 0, "self-pair adds no neighbor");
        assert_eq!(pi.neighbors(2), vec![0]);
    }

    #[test]
    fn total_tuples_sums_everything() {
        assert_eq!(sample().total_tuples(), 15);
    }

    #[test]
    fn from_network_shape_maps_pairs() {
        let pi = PiGraph::from_network_shape(3, &[(0, 1), (1, 2)]);
        assert_eq!(pi.num_pairs(), 2);
        assert_eq!(pi.total_tuples(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_bucket() {
        let mut pi = PiGraph::new(2);
        pi.add_bucket(0, 5, 1);
    }

    #[test]
    #[should_panic(expected = "empty buckets")]
    fn rejects_zero_weight() {
        let mut pi = PiGraph::new(2);
        pi.add_bucket(0, 1, 0);
    }
}
