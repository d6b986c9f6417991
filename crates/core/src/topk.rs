//! Per-user bounded top-K candidate accumulators.

use knn_graph::Neighbor;

/// Accumulates scored candidates for one user, keeping only the best
/// `K` under the workspace's deterministic order (sim desc, id asc)
/// with at most one entry per candidate id (the best score wins).
///
/// The accumulator is **order-independent**: offering the same multiset
/// of candidates in any order produces the same final list — this is
/// what makes phase 4's result independent of the traversal heuristic
/// and the thread count.
///
/// ```
/// use knn_core::topk::TopKAccumulator;
/// use knn_graph::{Neighbor, UserId};
///
/// let mut acc = TopKAccumulator::new(2);
/// acc.offer(Neighbor::new(UserId::new(1), 0.3));
/// acc.offer(Neighbor::new(UserId::new(2), 0.9));
/// acc.offer(Neighbor::new(UserId::new(3), 0.5));
/// let best = acc.into_sorted();
/// assert_eq!(best[0].id, UserId::new(2));
/// assert_eq!(best[1].id, UserId::new(3));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TopKAccumulator {
    k: usize,
    /// Kept sorted best-first; length ≤ k; unique ids.
    entries: Vec<Neighbor>,
}

impl TopKAccumulator {
    /// Creates an empty accumulator with bound `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "K must be positive");
        TopKAccumulator {
            k,
            entries: Vec::with_capacity(k.min(64)),
        }
    }

    /// The bound `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current number of entries (≤ K).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no candidate has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the accumulator holds `K` entries — the precondition
    /// for bound-based pruning (a non-full accumulator accepts any
    /// candidate, so nothing can be pruned against it).
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.k
    }

    /// The current k-th (worst retained) entry, or `None` while the
    /// accumulator is not full — the pruning threshold: a candidate
    /// whose score upper bound does not [`Neighbor::beats`] this entry
    /// cannot change the accumulator and need not be scored.
    pub fn threshold(&self) -> Option<Neighbor> {
        if self.is_full() {
            self.entries.last().copied()
        } else {
            None
        }
    }

    /// Offers a candidate; returns `true` if the entry set changed.
    pub fn offer(&mut self, cand: Neighbor) -> bool {
        // A full list whose worst entry the candidate does not beat
        // cannot change: the candidate beats no entry at all, its own
        // id's (if present) included. That settles almost every offer
        // of a warm accumulator before the id scan below.
        if self.threshold().is_some_and(|worst| !cand.beats(&worst)) {
            return false;
        }
        if let Some(pos) = self.entries.iter().position(|n| n.id == cand.id) {
            if !cand.beats(&self.entries[pos]) {
                return false;
            }
            self.entries.remove(pos);
        } else if self.is_full() {
            self.entries.pop();
        }
        let at = self.entries.partition_point(|n| n.beats(&cand));
        self.entries.insert(at, cand);
        true
    }

    /// Merges every entry of `other` into `self` (union semantics —
    /// commutative and associative up to the final top-K).
    #[cfg(test)]
    fn merge(&mut self, other: &TopKAccumulator) {
        for &n in &other.entries {
            self.offer(n);
        }
    }

    /// The current entries, best-first.
    pub fn entries(&self) -> &[Neighbor] {
        &self.entries
    }

    /// Consumes the accumulator, returning the best-first entry list.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_graph::UserId;

    fn nb(id: u32, sim: f32) -> Neighbor {
        Neighbor::new(UserId::new(id), sim)
    }

    #[test]
    fn keeps_only_top_k() {
        let mut acc = TopKAccumulator::new(3);
        for i in 0..10 {
            acc.offer(nb(i, i as f32 / 10.0));
        }
        let v = acc.into_sorted();
        assert_eq!(v.len(), 3);
        assert_eq!(v[0], nb(9, 0.9));
        assert_eq!(v[2], nb(7, 0.7));
    }

    #[test]
    fn dedups_by_best_score() {
        let mut acc = TopKAccumulator::new(3);
        acc.offer(nb(5, 0.2));
        acc.offer(nb(5, 0.8));
        acc.offer(nb(5, 0.5));
        assert_eq!(acc.entries(), &[nb(5, 0.8)]);
    }

    #[test]
    fn order_independence() {
        let cands = vec![
            nb(1, 0.5),
            nb(2, 0.5),
            nb(3, 0.9),
            nb(4, 0.1),
            nb(1, 0.7),
            nb(5, 0.5),
        ];
        let forward = {
            let mut a = TopKAccumulator::new(3);
            for &c in &cands {
                a.offer(c);
            }
            a.into_sorted()
        };
        let backward = {
            let mut a = TopKAccumulator::new(3);
            for &c in cands.iter().rev() {
                a.offer(c);
            }
            a.into_sorted()
        };
        assert_eq!(forward, backward);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = TopKAccumulator::new(2);
        a.offer(nb(1, 0.9));
        a.offer(nb(2, 0.1));
        let mut b = TopKAccumulator::new(2);
        b.offer(nb(3, 0.5));
        b.offer(nb(2, 0.6));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.entries(), ba.entries());
    }

    /// Phase 4 seeds an accumulator by offering a user's `G(t)` row and
    /// harvests it with `into_sorted`: a row that no offer beats comes
    /// back unchanged.
    #[test]
    fn row_round_trip() {
        let mut acc = TopKAccumulator::new(4);
        for c in [nb(7, 0.7), nb(1, 0.9), nb(3, -0.2)] {
            acc.offer(c);
        }
        let row = acc.clone().into_sorted();
        let mut back = TopKAccumulator::new(4);
        for &n in &row {
            back.offer(n);
        }
        assert_eq!(back, acc);
        assert_eq!(back.into_sorted(), row);
    }

    #[test]
    fn ties_break_by_id() {
        let mut acc = TopKAccumulator::new(2);
        acc.offer(nb(9, 0.5));
        acc.offer(nb(3, 0.5));
        acc.offer(nb(6, 0.5));
        let ids: Vec<u32> = acc.entries().iter().map(|n| n.id.raw()).collect();
        assert_eq!(ids, vec![3, 6]);
    }

    #[test]
    #[should_panic(expected = "K must be positive")]
    fn zero_k_rejected() {
        let _ = TopKAccumulator::new(0);
    }

    #[test]
    fn threshold_appears_only_when_full() {
        let mut acc = TopKAccumulator::new(2);
        assert!(!acc.is_full());
        assert_eq!(acc.threshold(), None);
        acc.offer(nb(1, 0.9));
        assert_eq!(acc.threshold(), None);
        acc.offer(nb(2, 0.4));
        assert!(acc.is_full());
        assert_eq!(acc.threshold(), Some(nb(2, 0.4)));
        acc.offer(nb(3, 0.6));
        assert_eq!(acc.threshold(), Some(nb(3, 0.6)));
    }

    /// The pruning contract: a candidate that does not beat the
    /// threshold can be dropped without changing the accumulator.
    #[test]
    fn candidates_below_threshold_never_change_a_full_accumulator() {
        let mut acc = TopKAccumulator::new(3);
        for c in [nb(1, 0.9), nb(2, 0.7), nb(3, 0.5)] {
            acc.offer(c);
        }
        let threshold = acc.threshold().unwrap();
        let before = acc.clone();
        for cand in [nb(9, 0.5), nb(4, 0.4), nb(8, -1.0)] {
            assert!(!cand.beats(&threshold));
            acc.offer(cand);
            assert_eq!(acc, before, "sub-threshold candidate changed the set");
        }
        // While one that beats it does change the set.
        assert!(nb(4, 0.6).beats(&threshold));
        assert!(acc.offer(nb(4, 0.6)));
    }
}
