//! The K-bounded, similarity-scored directed graph `G(t)`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::neighbor::cmp_best_first;
use crate::sample::draw_unscored;
use crate::{DiGraph, GraphError, Neighbor, UserId};

/// The KNN graph `G(t)`: a directed graph where every vertex keeps at
/// most `K` scored out-neighbors, ordered best-first.
///
/// This is the structure the Middleware'14 engine evolves each
/// iteration: `G(t) → G(t+1)` replaces each user's neighbor list with
/// the top-`K` most similar users found among its neighbors and
/// neighbors' neighbors.
///
/// Neighbor lists maintain three invariants, enforced on every mutation:
/// no self-loops, no duplicate targets, and length ≤ `K` (kept sorted by
/// the deterministic best-first order of [`Neighbor`]).
///
/// ```
/// use knn_graph::{KnnGraph, Neighbor, UserId};
///
/// let mut g = KnnGraph::new(3, 2);
/// let u = UserId::new(0);
/// g.insert(u, Neighbor::new(UserId::new(1), 0.5));
/// g.insert(u, Neighbor::new(UserId::new(2), 0.9));
/// // A third candidate only displaces the worst if it is better.
/// assert!(!g.insert(u, Neighbor::new(UserId::new(1), 0.4)));
/// assert_eq!(g.neighbors(u)[0].id, UserId::new(2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KnnGraph {
    k: usize,
    lists: Vec<Vec<Neighbor>>,
}

impl KnnGraph {
    /// Creates a graph with `n` vertices, no edges, and bound `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k > 0, "K must be positive");
        KnnGraph {
            k,
            lists: vec![Vec::new(); n],
        }
    }

    /// Builds the random initial graph `G(0)`: every vertex receives
    /// `min(k, n-1)` distinct random out-neighbors (no self-loops),
    /// marked [`Neighbor::unscored`] so that any real similarity
    /// computed in iteration 1 displaces them.
    ///
    /// Deterministic in `seed`. Each row costs at most `k + 1` draws
    /// ([`draw_unscored`] over one persistent pool), so the whole
    /// graph is `O(n·k)`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn random_init(n: usize, k: usize, seed: u64) -> Self {
        assert!(k > 0, "K must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = KnnGraph::new(n, k);
        if n <= 1 {
            return g;
        }
        let take = k.min(n - 1);
        let mut pool: Vec<u32> = (0..n as u32).collect();
        for (v, list) in g.lists.iter_mut().enumerate() {
            list.reserve_exact(take);
            draw_unscored(&mut pool, v as u32, take, &mut rng, list);
            list.sort_by(cmp_best_first);
        }
        g
    }

    /// The neighbor bound `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.lists.len()
    }

    /// Total number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// The best-first-ordered neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: UserId) -> &[Neighbor] {
        &self.lists[v.index()]
    }

    /// Offers candidate `cand` to vertex `v`'s list; keeps the top-`K`.
    ///
    /// Returns `true` if the list changed (candidate inserted, or an
    /// existing entry for the same target upgraded to a better score).
    /// A candidate equal to the current entry, worse than the current
    /// entry, or worse than a full list's tail is rejected.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `cand.id == v` (self-loop).
    pub fn insert(&mut self, v: UserId, cand: Neighbor) -> bool {
        assert_ne!(v, cand.id, "self-loop offered to KNN list of {v}");
        let k = self.k;
        let list = &mut self.lists[v.index()];
        if let Some(pos) = list.iter().position(|n| n.id == cand.id) {
            if cand.beats(&list[pos]) {
                list.remove(pos);
                let at = list.partition_point(|n| n.beats(&cand));
                list.insert(at, cand);
                return true;
            }
            return false;
        }
        if list.len() < k {
            let at = list.partition_point(|n| n.beats(&cand));
            list.insert(at, cand);
            return true;
        }
        // List full: candidate must beat the current worst.
        if cand.beats(list.last().expect("k > 0 so a full list is non-empty")) {
            list.pop();
            let at = list.partition_point(|n| n.beats(&cand));
            list.insert(at, cand);
            return true;
        }
        false
    }

    /// Re-scores an existing edge `v → target` to `sim`, repositioning
    /// it in the best-first order. Unlike [`insert`](KnnGraph::insert),
    /// this **allows downgrades** — it is the primitive the online
    /// repair path uses when a profile change moves a similarity in
    /// either direction.
    ///
    /// Returns `false` (and changes nothing) if `target` is not in
    /// `v`'s list or the score is bit-identical already.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `sim` is non-finite.
    pub fn rescore_neighbor(&mut self, v: UserId, target: UserId, sim: f32) -> bool {
        assert!(
            sim.is_finite(),
            "non-finite rescore of edge {v} -> {target}"
        );
        let list = &mut self.lists[v.index()];
        let Some(pos) = list.iter().position(|n| n.id == target) else {
            return false;
        };
        if list[pos].sim.to_bits() == sim.to_bits() {
            return false;
        }
        list.remove(pos);
        let cand = Neighbor::new(target, sim);
        let at = list.partition_point(|n| n.beats(&cand));
        list.insert(at, cand);
        true
    }

    /// Offers `cand` to `v`'s list with **rescore semantics**: if the
    /// target is already listed its score is moved to `cand.sim` (up
    /// *or* down, via [`rescore_neighbor`](KnnGraph::rescore_neighbor));
    /// otherwise this is a plain [`insert`](KnnGraph::insert). Returns
    /// whether the list changed.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range, `cand.id == v`, or `cand.sim` is
    /// non-finite.
    pub fn offer_rescored(&mut self, v: UserId, cand: Neighbor) -> bool {
        assert_ne!(v, cand.id, "self-loop offered to KNN list of {v}");
        assert!(
            cand.sim.is_finite(),
            "non-finite score offered to KNN list of {v}"
        );
        if self.lists[v.index()].iter().any(|n| n.id == cand.id) {
            self.rescore_neighbor(v, cand.id, cand.sim)
        } else {
            self.insert(v, cand)
        }
    }

    /// Copy-on-write [`set_neighbors`](KnnGraph::set_neighbors): the
    /// first patch on a shared graph clones it once (`Arc::make_mut`),
    /// subsequent patches in the same batch mutate that private copy
    /// in place. Published snapshots holding the old `Arc` are never
    /// touched — this is how the serving layer's repair path edits
    /// rows next to live readers.
    ///
    /// # Errors
    ///
    /// Same validation as [`set_neighbors`](KnnGraph::set_neighbors).
    pub fn patch_row(
        graph: &mut std::sync::Arc<KnnGraph>,
        v: UserId,
        list: Vec<Neighbor>,
    ) -> Result<(), GraphError> {
        std::sync::Arc::make_mut(graph).set_neighbors(v, list)
    }

    /// Copy-on-write [`insert`](KnnGraph::insert) (see
    /// [`patch_row`](KnnGraph::patch_row) for the sharing contract).
    pub fn patch_offer(graph: &mut std::sync::Arc<KnnGraph>, v: UserId, cand: Neighbor) -> bool {
        std::sync::Arc::make_mut(graph).offer_rescored(v, cand)
    }

    /// Copy-on-write [`rescore_neighbor`](KnnGraph::rescore_neighbor)
    /// (see [`patch_row`](KnnGraph::patch_row) for the sharing
    /// contract).
    pub fn patch_rescore(
        graph: &mut std::sync::Arc<KnnGraph>,
        v: UserId,
        target: UserId,
        sim: f32,
    ) -> bool {
        std::sync::Arc::make_mut(graph).rescore_neighbor(v, target, sim)
    }

    /// Replaces `v`'s entire neighbor list after validating the KNN
    /// invariants; the list is sorted internally.
    ///
    /// # Errors
    ///
    /// Returns an error if the list contains a self-loop, duplicate
    /// target, non-finite similarity, an out-of-range target, or more
    /// than `K` entries.
    pub fn set_neighbors(&mut self, v: UserId, mut list: Vec<Neighbor>) -> Result<(), GraphError> {
        let n = self.num_vertices();
        if v.index() >= n {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                num_vertices: n,
            });
        }
        if list.len() > self.k {
            return Err(GraphError::TooManyNeighbors {
                vertex: v,
                supplied: list.len(),
                k: self.k,
            });
        }
        let mut seen = std::collections::HashSet::with_capacity(list.len());
        for nb in &list {
            if nb.id == v {
                return Err(GraphError::SelfLoop { vertex: v });
            }
            if nb.id.index() >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: nb.id,
                    num_vertices: n,
                });
            }
            if !nb.sim.is_finite() && !nb.is_unscored() {
                return Err(GraphError::NonFiniteSimilarity { edge: (v, nb.id) });
            }
            if !seen.insert(nb.id) {
                return Err(GraphError::DuplicateNeighbor {
                    vertex: v,
                    neighbor: nb.id,
                });
            }
        }
        list.sort_by(cmp_best_first);
        self.lists[v.index()] = list;
        Ok(())
    }

    /// Iterates all scored directed edges `(source, neighbor)`.
    pub fn iter_edges(&self) -> impl Iterator<Item = (UserId, Neighbor)> + '_ {
        self.lists
            .iter()
            .enumerate()
            .flat_map(|(s, list)| list.iter().map(move |&nb| (UserId::new(s as u32), nb)))
    }

    /// Drops the scores, yielding the plain directed graph.
    pub fn to_digraph(&self) -> DiGraph {
        let mut g = DiGraph::new(self.num_vertices());
        for (s, nb) in self.iter_edges() {
            g.add_edge(s, nb.id);
        }
        g.sort_and_dedup();
        g
    }

    /// Fraction of directed edges of `self` that are **not** present in
    /// `other` (by target id, scores ignored) — the convergence metric
    /// `δ(G(t), G(t+1))` used by the iteration driver.
    ///
    /// Returns 0.0 when `self` has no edges.
    ///
    /// # Panics
    ///
    /// Panics if the vertex counts differ.
    pub fn edge_change_fraction(&self, other: &KnnGraph) -> f64 {
        assert_eq!(
            self.num_vertices(),
            other.num_vertices(),
            "graphs must have the same vertex set"
        );
        let mut total = 0usize;
        let mut changed = 0usize;
        for v in 0..self.num_vertices() {
            let u = UserId::new(v as u32);
            let theirs: std::collections::HashSet<UserId> =
                other.neighbors(u).iter().map(|n| n.id).collect();
            for nb in self.neighbors(u) {
                total += 1;
                if !theirs.contains(&nb.id) {
                    changed += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            changed as f64 / total as f64
        }
    }

    /// The distinct vertices reachable from `v` in one or two hops,
    /// excluding `v` itself — exactly the candidate set one KNN
    /// iteration scores for `v`, and the neighborhood the serving
    /// layer brute-forces for ad-hoc profile queries anchored at a
    /// known user.
    ///
    /// The result is sorted by vertex id (deterministic, and ready for
    /// merge joins).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn two_hop_candidates(&self, v: UserId) -> Vec<UserId> {
        let mut seen = std::collections::HashSet::new();
        for nb in self.neighbors(v) {
            seen.insert(nb.id);
            for nb2 in self.neighbors(nb.id) {
                seen.insert(nb2.id);
            }
        }
        seen.remove(&v);
        let mut out: Vec<UserId> = seen.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Whether every neighbor of `v` carries a real similarity (no
    /// [`Neighbor::unscored`] sentinel) — the precondition for using
    /// `v`'s list as a top-K accumulator seed.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn fully_scored(&self, v: UserId) -> bool {
        self.neighbors(v).iter().all(|n| !n.is_unscored())
    }

    /// The edges of `self` that are **not** in `previous`, grouped by
    /// source — the "new edge" oracle of cross-iteration pair
    /// suppression: a candidate tuple needs (re-)scoring only if some
    /// edge on its generating path is new.
    ///
    /// # Panics
    ///
    /// Panics if the vertex counts differ.
    pub fn additions_since(&self, previous: &KnnGraph) -> EdgeAdditions {
        assert_eq!(
            self.num_vertices(),
            previous.num_vertices(),
            "graphs must have the same vertex set"
        );
        let mut added: Vec<Vec<u32>> = Vec::with_capacity(self.num_vertices());
        for v in 0..self.num_vertices() {
            let u = UserId::new(v as u32);
            let old: std::collections::HashSet<UserId> =
                previous.neighbors(u).iter().map(|n| n.id).collect();
            let mut fresh: Vec<u32> = self
                .neighbors(u)
                .iter()
                .filter(|n| !old.contains(&n.id))
                .map(|n| n.id.raw())
                .collect();
            fresh.sort_unstable();
            added.push(fresh);
        }
        EdgeAdditions { added }
    }

    /// Sum of all edge similarities, ignoring unscored sentinels — a
    /// monotonicity probe used by tests and convergence diagnostics.
    pub fn total_similarity(&self) -> f64 {
        self.iter_edges()
            .filter(|(_, nb)| !nb.is_unscored())
            .map(|(_, nb)| nb.sim as f64)
            .sum()
    }
}

/// The per-source sets of edges added between two KNN graphs
/// (`G(t-1) → G(t)`), queryable in `O(log K)` — produced by
/// [`KnnGraph::additions_since`] and consumed by phase 2's
/// cross-iteration tuple-freshness tagging.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EdgeAdditions {
    /// Sorted added target ids, indexed by source.
    added: Vec<Vec<u32>>,
}

impl EdgeAdditions {
    /// Whether the edge `s → d` is an addition (present now, absent
    /// before). Out-of-range sources are never additions.
    pub fn is_added(&self, s: u32, d: u32) -> bool {
        self.added
            .get(s as usize)
            .is_some_and(|targets| targets.binary_search(&d).is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nb(id: u32, sim: f32) -> Neighbor {
        Neighbor::new(UserId::new(id), sim)
    }

    #[test]
    fn insert_keeps_best_first_order() {
        let mut g = KnnGraph::new(5, 3);
        let v = UserId::new(0);
        for cand in [nb(1, 0.1), nb(2, 0.9), nb(3, 0.5)] {
            assert!(g.insert(v, cand));
        }
        let sims: Vec<f32> = g.neighbors(v).iter().map(|n| n.sim).collect();
        assert_eq!(sims, vec![0.9, 0.5, 0.1]);
    }

    #[test]
    fn insert_evicts_worst_when_full() {
        let mut g = KnnGraph::new(5, 2);
        let v = UserId::new(0);
        g.insert(v, nb(1, 0.1));
        g.insert(v, nb(2, 0.2));
        assert!(g.insert(v, nb(3, 0.3)));
        let ids: Vec<u32> = g.neighbors(v).iter().map(|n| n.id.raw()).collect();
        assert_eq!(ids, vec![3, 2]);
    }

    #[test]
    fn insert_rejects_worse_candidate_when_full() {
        let mut g = KnnGraph::new(5, 2);
        let v = UserId::new(0);
        g.insert(v, nb(1, 0.5));
        g.insert(v, nb(2, 0.6));
        assert!(!g.insert(v, nb(3, 0.4)));
        assert_eq!(g.neighbors(v).len(), 2);
    }

    #[test]
    fn insert_upgrades_existing_target() {
        let mut g = KnnGraph::new(5, 3);
        let v = UserId::new(0);
        g.insert(v, nb(1, 0.2));
        g.insert(v, nb(2, 0.5));
        assert!(g.insert(v, nb(1, 0.9)));
        assert_eq!(g.neighbors(v)[0], nb(1, 0.9));
        assert_eq!(g.neighbors(v).len(), 2);
        // A downgrade for an existing target is ignored.
        assert!(!g.insert(v, nb(1, 0.05)));
        assert_eq!(g.neighbors(v)[0], nb(1, 0.9));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn insert_panics_on_self_loop() {
        let mut g = KnnGraph::new(3, 2);
        g.insert(UserId::new(1), nb(1, 0.5));
    }

    #[test]
    fn random_init_respects_invariants() {
        let g = KnnGraph::random_init(50, 5, 7);
        assert_eq!(g.num_edges(), 50 * 5);
        for v in 0..50u32 {
            let u = UserId::new(v);
            let list = g.neighbors(u);
            assert_eq!(list.len(), 5);
            assert!(list.iter().all(|n| n.id != u), "no self-loops");
            assert!(list.iter().all(|n| n.is_unscored()));
            let mut ids: Vec<u32> = list.iter().map(|n| n.id.raw()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 5, "no duplicates");
        }
    }

    #[test]
    fn random_init_is_deterministic_in_seed() {
        assert_eq!(
            KnnGraph::random_init(30, 4, 9),
            KnnGraph::random_init(30, 4, 9)
        );
        assert_ne!(
            KnnGraph::random_init(30, 4, 9),
            KnnGraph::random_init(30, 4, 10)
        );
    }

    #[test]
    fn random_init_small_n_caps_at_n_minus_one() {
        let g = KnnGraph::random_init(3, 10, 1);
        for v in 0..3u32 {
            assert_eq!(g.neighbors(UserId::new(v)).len(), 2);
        }
        let lone = KnnGraph::random_init(1, 4, 1);
        assert_eq!(lone.num_edges(), 0);
    }

    #[test]
    fn set_neighbors_validates_all_invariants() {
        let mut g = KnnGraph::new(4, 2);
        let v = UserId::new(0);
        assert!(matches!(
            g.set_neighbors(v, vec![nb(0, 0.5)]),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            g.set_neighbors(v, vec![nb(1, 0.5), nb(1, 0.6)]),
            Err(GraphError::DuplicateNeighbor { .. })
        ));
        assert!(matches!(
            g.set_neighbors(v, vec![nb(1, 0.1), nb(2, 0.2), nb(3, 0.3)]),
            Err(GraphError::TooManyNeighbors { .. })
        ));
        assert!(matches!(
            g.set_neighbors(v, vec![nb(9, 0.5)]),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            g.set_neighbors(
                v,
                vec![Neighbor {
                    id: UserId::new(1),
                    sim: f32::NAN
                }]
            ),
            Err(GraphError::NonFiniteSimilarity { .. })
        ));
        assert!(g.set_neighbors(v, vec![nb(2, 0.1), nb(1, 0.9)]).is_ok());
        assert_eq!(g.neighbors(v)[0], nb(1, 0.9));
    }

    #[test]
    fn rescore_repositions_in_both_directions() {
        let mut g = KnnGraph::new(5, 3);
        let v = UserId::new(0);
        g.insert(v, nb(1, 0.9));
        g.insert(v, nb(2, 0.5));
        g.insert(v, nb(3, 0.1));
        // Downgrade: 1 falls from the top to the bottom.
        assert!(g.rescore_neighbor(v, UserId::new(1), 0.05));
        let ids: Vec<u32> = g.neighbors(v).iter().map(|n| n.id.raw()).collect();
        assert_eq!(ids, vec![2, 3, 1]);
        // Upgrade: 3 climbs to the top.
        assert!(g.rescore_neighbor(v, UserId::new(3), 0.95));
        assert_eq!(g.neighbors(v)[0], nb(3, 0.95));
        // Absent target and bit-identical score are both no-ops.
        assert!(!g.rescore_neighbor(v, UserId::new(4), 0.5));
        assert!(!g.rescore_neighbor(v, UserId::new(2), 0.5));
        assert_eq!(g.neighbors(v).len(), 3);
    }

    #[test]
    fn offer_rescored_downgrades_where_insert_would_not() {
        let mut g = KnnGraph::new(5, 2);
        let v = UserId::new(0);
        g.insert(v, nb(1, 0.9));
        g.insert(v, nb(2, 0.5));
        // insert() ignores a downgrade for a listed target...
        assert!(!g.insert(v, nb(1, 0.2)));
        assert_eq!(g.neighbors(v)[0], nb(1, 0.9));
        // ...offer_rescored applies it.
        assert!(g.offer_rescored(v, nb(1, 0.2)));
        let ids: Vec<u32> = g.neighbors(v).iter().map(|n| n.id.raw()).collect();
        assert_eq!(ids, vec![2, 1]);
        // Unlisted targets go through plain insert (top-K eviction).
        assert!(g.offer_rescored(v, nb(3, 0.7)));
        let ids: Vec<u32> = g.neighbors(v).iter().map(|n| n.id.raw()).collect();
        assert_eq!(ids, vec![3, 2]);
        assert!(!g.offer_rescored(v, nb(4, 0.1)), "worse than a full tail");
    }

    #[test]
    fn patch_helpers_leave_shared_readers_untouched() {
        let mut base = KnnGraph::new(4, 2);
        base.insert(UserId::new(0), nb(1, 0.5));
        base.insert(UserId::new(1), nb(0, 0.5));
        let published = std::sync::Arc::new(base);
        let reader = std::sync::Arc::clone(&published);

        let mut patched = std::sync::Arc::clone(&published);
        KnnGraph::patch_row(&mut patched, UserId::new(0), vec![nb(2, 0.8), nb(3, 0.6)])
            .expect("valid row");
        assert!(KnnGraph::patch_offer(
            &mut patched,
            UserId::new(2),
            nb(0, 0.8)
        ));
        assert!(KnnGraph::patch_rescore(
            &mut patched,
            UserId::new(1),
            UserId::new(0),
            0.1
        ));

        // The reader still sees the pre-patch generation, bit for bit.
        assert_eq!(reader.neighbors(UserId::new(0)), &[nb(1, 0.5)]);
        assert_eq!(reader.neighbors(UserId::new(1)), &[nb(0, 0.5)]);
        assert!(reader.neighbors(UserId::new(2)).is_empty());
        // The patched copy has all three edits.
        assert_eq!(patched.neighbors(UserId::new(0))[0], nb(2, 0.8));
        assert_eq!(patched.neighbors(UserId::new(2)), &[nb(0, 0.8)]);
        assert_eq!(patched.neighbors(UserId::new(1)), &[nb(0, 0.1)]);
        // An exclusively held Arc is patched in place (no clone).
        let before = std::sync::Arc::as_ptr(&patched);
        assert!(KnnGraph::patch_offer(
            &mut patched,
            UserId::new(3),
            nb(1, 0.3)
        ));
        assert_eq!(std::sync::Arc::as_ptr(&patched), before);
    }

    #[test]
    fn edge_change_fraction_detects_differences() {
        let mut a = KnnGraph::new(3, 2);
        let mut b = KnnGraph::new(3, 2);
        a.insert(UserId::new(0), nb(1, 0.5));
        a.insert(UserId::new(0), nb(2, 0.5));
        b.insert(UserId::new(0), nb(1, 0.9)); // same target, different score
        assert!((a.edge_change_fraction(&a) - 0.0).abs() < 1e-12);
        assert!((a.edge_change_fraction(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn edge_change_fraction_empty_graph_is_zero() {
        let a = KnnGraph::new(3, 2);
        assert_eq!(a.edge_change_fraction(&a), 0.0);
    }

    #[test]
    fn to_digraph_preserves_targets() {
        let mut g = KnnGraph::new(4, 2);
        g.insert(UserId::new(0), nb(2, 0.4));
        g.insert(UserId::new(3), nb(0, 0.7));
        let d = g.to_digraph();
        assert!(d.has_edge(UserId::new(0), UserId::new(2)));
        assert!(d.has_edge(UserId::new(3), UserId::new(0)));
        assert_eq!(d.num_edges(), 2);
    }

    #[test]
    fn two_hop_candidates_cover_both_rings() {
        // 0 → 1 → {2, 3}, 0 → 4; two-hop set of 0 is {1, 2, 3, 4}.
        let mut g = KnnGraph::new(6, 3);
        g.insert(UserId::new(0), nb(1, 0.9));
        g.insert(UserId::new(0), nb(4, 0.2));
        g.insert(UserId::new(1), nb(2, 0.8));
        g.insert(UserId::new(1), nb(3, 0.7));
        let hops = g.two_hop_candidates(UserId::new(0));
        let raw: Vec<u32> = hops.iter().map(|u| u.raw()).collect();
        assert_eq!(raw, vec![1, 2, 3, 4]);
    }

    #[test]
    fn two_hop_candidates_exclude_self_and_dedup() {
        // 0 ↔ 1 plus 1 → 2: the back-edge to 0 must not appear.
        let mut g = KnnGraph::new(3, 2);
        g.insert(UserId::new(0), nb(1, 0.5));
        g.insert(UserId::new(1), nb(0, 0.5));
        g.insert(UserId::new(1), nb(2, 0.4));
        let raw: Vec<u32> = g
            .two_hop_candidates(UserId::new(0))
            .iter()
            .map(|u| u.raw())
            .collect();
        assert_eq!(raw, vec![1, 2]);
        assert!(g.two_hop_candidates(UserId::new(2)).is_empty());
    }

    #[test]
    fn fully_scored_tracks_sentinels() {
        let mut g = KnnGraph::new(4, 3);
        g.insert(UserId::new(0), nb(1, 0.75));
        g.insert(UserId::new(0), nb(2, 0.25));
        assert!(g.fully_scored(UserId::new(0)));
        g.insert(UserId::new(0), Neighbor::unscored(UserId::new(3)));
        assert!(!g.fully_scored(UserId::new(0)));
        // Empty lists are vacuously fully scored.
        assert!(g.fully_scored(UserId::new(1)));
    }

    #[test]
    fn additions_since_finds_exactly_the_new_edges() {
        let mut old = KnnGraph::new(4, 2);
        old.insert(UserId::new(0), nb(1, 0.5));
        old.insert(UserId::new(1), nb(2, 0.5));
        let mut new = KnnGraph::new(4, 2);
        new.insert(UserId::new(0), nb(1, 0.9)); // same target, new score: not an addition
        new.insert(UserId::new(0), nb(3, 0.4)); // added
        new.insert(UserId::new(2), nb(0, 0.2)); // added
        let adds = new.additions_since(&old);
        assert!(!adds.is_added(0, 1), "rescored edge is not an addition");
        assert!(adds.is_added(0, 3));
        assert!(adds.is_added(2, 0));
        assert!(!adds.is_added(1, 2));
        assert!(!adds.is_added(9, 9), "out-of-range source");
        let num_added = |adds: &EdgeAdditions| {
            new.iter_edges()
                .filter(|(s, n)| adds.is_added(s.raw(), n.id.raw()))
                .count()
        };
        assert_eq!(num_added(&adds), 2);
        // A graph diffed against itself has no additions.
        assert_eq!(num_added(&new.additions_since(&new)), 0);
    }

    #[test]
    fn total_similarity_ignores_unscored() {
        let mut g = KnnGraph::new(4, 3);
        g.insert(UserId::new(0), Neighbor::unscored(UserId::new(1)));
        g.insert(UserId::new(0), nb(2, 0.25));
        g.insert(UserId::new(1), nb(3, 0.75));
        assert!((g.total_similarity() - 1.0).abs() < 1e-6);
    }
}
