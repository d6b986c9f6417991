//! Immutable published state and the atomic publication cell.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use knn_graph::{KnnGraph, Neighbor, UserId};
use knn_sim::{Measure, Profile, ProfileStore, Similarity};

use crate::ServeError;

/// One immutable, internally consistent view of the engine's state:
/// the KNN graph `G(t)`, the profile set `P(t)` it was computed over,
/// and the iteration metadata identifying `t`.
///
/// A snapshot is built by a publish and never mutated afterwards, so
/// any number of reader threads can hold one (via `Arc`) while the
/// engine computes the next — readers never see a half-updated graph,
/// only whole generations. It holds both tables by value, and both
/// share their pages with the tables they were cloned from
/// ([`knn_graph::cow`]): building a snapshot copies no row, and a later
/// write to the publisher's tables copies only the pages it lands in,
/// leaving this snapshot's rows where they are.
#[derive(Debug, Clone)]
pub struct Snapshot {
    epoch: u64,
    iteration: u64,
    changed_fraction: f64,
    measure: Measure,
    k: usize,
    repaired: bool,
    graph: KnnGraph,
    profiles: ProfileStore,
}

impl Snapshot {
    /// Assembles a snapshot. `epoch` counts publications (0 = the
    /// state at service start), `iteration` is the engine iteration
    /// `t` the graph corresponds to, and `changed_fraction` is
    /// `δ(G(t-1), G(t))` (1.0 before any iteration has run).
    pub fn new(
        epoch: u64,
        iteration: u64,
        changed_fraction: f64,
        measure: Measure,
        graph: KnnGraph,
        profiles: ProfileStore,
    ) -> Self {
        let k = graph.k();
        Snapshot {
            epoch,
            iteration,
            changed_fraction,
            measure,
            k,
            repaired: false,
            graph,
            profiles,
        }
    }

    /// Tags the snapshot as repaired (or exact). Fast-path repair
    /// publishes graph rows placed by greedy search instead of a full
    /// iteration — best-effort state that the next iteration
    /// reconciles exactly. Consumers (and tests) that must only
    /// observe exact generations filter on
    /// [`repaired`](Snapshot::repaired).
    pub fn with_repaired(mut self, repaired: bool) -> Self {
        self.repaired = repaired;
        self
    }

    /// Whether this generation came from the fast-path repair worker
    /// (best-effort placement) rather than a full five-phase iteration
    /// (exact). The initial epoch-0 snapshot is exact.
    pub fn repaired(&self) -> bool {
        self.repaired
    }

    /// Publication counter: strictly increasing, one per swap.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The snapshot's generation — the client-facing name of the
    /// epoch. Batch answers carry it so callers can pin or compare the
    /// coherent graph generation a result set was served from (see
    /// [`BatchNeighbors`](crate::BatchNeighbors)).
    pub fn generation(&self) -> u64 {
        self.epoch
    }

    /// The engine iteration `t` this snapshot reflects.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Edge-change fraction of the iteration that produced this
    /// snapshot (the convergence signal).
    pub fn changed_fraction(&self) -> f64 {
        self.changed_fraction
    }

    /// The similarity measure the graph was refined under.
    pub fn measure(&self) -> Measure {
        self.measure
    }

    /// The KNN bound `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of users served.
    pub fn num_users(&self) -> usize {
        self.graph.num_vertices()
    }

    /// The full KNN graph.
    pub fn graph(&self) -> &KnnGraph {
        &self.graph
    }

    /// The profile set `P(t)` the graph was scored over.
    pub fn profiles(&self) -> &ProfileStore {
        &self.profiles
    }

    /// The best-first neighbor list of `user`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownUser`] for out-of-range ids.
    pub fn neighbors(&self, user: UserId) -> Result<&[Neighbor], ServeError> {
        if user.index() >= self.num_users() {
            return Err(ServeError::UnknownUser {
                user,
                num_users: self.num_users(),
            });
        }
        Ok(self.graph.neighbors(user))
    }

    /// Scores `query` against every listed candidate and returns the
    /// top-`k`, best-first (deterministic tie-break by id).
    pub fn rank_candidates(
        &self,
        query: &Profile,
        candidates: impl IntoIterator<Item = UserId>,
        k: usize,
    ) -> Vec<Neighbor> {
        if k == 0 {
            return Vec::new();
        }
        let mut scored: Vec<Neighbor> = candidates
            .into_iter()
            .filter_map(|u| self.profiles.get_checked(u).map(|p| (u, p)))
            .map(|(u, p)| Neighbor::new(u, self.measure.score(query, p)))
            .collect();
        // Neighbor's Ord is best-first, so the k smallest are the top-k.
        if scored.len() > k {
            scored.select_nth_unstable(k - 1);
            scored.truncate(k);
        }
        scored.sort_unstable();
        scored
    }

    /// Brute-force top-`k` for `query` over the whole profile set (the
    /// partition-scan fallback for ad-hoc queries with no anchor user).
    pub fn scan_top_k(&self, query: &Profile, k: usize) -> Vec<Neighbor> {
        self.rank_candidates(query, (0..self.num_users() as u32).map(UserId::new), k)
    }
}

/// The publication point: readers [`load`](SnapshotCell::load) the
/// current snapshot wait-free in all but one narrow window, the
/// refinement loop [`publish`](SnapshotCell::publish)es a fresh one
/// with a single pointer swap.
///
/// The cell holds an `Arc<Snapshot>` behind an `RwLock` whose critical
/// sections are a pointer clone (read) and a pointer store (write) —
/// no I/O, no data copies. Readers therefore never wait on refinement
/// work, only (very briefly) on the swap instruction itself; snapshot
/// construction happens entirely outside the lock. The current epoch
/// is mirrored in an atomic, stored while the write lock is held, so
/// monitoring can poll it without touching the lock and never reads
/// an epoch older than a snapshot some reader already holds.
#[derive(Debug)]
pub struct SnapshotCell {
    current: RwLock<Arc<Snapshot>>,
    epoch: AtomicU64,
}

impl SnapshotCell {
    /// Creates a cell publishing `initial`.
    pub fn new(initial: Snapshot) -> Self {
        let epoch = initial.epoch();
        SnapshotCell {
            current: RwLock::new(Arc::new(initial)),
            epoch: AtomicU64::new(epoch),
        }
    }

    /// The currently published snapshot. Cheap: clones one `Arc`.
    pub fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// Atomically replaces the published snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `next.epoch()` does not advance the current epoch —
    /// publications must be strictly ordered.
    pub fn publish(&self, next: Snapshot) {
        let next_epoch = next.epoch();
        let next = Arc::new(next);
        let mut slot = self.current.write().expect("snapshot lock poisoned");
        assert!(
            next_epoch > slot.epoch(),
            "snapshot epochs must advance: {} -> {next_epoch}",
            slot.epoch()
        );
        let previous = std::mem::replace(&mut *slot, next);
        // Mirrored before the lock is released: whoever can load this
        // generation already reads its epoch here.
        self.epoch.store(next_epoch, Ordering::Release);
        drop(slot);
        // The previous generation is released outside the lock.
        drop(previous);
    }

    /// The epoch of the published snapshot, lock-free. Never behind a
    /// snapshot that [`load`](SnapshotCell::load) has returned.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_sim::ItemId;

    fn profile(pairs: &[(u32, f32)]) -> Profile {
        let mut p = Profile::new();
        for &(i, w) in pairs {
            p.set(ItemId::new(i), w);
        }
        p
    }

    fn snapshot(epoch: u64) -> Snapshot {
        let mut graph = KnnGraph::new(3, 2);
        graph.insert(UserId::new(0), Neighbor::new(UserId::new(1), 0.8));
        graph.insert(UserId::new(0), Neighbor::new(UserId::new(2), 0.3));
        let mut profiles = ProfileStore::new(3);
        profiles.set(UserId::new(0), profile(&[(1, 1.0), (2, 1.0)]));
        profiles.set(UserId::new(1), profile(&[(1, 1.0), (2, 1.0)]));
        profiles.set(UserId::new(2), profile(&[(9, 1.0)]));
        Snapshot::new(epoch, epoch, 1.0, Measure::Cosine, graph, profiles)
    }

    #[test]
    fn neighbors_validates_range() {
        let s = snapshot(0);
        assert_eq!(s.neighbors(UserId::new(0)).unwrap().len(), 2);
        assert!(matches!(
            s.neighbors(UserId::new(9)),
            Err(ServeError::UnknownUser { .. })
        ));
    }

    #[test]
    fn scan_ranks_by_similarity_then_id() {
        let s = snapshot(0);
        let q = profile(&[(1, 1.0), (2, 1.0)]);
        let top = s.scan_top_k(&q, 2);
        // Users 0 and 1 have identical profiles (cosine 1), user 2 is
        // orthogonal; the tie breaks by ascending id.
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].id, UserId::new(0));
        assert_eq!(top[1].id, UserId::new(1));
        assert!(top[0].sim > 0.99);
    }

    #[test]
    fn rank_candidates_skips_unknown_ids() {
        let s = snapshot(0);
        let q = profile(&[(9, 2.0)]);
        let top = s.rank_candidates(&q, vec![UserId::new(2), UserId::new(77)], 5);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].id, UserId::new(2));
    }

    #[test]
    fn cell_swaps_and_reports_epoch() {
        let cell = SnapshotCell::new(snapshot(0));
        assert_eq!(cell.epoch(), 0);
        let held = cell.load();
        cell.publish(snapshot(1));
        assert_eq!(cell.epoch(), 1);
        assert_eq!(cell.load().epoch(), 1);
        // A snapshot loaded before the swap stays fully readable.
        assert_eq!(held.epoch(), 0);
        assert_eq!(held.neighbors(UserId::new(0)).unwrap().len(), 2);
    }

    #[test]
    #[should_panic(expected = "epochs must advance")]
    fn cell_rejects_stale_epochs() {
        let cell = SnapshotCell::new(snapshot(5));
        cell.publish(snapshot(5));
    }
}
