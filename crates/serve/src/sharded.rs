//! Scatter-gather serving over a sharded engine.
//!
//! The background half is the one loop of [`crate::refine`], driving a
//! [`ShardedEngine`] exactly like it drives a `KnnEngine`. What is
//! sharded is what a publish hands to the readers — **one snapshot per
//! shard**: shard `s`'s snapshot holds the neighbor lists and profiles
//! of exactly the users the ring assigns to `s` (a network deployment
//! would publish the same projection on each peer) — and the read
//! path, which fans out:
//!
//! - [`neighbors`](ShardedKnnService::neighbors) routes to the user's
//!   owner shard — one cell load, inherently coherent;
//! - [`neighbors_many`](ShardedKnnService::neighbors_many) loads *all*
//!   shard cells and retries until the generation vector is coherent
//!   (all cells on one epoch), so a batch never mixes two graph
//!   generations even while the loop is publishing; validation is
//!   all-or-nothing before any row is materialized;
//! - [`query_profile`](ShardedKnnService::query_profile) scatters the
//!   scan to every shard (each ranks only its owned users) and gathers
//!   the global top-k from the per-shard top-k lists.
//!
//! Updates go through the same validated [`UpdateIngest`](crate::UpdateIngest)
//! queue; the loop hands drained deltas to the engine, whose router
//! lands each on its user's owner shard's durable log.
//!
//! The projections are this module's half of the publish path: an
//! exact publish rebuilds them all ([`project_shards`]); a repaired
//! publish refreshes exactly the owner-shard projections of the rows
//! that changed ([`refresh_projections`]) and republishes **every**
//! cell at the new epoch — untouched shards re-share their old
//! containers, so the generation vector stays coherent at the cost of
//! a few `Arc` clones. A single shard serves the global containers
//! themselves and builds no projection.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use knn_graph::{KnnGraph, Neighbor, UserId};
use knn_shard::ShardedEngine;
use knn_sim::{Profile, ProfileDelta, ProfileStore};

use crate::cache::CacheKey;
use crate::refine::{start, RefineHandle, Shared, ViewState};
use crate::service::{validate_query, BatchNeighbors, Counters};
use crate::snapshot::{Snapshot, SnapshotCell};
use crate::{RefineOptions, ServeError};

/// Retry budget of the sharded batch paths' coherence gather: how hard
/// [`ShardedKnnService::neighbors_many`] and
/// [`ShardedKnnService::query_profile`] may try to assemble one
/// coherent generation vector before degrading.
///
/// The refinement loop publishes the shard cells one after another, so
/// a reader landing mid-publish sees a mixed generation vector for a
/// handful of pointer swaps — almost always resolved by the next load.
/// But with publishers continuously racing readers there is no instant
/// the vector is *observed* coherent, and an unbounded retry loop can
/// spin indefinitely. The budget bounds the retry at `attempts` load
/// rounds and `wall` elapsed time, whichever trips first; on
/// exhaustion the read **degrades** — it answers from the freshest
/// per-shard snapshots observed and flags it via
/// [`BatchNeighbors::degraded`] — instead of spinning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoherenceBudget {
    /// Maximum rounds of loading every shard cell (≥ 1; clamped).
    pub attempts: usize,
    /// Wall-clock deadline across all rounds.
    pub wall: Duration,
}

impl Default for CoherenceBudget {
    fn default() -> Self {
        CoherenceBudget {
            attempts: 32,
            wall: Duration::from_millis(20),
        }
    }
}

/// Accumulates per-shard snapshot observations across gather rounds,
/// keyed by epoch. Snapshots are immutable, so a *full* per-shard set
/// collected at one epoch — even across different rounds — IS that
/// coherent generation, whether or not all cells ever held it
/// simultaneously while we looked.
/// Shards seen so far, plus one slot per shard.
type PartialEpoch = (usize, Vec<Option<Arc<Snapshot>>>);

struct EpochGather {
    num_shards: usize,
    /// epoch → partially assembled generation.
    partial: BTreeMap<u64, PartialEpoch>,
}

impl EpochGather {
    fn new(num_shards: usize) -> Self {
        EpochGather {
            num_shards,
            partial: BTreeMap::new(),
        }
    }

    fn offer(&mut self, shard: usize, snap: Arc<Snapshot>) {
        let entry = self
            .partial
            .entry(snap.epoch())
            .or_insert_with(|| (0, vec![None; self.num_shards]));
        if entry.1[shard].is_none() {
            entry.1[shard] = Some(snap);
            entry.0 += 1;
        }
    }

    /// The newest epoch for which every shard has been observed.
    fn complete(&self) -> Option<Vec<Arc<Snapshot>>> {
        self.partial
            .iter()
            .rev()
            .find(|(_, (seen, _))| *seen == self.num_shards)
            .map(|(_, (_, slots))| {
                slots
                    .iter()
                    .map(|s| Arc::clone(s.as_ref().expect("slot counted as seen")))
                    .collect()
            })
    }
}

/// Loads one snapshot per shard, all on one generation if the budget
/// allows. Returns the snapshots and whether the read **degraded**:
/// `false` means one coherent generation vector, `true` means the
/// budget ran out and these are simply the freshest per-shard loads
/// (mixed generations possible — callers flag it to their callers).
fn gather_coherent(cells: &[SnapshotCell], budget: CoherenceBudget) -> (Vec<Arc<Snapshot>>, bool) {
    let load_all = || -> Vec<Arc<Snapshot>> { cells.iter().map(SnapshotCell::load).collect() };
    let coherent = |snaps: &[Arc<Snapshot>]| snaps.windows(2).all(|w| w[0].epoch() == w[1].epoch());
    // Fast path: the overwhelmingly common no-publish-in-flight case,
    // no accumulator allocation.
    let mut latest = load_all();
    if coherent(&latest) {
        return (latest, false);
    }
    let deadline = Instant::now() + budget.wall;
    let mut gather = EpochGather::new(cells.len());
    for (shard, snap) in latest.iter().enumerate() {
        gather.offer(shard, Arc::clone(snap));
    }
    let mut rounds = 1usize;
    while rounds < budget.attempts.max(1) && Instant::now() < deadline {
        std::thread::yield_now();
        latest = load_all();
        rounds += 1;
        for (shard, snap) in latest.iter().enumerate() {
            gather.offer(shard, Arc::clone(snap));
        }
        if let Some(snaps) = gather.complete() {
            return (snaps, false);
        }
    }
    // Budget exhausted: degrade to the freshest loads rather than spin.
    (latest, true)
}

impl Shared {
    /// Loads one snapshot per shard, on one coherent generation when
    /// the retry budget allows (see [`gather_coherent`]).
    fn coherent_snapshots(&self) -> (Vec<Arc<Snapshot>>, bool) {
        gather_coherent(&self.cells, self.coherence)
    }
}

/// Builds the per-shard projections of one global state: shard `s`'s
/// containers are full-width (n users) but populated only at the users
/// shard `s` owns.
pub(crate) fn project_shards(
    graph: &KnnGraph,
    profiles: &ProfileStore,
    owned: &[Vec<UserId>],
) -> Vec<(Arc<KnnGraph>, Arc<ProfileStore>)> {
    let (n, k) = (graph.num_vertices(), graph.k());
    owned
        .iter()
        .map(|users| {
            let mut g = KnnGraph::new(n, k);
            let mut p = ProfileStore::new(n);
            for &u in users {
                g.set_neighbors(u, graph.neighbors(u).to_vec())
                    .expect("projecting a valid graph");
                p.set(u, profiles.get(u).clone());
            }
            (Arc::new(g), Arc::new(p))
        })
        .collect()
}

/// Brings the projections up to date with a repaired view by
/// refreshing exactly what the repair touched: changed `rows` on their
/// owner's graph, the profiles `deltas` rewrote on their owner's store.
pub(crate) fn refresh_projections(
    view: &mut ViewState,
    owner_of: &[u32],
    rows: &[UserId],
    deltas: &[ProfileDelta],
) {
    for &v in rows {
        let (graph, _) = &mut view.projections[owner_of[v.index()] as usize];
        Arc::make_mut(graph)
            .set_neighbors(v, view.graph.neighbors(v).to_vec())
            .expect("projecting a valid repaired row");
    }
    for delta in deltas {
        let (_, profiles) = &mut view.projections[owner_of[delta.user.index()] as usize];
        Arc::make_mut(profiles).set(delta.user, view.profiles.get(delta.user).clone());
    }
}

/// Starts serving a sharded engine: publishes its current state as
/// per-shard snapshots at generation 0, then hands the engine to the
/// background refinement loop (same lifecycle as [`crate::spawn`],
/// including the optional fast-path repair worker).
///
/// # Errors
///
/// Returns a storage error if the initial profile export fails.
pub fn spawn_sharded(
    engine: ShardedEngine,
    options: RefineOptions,
) -> Result<(ShardedKnnService, ShardedRefineHandle), ServeError> {
    let n = engine.config().num_users();
    let mut owned: Vec<Vec<UserId>> = vec![Vec::new(); engine.num_shards()];
    let mut owner_of = Vec::with_capacity(n);
    for u in 0..n as u32 {
        let owner = engine.ring().owner_of_user(u);
        owner_of.push(owner);
        owned[owner as usize].push(UserId::new(u));
    }
    let (shared, wake, handle) = start(engine, options, owned, owner_of)?;
    let service = ShardedKnnService {
        shared,
        counters: Arc::new(Counters::default()),
        wake,
    };
    Ok((service, handle))
}

/// The scatter-gather query front-end over the sharded refinement
/// loop. Cloning is cheap; all clones serve from the same per-shard
/// cells. Answers are identical to a single-shard [`crate::KnnService`]
/// over the same engine state — sharding changes where state lives,
/// never what a query returns.
#[derive(Debug, Clone)]
pub struct ShardedKnnService {
    shared: Arc<Shared>,
    counters: Arc<Counters>,
    /// The thread a submit must wake (repair worker or refine loop).
    wake: Thread,
}

impl ShardedKnnService {
    /// Number of shards served.
    pub fn num_shards(&self) -> usize {
        self.shared.cells.len()
    }

    /// Number of users served.
    pub fn num_users(&self) -> usize {
        self.shared.ingest.num_users()
    }

    fn owner_cell(&self, user: UserId) -> &SnapshotCell {
        &self.shared.cells[self.shared.owner_of[user.index()] as usize]
    }

    /// The top-K list of `user`, read from its owner shard's snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownUser`] for out-of-range ids.
    pub fn neighbors(&self, user: UserId) -> Result<Vec<Neighbor>, ServeError> {
        self.counters
            .neighbor_queries
            .fetch_add(1, Ordering::Relaxed);
        if user.index() >= self.num_users() {
            return Err(ServeError::UnknownUser {
                user,
                num_users: self.num_users(),
            });
        }
        let snapshot = self.owner_cell(user).load();
        let generation = snapshot.generation();
        let key = CacheKey::Neighbors(user);
        if let Some(hit) = self.shared.cache.get(generation, &key) {
            return Ok(hit);
        }
        let answer = snapshot.neighbors(user)?.to_vec();
        self.shared.cache.insert(generation, key, &answer);
        Ok(answer)
    }

    /// The top-K lists of several users, scatter-gathered across the
    /// shards from **one coherent generation vector**: every row comes
    /// from a snapshot of the same generation, which the returned
    /// [`BatchNeighbors::generation`] names.
    ///
    /// # Errors
    ///
    /// All-or-nothing like the unsharded batch call: every id is
    /// validated before any row is materialized, and the first
    /// out-of-range id fails the whole batch with
    /// [`ServeError::UnknownUser`].
    pub fn neighbors_many(&self, users: &[UserId]) -> Result<BatchNeighbors, ServeError> {
        self.counters
            .neighbor_queries
            .fetch_add(users.len() as u64, Ordering::Relaxed);
        let num_users = self.num_users();
        if let Some(&bad) = users.iter().find(|u| u.index() >= num_users) {
            return Err(ServeError::UnknownUser {
                user: bad,
                num_users,
            });
        }
        let (snaps, degraded) = self.shared.coherent_snapshots();
        Ok(BatchNeighbors {
            // Coherent: every shard is on this generation. Degraded:
            // name the newest generation any row came from.
            generation: snaps
                .iter()
                .map(|s| s.generation())
                .max()
                .expect("at least one shard"),
            degraded,
            results: users
                .iter()
                .map(|&u| {
                    snaps[self.shared.owner_of[u.index()] as usize]
                        .neighbors(u)
                        .expect("validated above")
                        .to_vec()
                })
                .collect(),
        })
    }

    /// Exact top-`k` users for an ad-hoc `query` profile: each shard
    /// ranks the users it owns, the gather step merges the per-shard
    /// top-`k` lists. Every user is a candidate on exactly one shard,
    /// so the merged list equals the unsharded full scan.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::NonFiniteQuery`] if the query profile
    /// carries a NaN/infinite weight.
    pub fn query_profile(&self, query: &Profile, k: usize) -> Result<Vec<Neighbor>, ServeError> {
        validate_query(query)?;
        self.counters
            .profile_queries
            .fetch_add(1, Ordering::Relaxed);
        let (snaps, degraded) = self.shared.coherent_snapshots();
        let generation = snaps
            .iter()
            .map(|s| s.generation())
            .max()
            .expect("at least one shard");
        let key = CacheKey::profile(query, k);
        // Degraded reads mix generations: never cache them, and never
        // answer from cache entries that belong to one clean
        // generation of a different state.
        if !degraded {
            if let Some(hit) = self.shared.cache.get(generation, &key) {
                return Ok(hit);
            }
        }
        let mut merged: Vec<Neighbor> = snaps
            .iter()
            .zip(&self.shared.owned)
            .flat_map(|(snap, users)| snap.rank_candidates(query, users.iter().copied(), k))
            .collect();
        merged.sort_unstable();
        merged.truncate(k);
        if !degraded {
            self.shared.cache.insert(generation, key, &merged);
        }
        Ok(merged)
    }

    /// Queues a profile update; the refinement loop routes it to its
    /// user's owner shard's durable log before the next iteration
    /// applies it (with repair on, the repair worker additionally
    /// publishes it within milliseconds). Same validation and
    /// visibility contract as [`crate::KnnService::submit_update`].
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownUser`], [`ServeError::NonFiniteWeight`], or
    /// [`ServeError::Stopped`] after shutdown.
    pub fn submit_update(&self, delta: ProfileDelta) -> Result<(), ServeError> {
        self.shared.ingest.submit(delta)?;
        self.wake.unpark();
        Ok(())
    }

    /// Current counters (epoch is the latest fully published
    /// generation).
    pub fn stats(&self) -> crate::ServiceStats {
        self.shared.stats(&self.counters)
    }
}

/// Control handle of the sharded refinement loop: the same handle as
/// [`crate::RefineHandle`], giving back a [`ShardedEngine`] on stop.
pub type ShardedRefineHandle = RefineHandle<ShardedEngine>;

#[cfg(test)]
mod tests {
    use super::*;
    use knn_sim::{ItemId, Measure};
    use std::sync::atomic::AtomicBool;

    fn snapshot(epoch: u64) -> Snapshot {
        let mut graph = KnnGraph::new(2, 1);
        graph.insert(UserId::new(0), Neighbor::new(UserId::new(1), 0.5));
        let mut profiles = ProfileStore::new(2);
        let mut p = Profile::new();
        p.set(ItemId::new(0), 1.0);
        profiles.set(UserId::new(0), p);
        Snapshot::new(
            epoch,
            epoch,
            1.0,
            Measure::Cosine,
            Arc::new(graph),
            Arc::new(profiles),
        )
    }

    #[test]
    fn gather_assembles_coherent_epoch_across_rounds() {
        // Mid-publish observation order: shard 0 already at epoch 6,
        // shard 1 still at 5 — then shard 1 catches up. The full
        // epoch-6 set is assembled from observations of *two* rounds.
        let mut gather = EpochGather::new(2);
        gather.offer(0, Arc::new(snapshot(6)));
        gather.offer(1, Arc::new(snapshot(5)));
        assert!(gather.complete().is_none(), "no epoch has both shards");
        gather.offer(0, Arc::new(snapshot(6)));
        gather.offer(1, Arc::new(snapshot(6)));
        let snaps = gather.complete().expect("epoch 6 complete");
        assert!(snaps.iter().all(|s| s.epoch() == 6));
    }

    #[test]
    fn gather_prefers_newest_complete_epoch() {
        let mut gather = EpochGather::new(2);
        for epoch in [3, 4] {
            gather.offer(0, Arc::new(snapshot(epoch)));
            gather.offer(1, Arc::new(snapshot(epoch)));
        }
        let snaps = gather.complete().expect("two complete epochs");
        assert!(snaps.iter().all(|s| s.epoch() == 4));
    }

    #[test]
    fn coherent_cells_take_the_fast_path() {
        let cells = vec![
            SnapshotCell::new(snapshot(2)),
            SnapshotCell::new(snapshot(2)),
        ];
        let (snaps, degraded) = gather_coherent(&cells, CoherenceBudget::default());
        assert!(!degraded);
        assert!(snaps.iter().all(|s| s.epoch() == 2));
    }

    /// Regression for the unbounded coherence-retry loop: with a
    /// publisher keeping the cells *permanently* incoherent (shard 0
    /// only ever holds odd epochs, shard 1 only even), the old
    /// implementation spun forever. The bounded gather must return a
    /// degraded read within its budget.
    #[test]
    fn gather_degrades_instead_of_spinning_under_racing_publisher() {
        let cells = Arc::new(vec![
            SnapshotCell::new(snapshot(1)),
            SnapshotCell::new(snapshot(2)),
        ]);
        let stop = Arc::new(AtomicBool::new(false));
        let publisher = {
            let cells = Arc::clone(&cells);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut epoch = 3u64;
                while !stop.load(Ordering::Relaxed) {
                    cells[0].publish(snapshot(epoch));
                    cells[1].publish(snapshot(epoch + 1));
                    epoch += 2;
                }
            })
        };
        let budget = CoherenceBudget {
            attempts: 64,
            wall: Duration::from_millis(50),
        };
        let started = Instant::now();
        let (snaps, degraded) = gather_coherent(&cells, budget);
        let elapsed = started.elapsed();
        stop.store(true, Ordering::Relaxed);
        publisher.join().unwrap();
        assert!(degraded, "permanently incoherent cells must degrade");
        assert_eq!(snaps.len(), 2, "degraded read still answers per shard");
        assert!(
            elapsed < Duration::from_secs(2),
            "must return within the budget, took {elapsed:?}"
        );
    }

    /// A publisher racing reads but *pausing* lets the gather assemble
    /// a coherent set within budget (no degradation on the happy path).
    #[test]
    fn gather_recovers_coherence_when_publisher_finishes() {
        let cells = vec![
            SnapshotCell::new(snapshot(1)),
            SnapshotCell::new(snapshot(2)),
        ];
        // Shard 0 catches up before the reader arrives.
        cells[0].publish(snapshot(2));
        let (snaps, degraded) = gather_coherent(&cells, CoherenceBudget::default());
        assert!(!degraded);
        assert!(snaps.iter().all(|s| s.epoch() == 2));
    }

    /// The two ways a publish brings the projections up to date agree:
    /// refreshing exactly what a repair touched leaves them equal to a
    /// full re-projection of the repaired view.
    #[test]
    fn touched_refresh_matches_a_full_reprojection() {
        use knn_core::{EngineConfig, KnnEngine};
        use knn_sim::generators::{clustered_profiles, ClusteredConfig};

        let n = 60;
        let (profiles, _) = clustered_profiles(ClusteredConfig::new(n, 7));
        let config = EngineConfig::builder(n)
            .k(4)
            .num_partitions(3)
            .seed(7)
            .build()
            .unwrap();
        let mut engine = KnnEngine::in_memory(config, profiles).unwrap();
        engine.run_iteration().unwrap();

        let owner_of: Vec<u32> = (0..n as u32).map(|u| u % 2).collect();
        let mut owned = vec![Vec::new(); 2];
        for u in 0..n as u32 {
            owned[(u % 2) as usize].push(UserId::new(u));
        }
        let graph = Arc::new(engine.graph().clone());
        let profiles = Arc::new(engine.export_profiles().unwrap());
        let mut view = ViewState {
            epoch: 0,
            iteration: 1,
            changed_fraction: 1.0,
            projections: project_shards(&graph, &profiles, &owned),
            graph,
            profiles,
            pending_engine: Vec::new(),
        };

        let mut fresh = Profile::new();
        fresh.set(ItemId::new(9_001), 2.0);
        let deltas = vec![
            ProfileDelta::replace(UserId::new(5), fresh),
            ProfileDelta::set(UserId::new(12), ItemId::new(9_001), 1.0),
        ];
        Arc::make_mut(&mut view.profiles).apply_deltas(&deltas);
        let rows = crate::repair::repair_touched(
            &mut view.graph,
            &view.profiles,
            Measure::Cosine,
            &deltas,
        );
        assert!(rows.len() > 2, "the repair must reach beyond the two users");
        refresh_projections(&mut view, &owner_of, &rows, &deltas);
        assert_eq!(
            view.projections,
            project_shards(&view.graph, &view.profiles, &owned)
        );
    }
}
