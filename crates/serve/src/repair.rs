//! Fast-path online repair: sub-iteration placement of changed users.
//!
//! When updates drain, the serving layer does not have to wait for the
//! next five-phase iteration to make them queryable. The repair path
//! applies the deltas to a cloned profile view, re-places each touched
//! user by greedy search over the *current* snapshot graph (the Fast
//! Online k-nn Graph Building insight: searching the existing graph
//! beats recomputation by orders of magnitude), rewrites the user's
//! row and the reverse rows of its new/old neighbors in place, and
//! publishes the result as a new epoch tagged
//! [`repaired`](crate::Snapshot::repaired). The background iteration
//! then reconciles exactly — repaired generations are best-effort,
//! iterated generations are exact.
//!
//! Candidate scoring reuses the phase-4 funnel verbatim:
//! [`ProfileStats::with_sketch`] + [`PreparedRef`] feed
//! [`Measure::upper_bound_ref`] so a candidate whose score *ceiling*
//! cannot beat the current kth result is skipped without computing its
//! score — the same exact (never lossy) filter phase 4 applies.

use std::collections::HashSet;

use knn_graph::{KnnGraph, Neighbor, UserId};
use knn_sim::{Measure, PreparedRef, ProfileDelta, ProfileStats, ProfileStore, Similarity};

use crate::ServeError;

/// Cap on greedy expansion rounds. Each round expands the current
/// best candidates one hop; the search almost always stalls (no
/// top-K change) after two or three rounds, the cap only bounds
/// pathological graphs.
const MAX_ROUNDS: usize = 8;

/// Scores `cand` against the prepared query and offers it into the
/// best-first top-`k` accumulator, going through the phase-4 bound
/// funnel first: with a full accumulator, a candidate whose upper
/// bound is strictly below the kth score provably cannot enter and is
/// skipped unscored.
fn consider(
    measure: Measure,
    query: PreparedRef<'_>,
    profiles: &ProfileStore,
    cand: UserId,
    k: usize,
    best: &mut Vec<Neighbor>,
) {
    let profile = profiles.get(cand);
    let (stats, sketch) = ProfileStats::with_sketch(profile);
    let prepared = PreparedRef::new(profile.entries(), &stats, &sketch);
    if best.len() == k {
        let kth = best[k - 1].sim;
        if measure.upper_bound_ref(query, prepared) < kth {
            return;
        }
    }
    let cand = Neighbor::new(cand, measure.score_ref(query, prepared));
    let at = best.partition_point(|n| n.beats(&cand));
    if at >= k {
        return;
    }
    best.insert(at, cand);
    best.truncate(k);
}

/// Places `user` in `graph` by greedy search: seed with the user's
/// old row plus its two-hop neighborhood, then repeatedly expand the
/// current best candidates one hop until the top-`k` stops changing.
/// Returns the user's new best-first row (scored under `measure`
/// against `profiles`, which must already reflect the user's updated
/// profile).
///
/// A user with an empty row (fresh insert into an empty slot, or a
/// cold start) falls back to a deterministic stride over the id space
/// so the search always has somewhere to begin.
pub(crate) fn place_user(
    graph: &KnnGraph,
    profiles: &ProfileStore,
    measure: Measure,
    user: UserId,
) -> Vec<Neighbor> {
    let k = graph.k();
    let n = graph.num_vertices();
    if n <= 1 {
        return Vec::new();
    }
    let query = profiles.get(user);
    let (stats, sketch) = ProfileStats::with_sketch(query);
    let prepared = PreparedRef::new(query.entries(), &stats, &sketch);

    let mut seeds = graph.two_hop_candidates(user);
    if seeds.is_empty() {
        // Deterministic spread over the id space: enough seeds to
        // fill the accumulator plus slack for the greedy rounds.
        let want = (2 * k + 2).min(n - 1);
        let step = ((n - 1) / want).max(1);
        seeds = (0..n as u32)
            .step_by(step)
            .map(UserId::new)
            .filter(|&c| c != user)
            .take(want)
            .collect();
    }

    let mut best: Vec<Neighbor> = Vec::with_capacity(k + 1);
    let mut visited: HashSet<UserId> = HashSet::with_capacity(seeds.len() * 2);
    visited.insert(user);
    for &c in &seeds {
        if visited.insert(c) {
            consider(measure, prepared, profiles, c, k, &mut best);
        }
    }

    let mut expanded: HashSet<UserId> = HashSet::with_capacity(k * MAX_ROUNDS);
    for _ in 0..MAX_ROUNDS {
        let frontier: Vec<UserId> = best
            .iter()
            .map(|nb| nb.id)
            .filter(|id| !expanded.contains(id))
            .collect();
        if frontier.is_empty() {
            break;
        }
        for f in frontier {
            expanded.insert(f);
            for nb in graph.neighbors(f) {
                if nb.id != user && visited.insert(nb.id) {
                    consider(measure, prepared, profiles, nb.id, k, &mut best);
                }
            }
        }
    }
    best
}

/// Repairs the graph around one changed `user`: re-places its row via
/// [`place_user`], then maintains the reverse edges — new neighbors
/// are offered the (symmetric) back-edge, and dropped old neighbors
/// that still list `user` get that edge re-scored under the new
/// profile (up *or* down). The graph's pages are copy-on-write, so a
/// write copies only the page it lands in and snapshots already
/// published keep their generation intact.
pub(crate) fn repair_user(
    graph: &mut KnnGraph,
    profiles: &ProfileStore,
    measure: Measure,
    user: UserId,
) {
    let old: Vec<UserId> = graph.neighbors(user).iter().map(|nb| nb.id).collect();
    let row = place_user(graph, profiles, measure, user);
    let kept: HashSet<UserId> = row.iter().map(|nb| nb.id).collect();
    for nb in &row {
        // All seven measures are symmetric, so the forward score is
        // the back-edge score.
        graph.offer_rescored(nb.id, Neighbor::new(user, nb.sim));
    }
    let query = profiles.get(user);
    for v in old {
        if kept.contains(&v) {
            continue;
        }
        if graph.neighbors(v).iter().any(|nb| nb.id == user) {
            let sim = measure.score(query, profiles.get(v));
            graph.rescore_neighbor(v, user, sim);
        }
    }
    graph
        .set_neighbors(user, row)
        .expect("greedy placement yields a valid row");
}

/// Re-places every user touched by `deltas` (deduplicated, in first-
/// touch order). `profiles` must already have the deltas applied.
pub(crate) fn repair_touched(
    graph: &mut KnnGraph,
    profiles: &ProfileStore,
    measure: Measure,
    deltas: &[ProfileDelta],
) {
    let mut touched: Vec<UserId> = Vec::new();
    for d in deltas {
        if !touched.contains(&d.user) {
            touched.push(d.user);
        }
    }
    for u in touched {
        repair_user(graph, profiles, measure, u);
    }
}

/// Hands every delta to `queue` (oldest parked retries first, then the
/// fresh batch), attempting **all** of them: one failure must not drop
/// the rest. Failures are aggregated into `errors` and the failing
/// deltas returned to `parked` for a later retry. To preserve
/// per-user ordering, once a user's delta fails its later deltas are
/// parked *unattempted* — a retry may never overtake an earlier
/// failed delta for the same user.
///
/// Returns the deltas that were successfully queued, in order.
pub(crate) fn queue_all(
    parked: &mut Vec<ProfileDelta>,
    fresh: Vec<ProfileDelta>,
    queue: &mut dyn FnMut(&ProfileDelta) -> Result<(), ServeError>,
    errors: &mut Vec<ServeError>,
) -> Vec<ProfileDelta> {
    if parked.is_empty() && fresh.is_empty() {
        return Vec::new();
    }
    let retries = std::mem::take(parked);
    let mut blocked: HashSet<UserId> = HashSet::new();
    let mut queued = Vec::new();
    for delta in retries.into_iter().chain(fresh) {
        if blocked.contains(&delta.user) {
            parked.push(delta);
            continue;
        }
        match queue(&delta) {
            Ok(()) => queued.push(delta),
            Err(e) => {
                errors.push(e);
                blocked.insert(delta.user);
                parked.push(delta);
            }
        }
    }
    queued
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_sim::{ItemId, Profile};

    fn profile(pairs: &[(u32, f32)]) -> Profile {
        let mut p = Profile::new();
        for &(i, w) in pairs {
            p.set(ItemId::new(i), w);
        }
        p
    }

    /// Clustered world: users 0..3 share items {1,2}, users 4..7 share
    /// {10,11}, wired into two cliques.
    fn two_cluster_world() -> (KnnGraph, ProfileStore) {
        let n = 8;
        let mut profiles = ProfileStore::new(n);
        for u in 0..4u32 {
            profiles.set(UserId::new(u), profile(&[(1, 1.0), (2, u as f32 + 1.0)]));
        }
        for u in 4..8u32 {
            profiles.set(UserId::new(u), profile(&[(10, 1.0), (11, u as f32 + 1.0)]));
        }
        let mut graph = KnnGraph::new(n, 2);
        for group in [[0u32, 1, 2, 3], [4, 5, 6, 7]] {
            for &u in &group {
                for &v in &group {
                    if u != v {
                        let s = Measure::Cosine
                            .score(profiles.get(UserId::new(u)), profiles.get(UserId::new(v)));
                        graph.insert(UserId::new(u), Neighbor::new(UserId::new(v), s));
                    }
                }
            }
        }
        (graph, profiles)
    }

    #[test]
    fn place_user_matches_brute_force_within_reach() {
        let (graph, profiles) = two_cluster_world();
        for u in 0..8u32 {
            let user = UserId::new(u);
            let placed = place_user(&graph, &profiles, Measure::Cosine, user);
            // Brute force over the user's own cluster (the graph is
            // two disconnected cliques, so that is the reachable set).
            let range = if u < 4 { 0..4u32 } else { 4..8u32 };
            let cluster: Vec<UserId> = range.filter(|&v| v != u).map(UserId::new).collect();
            let mut exact: Vec<Neighbor> = cluster
                .iter()
                .map(|&v| {
                    Neighbor::new(
                        v,
                        Measure::Cosine.score(profiles.get(user), profiles.get(v)),
                    )
                })
                .collect();
            exact.sort_unstable();
            exact.truncate(2);
            assert_eq!(placed, exact, "user {u}");
        }
    }

    #[test]
    fn place_user_seeds_cold_rows_deterministically() {
        let (graph, profiles) = two_cluster_world();
        // Wipe user 0's row: the fallback stride must still find its
        // cluster mates (reachable once any same-cluster seed lands).
        let mut cold = graph.clone();
        cold.set_neighbors(UserId::new(0), Vec::new()).unwrap();
        let a = place_user(&cold, &profiles, Measure::Cosine, UserId::new(0));
        let b = place_user(&cold, &profiles, Measure::Cosine, UserId::new(0));
        assert_eq!(a, b, "deterministic");
        assert_eq!(a.len(), 2);
        assert!(
            a.iter().all(|nb| nb.id.raw() < 4),
            "found its own cluster: {a:?}"
        );
    }

    #[test]
    fn repair_user_moves_a_user_across_a_bridged_graph() {
        let (graph, mut profiles) = two_cluster_world();
        let mut bridged = graph.clone();
        // Bridge: user 1 keeps one cross-cluster edge, so cluster 2 is
        // reachable from user 0's two-hop neighborhood. And user 3
        // lists user 0, to exercise the dropped-old-neighbor rescore.
        bridged
            .set_neighbors(
                UserId::new(1),
                vec![
                    Neighbor::new(UserId::new(2), 0.99),
                    Neighbor::new(UserId::new(4), 0.0),
                ],
            )
            .unwrap();
        let old_sim_3_to_0 =
            Measure::Cosine.score(profiles.get(UserId::new(3)), profiles.get(UserId::new(0)));
        bridged
            .set_neighbors(
                UserId::new(3),
                vec![
                    Neighbor::new(UserId::new(0), old_sim_3_to_0),
                    Neighbor::new(UserId::new(1), 0.97),
                ],
            )
            .unwrap();
        // ...and 0 lists 3, so 3 is a *dropped old neighbor* after the
        // move (the rescore pass only covers those, not arbitrary
        // in-edges — the exact iteration reconciles the rest).
        let old_sim_0_to_1 =
            Measure::Cosine.score(profiles.get(UserId::new(0)), profiles.get(UserId::new(1)));
        bridged
            .set_neighbors(
                UserId::new(0),
                vec![
                    Neighbor::new(UserId::new(1), old_sim_0_to_1),
                    Neighbor::new(UserId::new(3), old_sim_3_to_0),
                ],
            )
            .unwrap();
        let mut graph = bridged;
        let published = graph.clone();

        let user = UserId::new(0);
        // User 0 switches taste to the second cluster's items.
        profiles.set(user, profile(&[(10, 1.0), (11, 3.0)]));
        repair_user(&mut graph, &profiles, Measure::Cosine, user);

        // New row crossed the bridge into cluster 2.
        assert!(
            graph.neighbors(user).iter().all(|nb| nb.id.raw() >= 4),
            "row did not cross the bridge: {:?}",
            graph.neighbors(user)
        );
        // New neighbors gained the back-edge where it beats their tail.
        for nb in graph.neighbors(user) {
            let listed = graph.neighbors(nb.id).iter().any(|b| b.id == user);
            let tail = graph.neighbors(nb.id).last().unwrap().sim;
            assert!(
                listed || tail >= nb.sim,
                "back-edge neither listed nor outscored at {}",
                nb.id
            );
        }
        // User 3 dropped out of 0's row but still lists 0: its edge
        // was re-scored under the new profile (cross-cluster cosine
        // is 0 here), demoting it to the tail.
        let three = graph.neighbors(UserId::new(3));
        let edge = three.iter().find(|nb| nb.id == user).expect("still listed");
        assert_eq!(edge.sim, 0.0, "stale score on reverse edge of 3");
        assert_eq!(three.last().unwrap().id, user, "demoted to the tail");
        // The published generation never moved.
        assert!(published.neighbors(user).iter().all(|nb| nb.id.raw() < 4));
        let published_edge = published
            .neighbors(UserId::new(3))
            .iter()
            .find(|nb| nb.id == user)
            .expect("published reverse row untouched");
        assert!(published_edge.sim > 0.5);
    }

    #[test]
    fn queue_all_attempts_every_delta_and_preserves_per_user_order() {
        let d = |u: u32, item: u32| ProfileDelta::set(UserId::new(u), ItemId::new(item), 1.0);
        let mut parked = Vec::new();
        let mut errors = Vec::new();
        // Fail exactly the first attempt (which is user 1's first
        // delta): user 1's second delta must be parked *unattempted*,
        // user 2's delta must still be attempted and succeed.
        let mut calls = 0;
        let queued = queue_all(
            &mut parked,
            vec![d(1, 10), d(1, 11), d(2, 20)],
            &mut |_delta| {
                calls += 1;
                if calls == 1 {
                    Err(ServeError::Stopped)
                } else {
                    Ok(())
                }
            },
            &mut errors,
        );
        assert_eq!(calls, 2, "user 1's second delta was not attempted");
        assert_eq!(queued, vec![d(2, 20)]);
        assert_eq!(parked, vec![d(1, 10), d(1, 11)]);
        assert_eq!(errors.len(), 1);

        // Retry pass: parked deltas go first and drain in order.
        let queued = queue_all(&mut parked, vec![d(1, 12)], &mut |_| Ok(()), &mut errors);
        assert_eq!(queued, vec![d(1, 10), d(1, 11), d(1, 12)]);
        assert!(parked.is_empty());
    }

    #[test]
    fn queue_all_blocks_only_the_failing_user() {
        let d = |u: u32, item: u32| ProfileDelta::set(UserId::new(u), ItemId::new(item), 1.0);
        let mut parked = Vec::new();
        let mut errors = Vec::new();
        let queued = queue_all(
            &mut parked,
            vec![d(1, 10), d(2, 20), d(1, 11), d(2, 21)],
            &mut |delta| {
                if delta.user == UserId::new(1) {
                    Err(ServeError::Stopped)
                } else {
                    Ok(())
                }
            },
            &mut errors,
        );
        assert_eq!(queued, vec![d(2, 20), d(2, 21)]);
        assert_eq!(parked, vec![d(1, 10), d(1, 11)]);
        assert_eq!(
            errors.len(),
            1,
            "later deltas of a blocked user are parked unattempted"
        );
    }
}
