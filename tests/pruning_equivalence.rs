//! The pruning acceptance bar.
//!
//! Offer-time suppression (phase 2 never offers a pair whose verdict
//! is already known) and bound-based candidate filtering (phase 4) are
//! *exact* optimizations: they skip work whose outcome is already
//! decided, never work that could matter. This suite pins that claim
//! at the engine level:
//!
//! * a pruned engine and an unpruned engine over the same seeded
//!   workload produce **identical graphs after every iteration** — on
//!   both backends, with profile updates landing mid-run;
//! * run independently to convergence, both land on the same final
//!   graph after the same number of iterations;
//! * the pruned run actually prunes (the counters are non-trivial in
//!   steady state) while its funnel accounts for every offer: each
//!   unpruned offer is either offered or suppressed (`sims_skipped`),
//!   and each unique tuple is either computed or bound-pruned;
//! * at a fixed point an iteration offers nothing, scores nothing and
//!   loads no partition;
//! * under churn — updates every iteration that raise and lower
//!   existing scores — the graphs still agree at every iteration, and
//!   a row keeps its seeded verdict through an updated member whose
//!   fresh score still holds its place (phase 5's stale-seed sweep).

use std::collections::HashSet;
use std::sync::Arc;

use ooc_knn::sim::generators::{clustered_profiles, ClusteredConfig};
use ooc_knn::{
    DiskBackend, EngineConfig, ItemId, KnnEngine, Measure, MemBackend, Profile, ProfileDelta,
    ProfileStore, StorageBackend, UserId,
};

fn workload(n: usize, seed: u64) -> ProfileStore {
    let (store, _) = clustered_profiles(
        ClusteredConfig::new(n, seed)
            .with_clusters(4)
            .with_ratings(10, 2),
    );
    store
}

fn config(n: usize, seed: u64, prune: bool) -> EngineConfig {
    EngineConfig::builder(n)
        .k(4)
        .num_partitions(6)
        .measure(Measure::Cosine)
        .seed(seed)
        .threads(2)
        .prune_pairs(prune)
        .bound_filter(prune)
        .build()
        .expect("config")
}

/// Pruned vs. unpruned engines in lockstep for 4 iterations on both
/// backends, with the same profile updates queued mid-run: identical
/// graphs at every step, and the pruned run's funnel accounts for
/// every offer and every tuple.
#[test]
fn pruned_and_unpruned_graphs_are_identical_every_iteration() {
    let n = 72;
    let seed = 29;

    for disk in [false, true] {
        let make_backend = || -> Arc<dyn StorageBackend> {
            if disk {
                Arc::new(DiskBackend::temp("pruning_equivalence").expect("disk backend"))
            } else {
                Arc::new(MemBackend::new())
            }
        };
        let mut pruned =
            KnnEngine::new_on(config(n, seed, true), workload(n, seed), make_backend())
                .expect("pruned engine");
        let mut plain =
            KnnEngine::new_on(config(n, seed, false), workload(n, seed), make_backend())
                .expect("unpruned engine");

        let mut total_skipped = 0u64;
        for iteration in 0..4u32 {
            if iteration == 2 {
                for engine in [&mut pruned, &mut plain] {
                    engine
                        .queue_update(&ProfileDelta::set(UserId::new(3), ItemId::new(900), 4.0))
                        .expect("update");
                    engine
                        .queue_update(&ProfileDelta::replace(
                            UserId::new(11),
                            Profile::from_unsorted_pairs(vec![(1, 2.0), (7, 1.0)])
                                .expect("profile"),
                        ))
                        .expect("update");
                }
            }
            let rp = pruned.run_iteration().expect("pruned iteration");
            let ru = plain.run_iteration().expect("unpruned iteration");
            assert_eq!(
                pruned.graph(),
                plain.graph(),
                "backend={} iteration {iteration}: pruning changed the graph",
                if disk { "disk" } else { "mem" }
            );
            // Same candidate sets (identical graphs all along), so
            // every unpruned offer is either offered or suppressed by
            // the pruned run, and every tuple it keeps is either
            // computed or bound-pruned.
            assert_eq!(
                rp.tuples.offered + rp.sims_skipped,
                ru.tuples.offered,
                "iteration {iteration}: suppression does not cover the offers"
            );
            assert_eq!(
                rp.sims_computed + rp.sims_pruned,
                rp.tuples.unique,
                "iteration {iteration}: funnel does not cover the tuple set"
            );
            assert!(
                rp.tuples.unique <= ru.tuples.unique,
                "iteration {iteration}: suppression added tuples"
            );
            assert_eq!(ru.sims_skipped, 0, "unpruned run must not skip");
            assert_eq!(ru.sims_pruned, 0, "unpruned run must not prune");
            assert_eq!(ru.accums_seeded, 0, "unpruned run must not seed");
            if iteration == 0 {
                // No prior iteration: nothing to skip or seed. (The
                // bound filter may already prune — thresholds form as
                // the first iteration's accumulators fill.)
                assert_eq!(rp.sims_skipped, 0, "nothing skippable at iteration 0");
                assert_eq!(rp.accums_seeded, 0, "nothing seedable at iteration 0");
            }
            total_skipped += rp.sims_skipped;
        }
        assert!(
            total_skipped > 0,
            "backend={}: suppression never fired across 4 iterations",
            if disk { "disk" } else { "mem" }
        );

        for engine in [pruned, plain] {
            if let Some(wd) = engine.working_dir().cloned() {
                drop(engine);
                wd.destroy().expect("cleanup");
            }
        }
    }
}

/// This iteration's updates: six users (8 % of 72), derived from their
/// current profiles so that the scores involving them both rise and
/// fall — weights raised and lowered on items they rate, a fresh item
/// at a small weight, an item removed, one profile replaced by
/// another user's, and that user's own profile reweighted.
fn churn(profiles: &ProfileStore, iteration: u32) -> Vec<ProfileDelta> {
    let n = profiles.num_users() as u32;
    let user = |i: u32| UserId::new((iteration * 13 + i * 11) % n);
    let rated = |u: UserId| profiles.get(u).entries().first().copied();
    let mut deltas = Vec::new();
    for (i, factor) in [(0, 3.0f32), (1, 0.1)] {
        if let Some((item, weight)) = rated(user(i)) {
            deltas.push(ProfileDelta::set(user(i), item, weight * factor));
        }
    }
    deltas.push(ProfileDelta::set(
        user(2),
        ItemId::new(7_000 + iteration),
        0.05,
    ));
    if let Some((item, _)) = rated(user(3)) {
        deltas.push(ProfileDelta::remove(user(3), item));
    }
    deltas.push(ProfileDelta::replace(
        user(4),
        profiles.get(user(5)).clone(),
    ));
    let reweighted = profiles
        .get(user(5))
        .iter()
        .map(|(item, weight)| (item.raw(), weight * 0.5 + 0.25))
        .collect();
    deltas.push(ProfileDelta::replace(
        user(5),
        Profile::from_unsorted_pairs(reweighted).expect("profile"),
    ));
    deltas
}

/// Entries the seeding rule this suite replaced would have seeded:
/// every row of a clean user none of whose members is in `dirty`.
fn seeds_if_any_dirty_member_voids(engine: &KnnEngine, dirty: &HashSet<UserId>) -> u64 {
    let graph = engine.graph();
    (0..graph.num_vertices() as u32)
        .map(UserId::new)
        .filter(|u| !dirty.contains(u))
        .map(|u| graph.neighbors(u))
        .filter(|row| row.iter().all(|nb| !dirty.contains(&nb.id)))
        .map(|row| row.len() as u64)
        .sum()
}

/// Pruned vs. unpruned engines in lockstep under churn: updates to 8 %
/// of the users before every iteration, on both backends, with reverse
/// offers off and on, at 2 threads. The graphs agree at every
/// iteration, the funnel accounts for every offer and tuple, and the
/// pruned run seeds at least every row the all-members-clean rule
/// would — strictly more somewhere, so rows really kept their verdict
/// through an updated member.
#[test]
fn churn_every_iteration_keeps_pruned_and_unpruned_in_lockstep() {
    let n = 72;
    let seed = 29;
    for disk in [false, true] {
        for include_reverse in [false, true] {
            let label = format!(
                "backend={} include_reverse={include_reverse}",
                if disk { "disk" } else { "mem" }
            );
            let make = |prune: bool| {
                let backend: Arc<dyn StorageBackend> = if disk {
                    Arc::new(DiskBackend::temp("pruning_churn").expect("disk backend"))
                } else {
                    Arc::new(MemBackend::new())
                };
                let config = EngineConfig::builder(n)
                    .k(5)
                    .num_partitions(6)
                    .measure(Measure::Cosine)
                    .seed(seed)
                    .threads(2)
                    .include_reverse(include_reverse)
                    .prune_pairs(prune)
                    .bound_filter(prune)
                    .build()
                    .expect("config");
                KnnEngine::new_on(config, workload(n, seed), backend).expect("engine")
            };
            let (mut pruned, mut plain) = (make(true), make(false));

            let mut dirty: HashSet<UserId> = HashSet::new();
            let mut kept_beyond_old_rule = 0u64;
            for iteration in 0..5u32 {
                let old_rule = seeds_if_any_dirty_member_voids(&pruned, &dirty);
                let deltas = churn(&plain.export_profiles().expect("profiles"), iteration);
                for engine in [&mut pruned, &mut plain] {
                    for delta in &deltas {
                        engine.queue_update(delta).expect("update");
                    }
                }
                let rp = pruned.run_iteration().expect("pruned iteration");
                let ru = plain.run_iteration().expect("unpruned iteration");
                assert_eq!(
                    pruned.graph(),
                    plain.graph(),
                    "[{label}] iteration {iteration}: pruning changed the graph"
                );
                assert_eq!(
                    rp.tuples.offered + rp.sims_skipped,
                    ru.tuples.offered,
                    "[{label}] iteration {iteration}: suppression does not cover the offers"
                );
                assert_eq!(
                    rp.sims_computed + rp.sims_pruned,
                    rp.tuples.unique,
                    "[{label}] iteration {iteration}: funnel does not cover the tuple set"
                );
                assert_eq!(rp.updates_applied, deltas.len() as u64);
                if iteration > 0 {
                    assert!(
                        rp.accums_seeded >= old_rule,
                        "[{label}] iteration {iteration}: seeded {} < {old_rule}",
                        rp.accums_seeded
                    );
                    kept_beyond_old_rule += rp.accums_seeded - old_rule;
                }
                dirty = deltas.iter().map(|d| d.user).collect();
            }
            assert!(
                kept_beyond_old_rule > 0,
                "[{label}] no row kept its verdict through an updated member"
            );
            for engine in [pruned, plain] {
                if let Some(wd) = engine.working_dir().cloned() {
                    drop(engine);
                    wd.destroy().expect("cleanup");
                }
            }
        }
    }
}

/// A converged world, then one update: user `d` gains a fresh item at
/// a tiny weight. `d` is in some rows but nobody's k-th entry, with a
/// clear margin, so its fresh score keeps its place in every row that
/// holds it. Next iteration every row except `d`'s own is seeded —
/// one changed neighbour no longer voids a row's verdict — and the
/// graph still equals the unpruned run's.
#[test]
fn one_update_voids_only_the_updated_users_own_row() {
    let n = 96;
    let seed = 41;
    let mut pruned = KnnEngine::new_on(
        config(n, seed, true),
        workload(n, seed),
        Arc::new(MemBackend::new()),
    )
    .expect("pruned engine");
    let mut plain = KnnEngine::new_on(
        config(n, seed, false),
        workload(n, seed),
        Arc::new(MemBackend::new()),
    )
    .expect("unpruned engine");
    let mut reached = false;
    for _ in 0..20 {
        let change = pruned.run_iteration().expect("iteration").changed_fraction;
        plain.run_iteration().expect("iteration");
        if change == 0.0 {
            reached = true;
            break;
        }
    }
    assert!(reached, "static world did not reach a fixed point");
    assert_eq!(pruned.graph(), plain.graph());

    let graph = pruned.graph().clone();
    let rows_holding = |d: UserId| {
        (0..n as u32)
            .map(UserId::new)
            .map(|u| graph.neighbors(u))
            .filter(move |row| row.iter().any(|nb| nb.id == d))
    };
    let d = (0..n as u32)
        .map(UserId::new)
        .find(|&d| {
            rows_holding(d).count() > 0
                && rows_holding(d).all(|row| {
                    let mine = row.iter().find(|nb| nb.id == d).expect("member");
                    let kth = row.last().expect("non-empty");
                    kth.id != d && mine.sim - kth.sim > 0.05
                })
        })
        .expect("a member that is nobody's k-th entry");

    let delta = ProfileDelta::set(d, ItemId::new(1_000_000), 0.01);
    for engine in [&mut pruned, &mut plain] {
        engine.queue_update(&delta).expect("update");
        engine
            .run_iteration()
            .expect("iteration applying the update");
    }
    assert_eq!(pruned.graph(), plain.graph());
    let expected: u64 = (0..n as u32)
        .map(UserId::new)
        .filter(|&u| u != d)
        .map(|u| pruned.graph().neighbors(u).len() as u64)
        .sum();
    let report = pruned.run_iteration().expect("iteration after the update");
    plain.run_iteration().expect("iteration after the update");
    assert_eq!(
        report.accums_seeded, expected,
        "every row but user {d}'s stays seeded"
    );
    assert_eq!(pruned.graph(), plain.graph(), "pruning changed the graph");
}

/// Independent runs to convergence: the pruned engine takes the same
/// number of iterations and lands on the same converged graph as the
/// unpruned one, while doing strictly less kernel work in steady
/// state.
#[test]
fn converged_graph_matches_the_unpruned_run() {
    let n = 96;
    let seed = 41;
    let mut outcomes = Vec::new();
    for prune in [true, false] {
        let mut engine = KnnEngine::new_on(
            config(n, seed, prune),
            workload(n, seed),
            Arc::new(MemBackend::new()),
        )
        .expect("engine");
        let outcome = engine.run_until_converged(0.01, 25).expect("convergence");
        assert!(outcome.converged, "prune={prune} did not converge");
        let steady_computed: u64 = engine
            .reports()
            .iter()
            .skip(1)
            .map(|r| r.sims_computed)
            .sum();
        outcomes.push((
            outcome.iterations_run,
            engine.graph().clone(),
            steady_computed,
        ));
    }
    let (pruned_iters, pruned_graph, pruned_work) = &outcomes[0];
    let (plain_iters, plain_graph, plain_work) = &outcomes[1];
    assert_eq!(pruned_iters, plain_iters, "iteration counts diverged");
    assert_eq!(pruned_graph, plain_graph, "converged graphs diverged");
    assert!(
        pruned_work < plain_work,
        "pruning saved no steady-state work ({pruned_work} vs {plain_work})"
    );
}

/// The steady-state goal for phases 2 and 4: once a static world (no
/// updates) stops changing, the next iteration offers no tuple, runs
/// no kernel, loads no partition, reads and writes no phase-4 byte and
/// leaves the graph as it was.
#[test]
fn a_fixed_point_offers_nothing_and_loads_nothing() {
    let n = 96;
    let seed = 41;
    let mut engine = KnnEngine::new_on(
        config(n, seed, true),
        workload(n, seed),
        Arc::new(MemBackend::new()),
    )
    .expect("engine");
    let mut reached = false;
    for _ in 0..20 {
        if engine.run_iteration().expect("iteration").changed_fraction == 0.0 {
            reached = true;
            break;
        }
    }
    assert!(
        reached,
        "static world did not reach a fixed point in 20 iterations"
    );
    let before = engine.graph().clone();
    let report = engine.run_iteration().expect("fixed-point iteration");
    assert_eq!(report.tuples.offered, 0, "a fixed point offers no tuple");
    assert_eq!(report.sims_computed, 0, "a fixed point runs no kernel");
    assert_eq!(
        report.cache.total_ops(),
        0,
        "a fixed point loads no partition"
    );
    assert!(report.sims_skipped > 0, "every offer was suppressed");
    let phase4_io = report.phase_io[3];
    assert_eq!(
        (phase4_io.bytes_read, phase4_io.bytes_written),
        (0, 0),
        "a fixed point's phase 4 does no I/O"
    );
    assert_eq!(engine.graph(), &before, "a fixed point changed the graph");
}

/// The `KNN_TEST_PRUNE` escape hatch semantics the CI no-prune job
/// relies on: explicit builder toggles always beat the environment
/// default, so this suite means the same thing under any setting.
#[test]
fn explicit_toggles_override_environment() {
    let on = config(50, 1, true);
    let off = config(50, 1, false);
    assert!(on.prune_pairs() && on.bound_filter());
    assert!(!off.prune_pairs() && !off.bound_filter());
}
