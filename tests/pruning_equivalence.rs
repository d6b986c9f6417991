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
//!   loads no partition.

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
/// no kernel, loads no partition and leaves the graph as it was.
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
