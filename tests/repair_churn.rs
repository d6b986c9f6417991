//! Reconciliation contract of the fast-path repair worker, end to
//! end: repaired snapshots are a serving-side convenience that must
//! leave **no trace** in the engine — after reconciliation the graph
//! is bit-identical to a never-repaired twin's — and convergence
//! quality under churn must still clear the pinned recall floors.

use std::time::{Duration, Instant};

use ooc_knn::serve::{spawn, RefineOptions};
use ooc_knn::{
    brute_force_knn, recall_at_k, EngineConfig, KnnEngine, ProfileDelta, UserId, WorkloadConfig,
};

const N: usize = 400;
const K: usize = 10;
const SEED: u64 = 42;
const DONOR_SEED: u64 = 4242;

fn config() -> EngineConfig {
    let built = WorkloadConfig::recommender().build(N, SEED);
    EngineConfig::builder(N)
        .k(K)
        .num_partitions(8)
        .measure(built.measure)
        .threads(4)
        .seed(SEED)
        .build()
        .expect("config")
}

/// Deterministic churn: replace every 4th user's profile with the
/// same-id profile from an independently seeded build of the same
/// workload (keeps the world's statistics realistic).
fn churn_deltas() -> Vec<ProfileDelta> {
    let donor = WorkloadConfig::recommender().build(N, DONOR_SEED).profiles;
    (0..N as u32)
        .step_by(4)
        .map(|u| {
            let user = UserId::new(u);
            ProfileDelta::replace(user, donor.get(user).clone())
        })
        .collect()
}

/// Bit-identity after reconciliation: a served engine with repair on,
/// once its updates reconcile, must be indistinguishable from a twin
/// that received the same deltas through plain `queue_update` — at
/// every reconciling iteration and on every iteration after the last.
///
/// Deltas are submitted one at a time, each followed by a wait for
/// its exact (non-repaired) publish, so delta `i` deterministically
/// lands in iteration `i + 1` on both sides — the repaired epochs in
/// between are pure serving-side state that must leave no trace.
#[test]
fn reconciled_engine_is_bit_identical_to_never_repaired_twin() {
    let deltas: Vec<ProfileDelta> = churn_deltas().into_iter().take(12).collect();

    let built = WorkloadConfig::recommender().build(N, SEED);
    let engine = KnnEngine::in_memory(config(), built.profiles).expect("live engine");
    let (service, refine) = spawn(
        engine,
        RefineOptions {
            convergence_threshold: None,
            // Zero budgeted iterations: every iteration that runs is
            // an update-forced reconcile.
            max_iterations: Some(0),
            idle_park: Duration::from_millis(1),
            repair: true,
            ..RefineOptions::default()
        },
    )
    .expect("spawn");

    let built = WorkloadConfig::recommender().build(N, SEED);
    let mut twin = KnnEngine::in_memory(config(), built.profiles).expect("twin engine");

    for (i, delta) in deltas.iter().enumerate() {
        service.submit_update(delta.clone()).expect("accepted");
        // Wait for the exact reconciling publish of this delta.
        let deadline = Instant::now() + Duration::from_secs(120);
        let snapshot = loop {
            let snapshot = service.snapshot();
            if !snapshot.repaired() && snapshot.iteration() == (i + 1) as u64 {
                break snapshot;
            }
            assert!(
                Instant::now() < deadline,
                "delta {i} never reconciled (at iteration {}, repaired {})",
                snapshot.iteration(),
                snapshot.repaired()
            );
            std::thread::sleep(Duration::from_millis(1));
        };

        twin.queue_update(delta).expect("queued");
        twin.run_iteration().expect("twin reconcile");
        assert_eq!(
            snapshot.graph(),
            twin.graph(),
            "served exact graph diverged from the twin at iteration {}",
            i + 1
        );
    }
    assert!(
        service.stats().repaired_epochs >= deltas.len() as u64,
        "the repair worker never published"
    );

    let mut live = refine.stop().expect("stop");
    assert_eq!(live.iteration(), deltas.len() as u64);
    assert_eq!(
        live.graph(),
        twin.graph(),
        "repair left a trace in the engine graph"
    );
    assert_eq!(
        live.export_profiles().expect("live export"),
        twin.export_profiles().expect("twin export"),
        "repair left a trace in the engine profiles"
    );

    // And the histories never diverge afterwards.
    for step in 0..3 {
        live.run_iteration().expect("live iteration");
        twin.run_iteration().expect("twin iteration");
        assert_eq!(
            live.graph(),
            twin.graph(),
            "graphs diverged {} iterations after reconciliation",
            step + 1
        );
    }
}

/// Convergence under churn: updates streamed *while* the loop
/// iterates (repair on) must not degrade final quality — the served
/// graph equals the engine's, and recall against brute force on the
/// post-churn profiles clears the pinned floor.
#[test]
fn converges_to_recall_floor_under_churn() {
    let deltas = churn_deltas();
    let total = deltas.len() as u64;

    let built = WorkloadConfig::recommender().build(N, SEED);
    let engine = KnnEngine::in_memory(config(), built.profiles).expect("engine");
    let (service, refine) = spawn(
        engine,
        RefineOptions {
            convergence_threshold: Some(0.01),
            max_iterations: None,
            idle_park: Duration::from_millis(1),
            repair: true,
            ..RefineOptions::default()
        },
    )
    .expect("spawn");

    // Stream the churn while refinement runs.
    for (i, delta) in deltas.iter().enumerate() {
        service.submit_update(delta.clone()).expect("accepted");
        if i % 10 == 9 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    // Converged *after* absorbing all churn: every submitted delta
    // drained, and the latest snapshot is an exact post-churn
    // generation below the convergence threshold.
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let stats = service.stats();
        let snapshot = service.snapshot();
        if stats.updates_drained == total
            && !snapshot.repaired()
            && snapshot.changed_fraction() < 0.01
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "never converged after churn (drained {}/{total}, repaired {}, change {:.4})",
            stats.updates_drained,
            snapshot.repaired(),
            snapshot.changed_fraction()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let final_snapshot = service.snapshot();
    let engine = refine.stop().expect("stop");
    // The served exact view is the engine's view.
    assert_eq!(
        final_snapshot.graph(),
        engine.graph(),
        "served graph diverged from the engine"
    );

    // Quality floor on the *post-churn* world (same floor as the
    // offline recall regression for this workload).
    let final_profiles = engine.export_profiles().expect("export");
    let truth = brute_force_knn(&final_profiles, &built.measure, K, 4);
    let report = recall_at_k(engine.graph(), &truth);
    eprintln!(
        "churn recall: mean {:.4} min {:.4} ({} perfect / {} measured)",
        report.mean_recall, report.min_recall, report.perfect_users, report.users_measured
    );
    assert!(
        report.mean_recall >= 0.93,
        "mean recall@{K} under churn regressed to {:.4} (floor 0.93)",
        report.mean_recall
    );
    assert!(
        report.min_recall >= 0.80,
        "min recall@{K} under churn regressed to {:.4} (floor 0.80)",
        report.min_recall
    );
}
