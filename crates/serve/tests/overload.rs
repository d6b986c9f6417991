//! Overload-path fault injection: admission control, backpressure,
//! the durable-path circuit breaker, and query-cache correctness.
//!
//! The contract under saturation: pending ingest depth never exceeds
//! the configured capacity, every failure is a typed [`ServeError`],
//! nothing panics or spins unbounded, and an update accepted with `Ok`
//! keeps the full durability guarantee.

mod common;

use std::time::{Duration, Instant};

use common::{
    failing_engine, fresh_profile, spawn_failing, wait_visible, world, FRONT_ENDS, K, N, SEED,
};
use knn_core::{EngineConfig, KnnEngine};
use knn_graph::UserId;
use knn_serve::{spawn, AdmissionConfig, BreakerConfig, OverloadPolicy, RefineOptions, ServeError};
use knn_sim::generators::{clustered_profiles, ClusteredConfig};
use knn_sim::{Profile, ProfileDelta, ProfileStore};
use proptest::prelude::*;

fn options() -> RefineOptions {
    RefineOptions {
        convergence_threshold: None,
        max_iterations: None,
        idle_park: Duration::from_millis(1),
        repair: false,
        ..RefineOptions::default()
    }
}

/// Wedged backend + bounded admission: the breaker opens, drain stops,
/// the queue fills to capacity and **stays** there — overflow submits
/// fail with typed [`ServeError::Overloaded`], never more than
/// `capacity` deltas pend, and after healing every *accepted* update
/// is applied (durability unchanged by admission control).
#[test]
fn wedged_backend_turns_into_bounded_typed_backpressure() {
    const CAPACITY: usize = 8;
    let (engine, backend) = failing_engine();
    let (service, refine) = spawn(
        engine,
        RefineOptions {
            // Distinct users and Set ops: shedding cannot free space,
            // so the capacity bound is exercised exactly.
            admission: AdmissionConfig::bounded(CAPACITY),
            breaker: BreakerConfig {
                base: Duration::from_millis(50),
                cap: Duration::from_millis(200),
            },
            ..options()
        },
    )
    .expect("spawn");

    backend.fail_all();
    // Provoke a failing drain pass so the breaker opens and the queue
    // stops draining.
    service
        .submit_update(ProfileDelta::replace(UserId::new(0), fresh_profile(0)))
        .expect("first update accepted");
    let opened = Instant::now();
    while !service.stats().breaker_open {
        assert!(
            opened.elapsed() < Duration::from_secs(10),
            "breaker must open on a wedged backend"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Storm distinct users until the queue is full, then expect typed
    // rejection. Accepted count is bounded by capacity.
    let mut accepted = vec![UserId::new(0)];
    let mut rejected = 0u64;
    for u in 1..N as u32 {
        match service.submit_update(ProfileDelta::replace(UserId::new(u), fresh_profile(u))) {
            Ok(()) => accepted.push(UserId::new(u)),
            Err(ServeError::Overloaded { retry_after_hint }) => {
                assert!(retry_after_hint > Duration::ZERO);
                rejected += 1;
            }
            Err(other) => panic!("only Overloaded is expected, got {other:?}"),
        }
    }
    assert!(
        rejected > 0,
        "the storm must overflow a capacity of {CAPACITY}"
    );
    let stats = service.stats();
    assert_eq!(stats.rejected, rejected);
    assert!(
        stats.peak_pending <= CAPACITY as u64,
        "pending depth {} exceeded capacity {CAPACITY}",
        stats.peak_pending
    );
    // Accepted at most: capacity pending + whatever the first pass
    // moved to the parked set before the breaker opened.
    assert!(accepted.len() <= CAPACITY + 1);

    // Heal: every accepted update must become visible.
    backend.heal();
    let deadline = Instant::now() + Duration::from_secs(30);
    for &user in &accepted {
        let expected = fresh_profile(user.index() as u32);
        loop {
            if service.snapshot().profiles().get(user) == &expected {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "accepted update for {user} never became visible"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let stats = service.stats();
    assert!(!stats.breaker_open, "breaker closes once the backend heals");
    assert!(stats.breaker_open_ms > 0, "open time is accounted");
    refine.stop().expect("clean stop after heal");
}

/// The breaker rate-limits attempts against a wedged backend: in a
/// fixed window the backend sees a bounded number of `append_updates`
/// calls, not one per loop pass (the loop runs ~1000 passes/s at
/// `idle_park` = 1ms — unthrottled it would hammer hundreds of
/// attempts through).
#[test]
fn breaker_throttles_a_flapping_backend() {
    for kind in FRONT_ENDS {
        let (service, refine, backend) = spawn_failing(
            kind,
            RefineOptions {
                admission: AdmissionConfig::bounded(4),
                breaker: BreakerConfig {
                    base: Duration::from_millis(25),
                    cap: Duration::from_millis(100),
                },
                ..options()
            },
        );

        backend.fail_all();
        service
            .submit_update(ProfileDelta::replace(UserId::new(7), fresh_profile(7)))
            .expect("accepted");
        std::thread::sleep(Duration::from_millis(400));
        let failures = backend.failures();
        // 400ms at base 25ms/cap 100ms: ~6-8 backoff windows; leave
        // slack for scheduling but stay far below the unthrottled ~400.
        assert!(
            failures <= 40,
            "{kind:?}: breaker must throttle attempts, backend saw {failures}"
        );
        assert!(service.stats().breaker_open_ms > 0, "{kind:?}");

        backend.heal();
        assert!(
            wait_visible(
                &service,
                UserId::new(7),
                &fresh_profile(7),
                Duration::from_secs(30)
            ),
            "{kind:?}: update lost after heal"
        );
        refine.stop().expect("clean stop");
    }
}

/// [`OverloadPolicy::Block`] applies backpressure to the submitting
/// thread instead of its retry loop: a storm from one thread against a
/// tiny queue all lands (the drain side keeps freeing space within the
/// blocking deadline) with zero rejections and the depth bound intact.
#[test]
fn block_policy_absorbs_a_storm_within_deadline() {
    const CAPACITY: usize = 2;
    let (config, profiles) = world();
    let engine = KnnEngine::in_memory(config, profiles).expect("engine");
    let (service, refine) = spawn(
        engine,
        RefineOptions {
            admission: AdmissionConfig::bounded(CAPACITY).with_policy(OverloadPolicy::Block {
                deadline: Duration::from_secs(30),
            }),
            ..options()
        },
    )
    .expect("spawn");

    for u in 0..40u32 {
        service
            .submit_update(ProfileDelta::replace(UserId::new(u % 20), fresh_profile(u)))
            .expect("block policy admits within deadline");
    }
    let stats = service.stats();
    assert_eq!(stats.rejected, 0);
    assert!(stats.peak_pending <= CAPACITY as u64);
    refine.stop().expect("clean stop");
}

/// A client honoring `retry_after_hint` converges once capacity frees:
/// the typed error carries enough to build a well-behaved retry loop.
#[test]
fn overloaded_retry_hint_converges_after_heal() {
    let (engine, backend) = failing_engine();
    let (service, refine) = spawn(
        engine,
        RefineOptions {
            admission: AdmissionConfig::bounded(2),
            breaker: BreakerConfig {
                base: Duration::from_millis(10),
                cap: Duration::from_millis(50),
            },
            ..options()
        },
    )
    .expect("spawn");

    backend.fail_all();
    // Fill past capacity with distinct users so later submits reject.
    let mut saw_overloaded = false;
    for u in 0..10u32 {
        if service
            .submit_update(ProfileDelta::replace(UserId::new(u), fresh_profile(u)))
            .is_err()
        {
            saw_overloaded = true;
        }
    }
    assert!(saw_overloaded, "capacity 2 must overflow");

    // Heal mid-storm; a retrying client must eventually get through.
    backend.heal();
    let target = ProfileDelta::replace(UserId::new(100), fresh_profile(100));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match service.submit_update(target.clone()) {
            Ok(()) => break,
            Err(ServeError::Overloaded { retry_after_hint }) => {
                assert!(Instant::now() < deadline, "retry loop never converged");
                std::thread::sleep(retry_after_hint);
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    let expected = fresh_profile(100);
    while service.snapshot().profiles().get(UserId::new(100)) != &expected {
        assert!(Instant::now() < deadline, "retried update never applied");
        std::thread::sleep(Duration::from_millis(2));
    }
    refine.stop().expect("clean stop");
}

/// Determinism pin for the overload counters: a clean, unbounded,
/// healthy run keeps the entire overload surface at zero — the
/// counters only move when overload machinery actually engages, on
/// any thread count.
#[test]
fn clean_run_pins_overload_counters_at_zero() {
    let (config, profiles) = world();
    let engine = KnnEngine::in_memory(config, profiles).expect("engine");
    let (service, refine) = spawn(engine, options()).expect("spawn");

    for u in 0..8u32 {
        service
            .submit_update(ProfileDelta::replace(UserId::new(u), fresh_profile(u)))
            .expect("accepted");
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    for u in 0..8u32 {
        let expected = fresh_profile(u);
        while service.snapshot().profiles().get(UserId::new(u)) != &expected {
            assert!(Instant::now() < deadline, "update never visible");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let stats = service.stats();
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.coalesced, 0);
    assert!(!stats.breaker_open);
    assert_eq!(stats.breaker_open_ms, 0);
    assert_eq!(stats.queue_failures, 0);
    assert!(stats.peak_pending <= 8);
    refine.stop().expect("clean stop");
}

/// Cache accounting on a frozen snapshot: every query is either a hit
/// or a miss, and a repeat of the same query on the same generation is
/// a hit returning the identical answer.
#[test]
fn cache_counters_account_for_every_cached_query() {
    let (config, profiles) = world();
    let engine = KnnEngine::in_memory(config, profiles).expect("engine");
    let (service, refine) = spawn(
        engine,
        RefineOptions {
            // Freeze at epoch 0: no iterations without updates, so the
            // generation — and with it the cache — is stable.
            max_iterations: Some(0),
            ..options()
        },
    )
    .expect("spawn");

    let first = service.neighbors(UserId::new(3)).expect("query");
    let second = service.neighbors(UserId::new(3)).expect("query");
    assert_eq!(first, second);
    let q = fresh_profile(9);
    let scan_first = service.query_profile(&q, K).expect("scan");
    let scan_second = service.query_profile(&q, K).expect("scan");
    assert_eq!(scan_first, scan_second);

    let stats = service.stats();
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        4,
        "every cached-path query is accounted exactly once"
    );
    assert_eq!(stats.cache_hits, 2, "both repeats hit on a frozen epoch");
    refine.stop().expect("clean stop");
}

fn small_world(n: usize) -> (EngineConfig, ProfileStore) {
    let (profiles, _) = clustered_profiles(
        ClusteredConfig::new(n, SEED)
            .with_clusters(3)
            .with_ratings(8, 2),
    );
    let config = EngineConfig::builder(n)
        .k(3)
        .num_partitions(2)
        .seed(SEED)
        .build()
        .expect("valid config");
    (config, profiles)
}

fn assert_bit_identical(a: &[knn_graph::Neighbor], b: &[knn_graph::Neighbor]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id);
        assert_eq!(
            x.sim.to_bits(),
            y.sim.to_bits(),
            "cached answers must be bit-identical"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cache hits are bit-identical to uncached answers, across a
    /// snapshot swap: for arbitrary queries and arbitrary updates, the
    /// cached repeat equals both the first (uncached) answer and a
    /// recomputation on the held snapshot — before and after the swap.
    #[test]
    fn cache_hits_bit_identical_across_swaps(
        user in 0u32..60,
        k in 1usize..5,
        items in proptest::collection::vec((0u32..40, 1u32..50), 1..4),
        updates in proptest::collection::vec((0u32..60, 40u32..80, 1u32..50), 1..5),
    ) {
        let (config, profiles) = small_world(60);
        let engine = KnnEngine::in_memory(config, profiles).expect("engine");
        let (service, refine) = spawn(
            engine,
            RefineOptions {
                max_iterations: Some(0),
                ..options()
            },
        )
        .expect("spawn");

        let query = Profile::from_unsorted_pairs(
            items.iter().map(|&(i, w)| (i, w as f32 * 0.25)).collect::<Vec<_>>(),
        )
        .expect("finite query");

        // Epoch 0: miss then hit, both equal the snapshot's own answer.
        let held = service.snapshot();
        let uncached = service.neighbors(UserId::new(user)).expect("neighbors");
        let cached = service.neighbors(UserId::new(user)).expect("neighbors");
        assert_bit_identical(&uncached, &cached);
        assert_bit_identical(&cached, held.neighbors(UserId::new(user)).expect("held"));
        let scan_uncached = service.query_profile(&query, k).expect("scan");
        let scan_cached = service.query_profile(&query, k).expect("scan");
        assert_bit_identical(&scan_uncached, &scan_cached);
        assert_bit_identical(&scan_cached, &held.scan_top_k(&query, k));

        // Force a swap: streamed updates outrank the iteration cap.
        for &(u, item, w) in &updates {
            service
                .submit_update(ProfileDelta::set(
                    UserId::new(u),
                    knn_sim::ItemId::new(item),
                    w as f32 * 0.5,
                ))
                .expect("accepted");
        }
        prop_assert!(
            refine.wait_for_epoch(1, Duration::from_secs(30)),
            "updates must force a publish past the iteration cap"
        );

        // Post-swap: the old entries are invalid; miss-then-hit again
        // must match the *new* snapshot bit-for-bit.
        let fresh = service.snapshot();
        prop_assert!(fresh.generation() > held.generation());
        let uncached = service.neighbors(UserId::new(user)).expect("neighbors");
        let cached = service.neighbors(UserId::new(user)).expect("neighbors");
        assert_bit_identical(&uncached, &cached);
        assert_bit_identical(&cached, fresh.neighbors(UserId::new(user)).expect("fresh"));
        let scan_uncached = service.query_profile(&query, k).expect("scan");
        let scan_cached = service.query_profile(&query, k).expect("scan");
        assert_bit_identical(&scan_uncached, &scan_cached);
        assert_bit_identical(&scan_cached, &fresh.scan_top_k(&query, k));

        refine.stop().expect("clean stop");
    }
}
