//! Shared by the failure-contract suites: a storage backend whose
//! update-log appends fail on demand, the small world both suites
//! serve, and an engine selector so a contract can be run against
//! `spawn` and `spawn_sharded` alike.

#![allow(dead_code)] // each suite uses its own subset

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use knn_core::{EngineConfig, KnnEngine};
use knn_graph::UserId;
use knn_serve::{
    spawn, spawn_sharded, KnnService, RefineHandle, RefineOptions, ServeError, ShardedRefineHandle,
};
use knn_shard::ShardedEngine;
use knn_sim::generators::{clustered_profiles, ClusteredConfig};
use knn_sim::{Profile, ProfileStore};
use knn_store::{IoStats, MemBackend, StorageBackend, StoreError, StreamId};

pub const N: usize = 120;
pub const K: usize = 4;
pub const M: usize = 4;
pub const SEED: u64 = 2014;

/// The fault switch of one engine, shared by all of its backends: the
/// next armed `append_updates` fails whichever shard it lands on.
#[derive(Debug, Default)]
pub struct Faults {
    /// `>0`: fail that many `append_updates` calls, then heal.
    /// `<0`: fail every call until healed.
    fail_appends: AtomicI64,
    appends_failed: AtomicU64,
}

impl Faults {
    pub fn fail_next(&self, count: i64) {
        self.fail_appends.store(count, Ordering::SeqCst);
    }

    pub fn fail_all(&self) {
        self.fail_appends.store(-1, Ordering::SeqCst);
    }

    pub fn heal(&self) {
        self.fail_appends.store(0, Ordering::SeqCst);
    }

    pub fn failures(&self) -> u64 {
        self.appends_failed.load(Ordering::SeqCst)
    }

    fn should_fail(&self) -> bool {
        let mut armed = self.fail_appends.load(Ordering::SeqCst);
        loop {
            if armed == 0 {
                return false;
            }
            let next = if armed > 0 { armed - 1 } else { armed };
            match self.fail_appends.compare_exchange(
                armed,
                next,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    self.appends_failed.fetch_add(1, Ordering::SeqCst);
                    return true;
                }
                Err(current) => armed = current,
            }
        }
    }
}

/// Wraps a [`MemBackend`] and fails `append_updates` on demand — the
/// injection point is exactly the call `queue_update` uses to persist
/// a delta into the phase-5 log.
#[derive(Debug)]
struct FailingBackend {
    inner: MemBackend,
    faults: Arc<Faults>,
}

impl FailingBackend {
    fn shared(faults: &Arc<Faults>) -> Arc<dyn StorageBackend> {
        Arc::new(FailingBackend {
            inner: MemBackend::new(),
            faults: Arc::clone(faults),
        })
    }
}

impl StorageBackend for FailingBackend {
    fn name(&self) -> &'static str {
        "failing-mem"
    }

    fn stats(&self) -> &Arc<IoStats> {
        self.inner.stats()
    }

    fn read(&self, stream: StreamId) -> Result<Vec<u8>, StoreError> {
        self.inner.read(stream)
    }

    fn read_chunk(&self, stream: StreamId, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        self.inner.read_chunk(stream, offset, len)
    }

    fn write(&self, stream: StreamId, payload: &[u8]) -> Result<(), StoreError> {
        self.inner.write(stream, payload)
    }

    fn delete(&self, stream: StreamId) -> Result<(), StoreError> {
        self.inner.delete(stream)
    }

    fn exists(&self, stream: StreamId) -> bool {
        self.inner.exists(stream)
    }

    fn list(&self) -> Result<Vec<StreamId>, StoreError> {
        self.inner.list()
    }

    fn append_updates(&self, bytes: &[u8]) -> Result<(), StoreError> {
        if self.faults.should_fail() {
            return Err(StoreError::io(
                "updates.log",
                std::io::Error::other("injected append failure"),
            ));
        }
        self.inner.append_updates(bytes)
    }

    fn read_updates(&self) -> Result<Vec<u8>, StoreError> {
        self.inner.read_updates()
    }

    fn truncate_updates(&self) -> Result<(), StoreError> {
        self.inner.truncate_updates()
    }

    fn storage_usage(&self) -> Result<u64, StoreError> {
        self.inner.storage_usage()
    }
}

pub fn world() -> (EngineConfig, ProfileStore) {
    let (profiles, _) = clustered_profiles(
        ClusteredConfig::new(N, SEED)
            .with_clusters(4)
            .with_ratings(10, 2),
    );
    let config = EngineConfig::builder(N)
        .k(K)
        .num_partitions(M)
        .seed(SEED)
        .build()
        .expect("valid config");
    (config, profiles)
}

/// A profile over two items nothing else in the world rates, distinct
/// per `tag`.
pub fn fresh_profile(tag: u32) -> Profile {
    Profile::from_unsorted_pairs(vec![(900 + tag * 2, 1.0), (901 + tag * 2, 2.0)])
        .expect("finite profile")
}

/// The world on a single engine over one failing backend, and that
/// backend's fault switch.
pub fn failing_engine() -> (KnnEngine, Arc<Faults>) {
    let (config, profiles) = world();
    let faults = Arc::new(Faults::default());
    let engine = KnnEngine::new_on(config, profiles, FailingBackend::shared(&faults))
        .expect("engine on failing backend");
    (engine, faults)
}

/// The world on a sharded engine whose every shard is a failing
/// backend, all on one fault switch.
pub fn failing_sharded_engine(shards: usize) -> (ShardedEngine, Arc<Faults>) {
    let (config, profiles) = world();
    let faults = Arc::new(Faults::default());
    let backends = (0..shards)
        .map(|_| FailingBackend::shared(&faults))
        .collect();
    let engine = ShardedEngine::new_on(config, profiles, backends)
        .expect("sharded engine on failing backends");
    (engine, faults)
}

/// Whether `service` comes to show `user` holding exactly `expected`
/// within `timeout`.
pub fn wait_visible(
    service: &KnnService,
    user: UserId,
    expected: &Profile,
    timeout: Duration,
) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if service.snapshot().profiles().get(user) == expected {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// Which engine a contract serves: a `KnnEngine` through `spawn`, or a
/// two-shard `ShardedEngine` through `spawn_sharded`.
#[derive(Debug, Clone, Copy)]
pub enum FrontEnd {
    Single,
    Sharded,
}

pub const FRONT_ENDS: [FrontEnd; 2] = [FrontEnd::Single, FrontEnd::Sharded];

/// Either control handle.
pub enum Handle {
    Single(RefineHandle),
    Sharded(ShardedRefineHandle),
}

/// Serves the world on failing backends of `kind`'s engine.
pub fn spawn_failing(kind: FrontEnd, options: RefineOptions) -> (KnnService, Handle, Arc<Faults>) {
    match kind {
        FrontEnd::Single => {
            let (engine, faults) = failing_engine();
            let (service, handle) = spawn(engine, options).expect("spawn");
            (service, Handle::Single(handle), faults)
        }
        FrontEnd::Sharded => {
            let (engine, faults) = failing_sharded_engine(2);
            let (service, handle) = spawn_sharded(engine, options).expect("spawn_sharded");
            (service, Handle::Sharded(handle), faults)
        }
    }
}

impl Handle {
    /// Stops the loop and returns what the recovered engine holds as
    /// `P(t)`.
    pub fn stop(self) -> Result<ProfileStore, ServeError> {
        Ok(match self {
            Handle::Single(h) => h.stop()?.export_profiles()?,
            Handle::Sharded(h) => h.stop()?.export_profiles()?,
        })
    }
}
