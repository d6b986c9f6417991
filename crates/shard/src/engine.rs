//! The sharded driver: the unmodified engine over a shard router.

use std::fmt;
use std::sync::Arc;

use knn_core::metrics::IterationReport;
use knn_core::{EngineConfig, EngineError, KnnEngine};
use knn_graph::{KnnGraph, UserId};
use knn_sim::{Profile, ProfileDelta, ProfileStore};
use knn_store::{IoSnapshot, MemBackend, StorageBackend};

use crate::router::ShardRouter;

/// One sharded iteration's report: the engine-level
/// [`IterationReport`] (its I/O brackets already summed across
/// shards), plus the per-shard breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedIterationReport {
    /// The aggregate report — field for field what a single-process
    /// run of the same world reports (durations aside).
    pub report: IterationReport,
    /// This iteration's I/O delta per shard backend, in shard order.
    pub per_shard_io: Vec<IoSnapshot>,
    /// Always zero: shards exchange nothing, every stream is written
    /// to its owner directly. Kept only because the benchmark under
    /// `e2e/` still reads it.
    pub exchange: ExchangeStats,
}

/// Cross-shard exchange volume, which is always zero (see
/// [`ShardedIterationReport::exchange`]). Kept only because the
/// benchmark under `e2e/` still reads its fields.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Payloads moved between shards.
    pub payloads: u64,
    /// Tuples moved between shards.
    pub tuples: u64,
    /// Bytes moved between shards.
    pub bytes: u64,
}

/// The sharded engine: the unmodified five-phase [`KnnEngine`] over a
/// [`ShardRouter`], which stores every stream on its owning shard.
/// Sharding is placement only — every phase writes its streams
/// through the router.
///
/// The determinism contract extends to shard count: graphs, persisted
/// stream bytes (each on its owning shard), [`IterationReport`]s, and
/// summed I/O meters are identical for every shard count ≥ 1 — pinned
/// by the `shard_equivalence` suite.
pub struct ShardedEngine {
    inner: KnnEngine,
    router: Arc<ShardRouter>,
    reports: Vec<ShardedIterationReport>,
}

impl fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("num_shards", &self.num_shards())
            .field("inner", &self.inner)
            .finish()
    }
}

impl ShardedEngine {
    /// The shared constructor step: builds the router and opens the
    /// inner engine over it via `open`.
    fn assemble(
        shards: Vec<Arc<dyn StorageBackend>>,
        open: impl FnOnce(Arc<dyn StorageBackend>) -> Result<KnnEngine, EngineError>,
    ) -> Result<Self, EngineError> {
        if shards.is_empty() {
            return Err(EngineError::input(
                "a sharded engine needs at least one shard",
            ));
        }
        let router = Arc::new(ShardRouter::new(shards));
        let inner = open(Arc::clone(&router) as Arc<dyn StorageBackend>)?;
        Ok(ShardedEngine {
            inner,
            router,
            reports: Vec::new(),
        })
    }

    /// Creates a sharded engine over the given shard backends with an
    /// explicit initial graph. One backend per shard; a single backend
    /// degenerates to the plain engine (and is what the equivalence
    /// suite compares against).
    ///
    /// # Errors
    ///
    /// Everything [`KnnEngine::with_initial_graph_on`] rejects, plus an
    /// input error for zero shards.
    pub fn with_initial_graph_on(
        config: EngineConfig,
        graph: KnnGraph,
        profiles: ProfileStore,
        shards: Vec<Arc<dyn StorageBackend>>,
    ) -> Result<Self, EngineError> {
        Self::assemble(shards, |router| {
            KnnEngine::with_initial_graph_on(config, graph, profiles, router)
        })
    }

    /// Reopens a sharded engine from shard backends previously
    /// populated by a sharded constructor **with the same shard
    /// count** (stream placement is a pure function of the ring). Crash
    /// recovery runs first — through the router, so every shard's
    /// streams converge to the
    /// common committed generation before any state is trusted (the
    /// commit record lives on shard 0; each staged backup lives with
    /// its target's owner).
    ///
    /// # Errors
    ///
    /// Same as [`KnnEngine::resume_on`], plus an input error for zero
    /// shards.
    pub fn resume_on(
        config: EngineConfig,
        shards: Vec<Arc<dyn StorageBackend>>,
    ) -> Result<Self, EngineError> {
        Self::assemble(shards, |router| KnnEngine::resume_on(config, router))
    }

    /// Constructor over explicit shard backends with the initial graph
    /// of [`KnnEngine::new_on`].
    ///
    /// # Errors
    ///
    /// Same as [`ShardedEngine::with_initial_graph_on`].
    pub fn new_on(
        config: EngineConfig,
        profiles: ProfileStore,
        shards: Vec<Arc<dyn StorageBackend>>,
    ) -> Result<Self, EngineError> {
        Self::assemble(shards, |router| KnnEngine::new_on(config, profiles, router))
    }

    /// A fully in-memory sharded engine: `num_shards` [`MemBackend`]s.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedEngine::with_initial_graph_on`].
    pub fn in_memory(
        config: EngineConfig,
        profiles: ProfileStore,
        num_shards: usize,
    ) -> Result<Self, EngineError> {
        let shards = (0..num_shards)
            .map(|_| Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>)
            .collect();
        Self::new_on(config, profiles, shards)
    }

    /// Runs one five-phase iteration across the shards.
    ///
    /// # Errors
    ///
    /// Same as [`KnnEngine::run_iteration`].
    pub fn run_iteration(&mut self) -> Result<ShardedIterationReport, EngineError> {
        let before: Vec<IoSnapshot> = self.shards().iter().map(|s| s.io_snapshot()).collect();
        let report = self.inner.run_iteration()?;
        let per_shard_io = self
            .shards()
            .iter()
            .zip(before)
            .map(|(s, b)| s.io_snapshot() - b)
            .collect();
        let sharded = ShardedIterationReport {
            report,
            per_shard_io,
            exchange: ExchangeStats::default(),
        };
        self.reports.push(sharded.clone());
        Ok(sharded)
    }

    /// Queues a profile update; the router lands it on its user's
    /// owner shard's durable log.
    ///
    /// # Errors
    ///
    /// Same as [`KnnEngine::queue_update`].
    pub fn queue_update(&mut self, delta: &ProfileDelta) -> Result<(), EngineError> {
        self.inner.queue_update(delta)
    }

    /// The current KNN graph `G(t)`.
    pub fn graph(&self) -> &KnnGraph {
        self.inner.graph()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        self.inner.config()
    }

    /// The current iteration index `t`.
    pub fn iteration(&self) -> u64 {
        self.inner.iteration()
    }

    /// Reports of every completed iteration, shard breakdown included.
    pub fn reports(&self) -> &[ShardedIterationReport] {
        &self.reports
    }

    /// Cumulative I/O summed across every shard meter and the router.
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.inner.io_snapshot()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards().len()
    }

    /// The shard backends, in shard order.
    pub fn shards(&self) -> &[Arc<dyn StorageBackend>] {
        self.router.shards()
    }

    /// The routing façade the inner engine runs against.
    pub fn router(&self) -> &Arc<ShardRouter> {
        &self.router
    }

    /// The inner single-driver engine (read-only).
    pub fn inner(&self) -> &KnnEngine {
        &self.inner
    }

    /// What crash recovery found when this engine was resumed (see
    /// [`KnnEngine::recovery_report`]).
    pub fn recovery_report(&self) -> Option<&knn_store::RecoveryReport> {
        self.inner.recovery_report()
    }

    /// Scrubs the persisted state across all shards (see
    /// [`KnnEngine::verify`] — the checks run through the router, so
    /// every stream is read from its owning shard).
    ///
    /// # Errors
    ///
    /// Same as [`KnnEngine::verify`].
    pub fn verify(&self) -> Result<knn_core::ScrubReport, EngineError> {
        self.inner.verify()
    }

    /// Materializes the stored profile set `P(t)` (see
    /// [`KnnEngine::export_profiles`]).
    ///
    /// # Errors
    ///
    /// Same as [`KnnEngine::export_profiles`].
    pub fn export_profiles(&self) -> Result<ProfileStore, EngineError> {
        self.inner.export_profiles()
    }

    /// Reads one user's current stored profile.
    ///
    /// # Errors
    ///
    /// Same as [`KnnEngine::profile_of`].
    pub fn profile_of(&self, user: UserId) -> Result<Profile, EngineError> {
        self.inner.profile_of(user)
    }

    /// Number of updates currently queued across all shard logs.
    ///
    /// # Errors
    ///
    /// Same as [`KnnEngine::pending_updates`].
    pub fn pending_updates(&self) -> Result<usize, EngineError> {
        self.inner.pending_updates()
    }
}
