//! The sharded driver: N single-process engine shards, one answer.

use std::fmt;
use std::sync::{Arc, Mutex};

use knn_core::metrics::IterationReport;
use knn_core::phase2::{self, Phase2Options, Phase2Output};
use knn_core::tuple_table::{
    merge_parts_with_exchange, BucketMeta, ExchangeSource, TupleTableStats,
};
use knn_core::{EngineConfig, EngineError, KnnEngine, Partitioning, Phase2Provider, PiGraph};
use knn_graph::{EdgeAdditions, KnnGraph, UserId};
use knn_sim::{Profile, ProfileDelta, ProfileStore};
use knn_store::{IoSnapshot, MemBackend, StorageBackend, StreamId};

use crate::fabric::{ChannelFabric, ExchangeFabric, ExchangeStats};
use crate::ring::HashRing;
use crate::router::ShardRouter;

/// One sharded iteration's report: the engine-level
/// [`IterationReport`] (its I/O brackets already summed across
/// shards), plus the per-shard breakdown and the exchange volume.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedIterationReport {
    /// The aggregate report — field for field what a single-process
    /// run of the same world reports (durations aside).
    pub report: IterationReport,
    /// This iteration's I/O delta per shard backend, in shard order.
    pub per_shard_io: Vec<IoSnapshot>,
    /// This iteration's I/O delta on the router's own meter (events
    /// recorded against the routing façade, e.g. phase-4 partition
    /// loads).
    pub router_io: IoSnapshot,
    /// Cross-shard tuple-exchange volume of this iteration.
    pub exchange: ExchangeStats,
}

/// The phase-2 override installed into the inner engine: scan each
/// shard's partitions on that shard's backend, ship foreign buckets
/// over the fabric, merge (local parts + received exchange runs) at
/// each bucket's owner, and stitch the per-shard outputs into one
/// [`Phase2Output`].
struct ShardedPhase2 {
    shards: Vec<Arc<dyn StorageBackend>>,
    ring: Arc<HashRing>,
    fabric: Arc<dyn ExchangeFabric>,
    /// Overwritten each iteration with that iteration's volume; read
    /// by [`ShardedEngine::run_iteration`].
    exchange: Arc<Mutex<ExchangeStats>>,
}

impl Phase2Provider for ShardedPhase2 {
    fn generate_tuples(
        &mut self,
        partitioning: &Partitioning,
        options: &Phase2Options,
        additions: Option<&EdgeAdditions>,
    ) -> Result<Phase2Output, EngineError> {
        let m = partitioning.num_partitions();
        let num_shards = self.shards.len();
        let mut owned: Vec<Vec<u32>> = vec![Vec::new(); num_shards];
        for p in 0..m as u32 {
            owned[self.ring.owner_of_partition(p) as usize].push(p);
        }
        for shard in &self.shards {
            shard.clear_tuples()?;
        }

        // Scan half: each shard scans its own partitions against its
        // own backend, peels off the buckets it does not own, and
        // ships them. Shards run in shard order and payloads leave in
        // deterministic extraction order, so arrival order at every
        // destination — which names the exchange streams — is a pure
        // function of the world, not of timing.
        let mut volume = ExchangeStats::default();
        let mut per_shard_parts = Vec::with_capacity(num_shards);
        for (s, owned_partitions) in owned.iter().enumerate() {
            let backend = self.shards[s].as_ref();
            let mut parts =
                phase2::scan_tables(partitioning, backend, options, additions, owned_partitions)?;
            let ring = &self.ring;
            let payloads = knn_core::tuple_table::extract_foreign_payloads(
                backend,
                partitioning,
                &mut parts,
                |key| ring.owner_of_partition(key.0) as usize == s,
            )?;
            for payload in payloads {
                let to = self.ring.owner_of_partition(payload.bucket.0);
                volume.record(&payload);
                self.fabric.send(to, payload);
            }
            per_shard_parts.push(parts);
        }

        // Merge half: every send above has completed (the loop is the
        // barrier), so each shard drains its inbox, persists the
        // foreign runs as exchange streams, and merges them alongside
        // its local parts.
        let mut pi = PiGraph::new(m);
        let mut stats = TupleTableStats::default();
        let mut tuple_meta = BucketMeta::default();
        for (s, parts) in per_shard_parts.into_iter().enumerate() {
            let backend = self.shards[s].as_ref();
            let mut sources = Vec::new();
            for (seq, payload) in self.fabric.drain(s as u32).into_iter().enumerate() {
                let seq = seq as u32;
                backend.write(
                    StreamId::ExchangeRun(payload.bucket.0, payload.bucket.1, seq),
                    &payload.bytes,
                )?;
                sources.push(ExchangeSource {
                    bucket: payload.bucket,
                    seq,
                    from_spill: payload.from_spill,
                });
            }
            let (pi_s, stats_s, meta_s) =
                merge_parts_with_exchange(backend, partitioning, parts, options.threads, sources)?;
            for ((i, j), weight) in pi_s.iter_buckets() {
                pi.add_bucket(i, j, weight);
            }
            stats.offered += stats_s.offered;
            stats.unique += stats_s.unique;
            stats.spills += stats_s.spills;
            tuple_meta.absorb(meta_s);
        }
        // Per-shard duplicate counts are partial under exchange (see
        // `merge_parts_with_exchange`); the global number is exact.
        stats.duplicates = stats.offered - stats.unique;

        *self.exchange.lock().expect("exchange stats poisoned") = volume;
        Ok(Phase2Output {
            pi,
            stats,
            tuple_meta,
        })
    }
}

/// The sharded engine: consistent-hashes the world across N shard
/// backends and drives the unmodified five-phase loop over a
/// [`ShardRouter`], with phase 2 swapped for the scan–exchange–merge
/// pipeline above.
///
/// The determinism contract extends to shard count: graphs, persisted
/// stream bytes (each on its owning shard), [`IterationReport`]s, and
/// summed I/O meters are identical for every shard count ≥ 1 — pinned
/// by the `shard_equivalence` suite.
pub struct ShardedEngine {
    inner: KnnEngine,
    shards: Vec<Arc<dyn StorageBackend>>,
    router: Arc<ShardRouter>,
    exchange: Arc<Mutex<ExchangeStats>>,
    reports: Vec<ShardedIterationReport>,
}

impl fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("num_shards", &self.shards.len())
            .field("inner", &self.inner)
            .finish()
    }
}

impl ShardedEngine {
    /// The shared constructor step: builds the ring and router, opens
    /// the inner engine over the router via `open`, and wires in the
    /// scan–exchange–merge phase 2 and the summed I/O meter.
    fn assemble(
        shards: Vec<Arc<dyn StorageBackend>>,
        open: impl FnOnce(Arc<dyn StorageBackend>) -> Result<KnnEngine, EngineError>,
    ) -> Result<Self, EngineError> {
        if shards.is_empty() {
            return Err(EngineError::input(
                "a sharded engine needs at least one shard",
            ));
        }
        let ring = Arc::new(HashRing::new(shards.len()));
        let router = Arc::new(ShardRouter::new(shards.clone(), Arc::clone(&ring)));
        let mut inner = open(Arc::clone(&router) as Arc<dyn StorageBackend>)?;

        let exchange = Arc::new(Mutex::new(ExchangeStats::default()));
        let fabric: Arc<dyn ExchangeFabric> = Arc::new(ChannelFabric::new(shards.len()));
        inner.set_phase2_provider(Some(Box::new(ShardedPhase2 {
            shards: shards.clone(),
            ring,
            fabric,
            exchange: Arc::clone(&exchange),
        })));

        // The report brackets must see iteration I/O wherever it
        // lands: on a shard (delegated operations) or on the router
        // itself (events recorded against the façade). Each event hits
        // exactly one meter, so this sum matches the single meter of
        // an unsharded run.
        let meters: Vec<Arc<knn_store::IoStats>> = shards
            .iter()
            .map(|s| Arc::clone(s.stats()))
            .chain(std::iter::once(Arc::clone(router.stats())))
            .collect();
        inner.set_io_meter(Some(Arc::new(move || {
            meters.iter().map(|m| m.snapshot()).sum()
        })));

        Ok(ShardedEngine {
            inner,
            shards,
            router,
            exchange,
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

    /// Random-initial-graph constructor over explicit shard backends.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedEngine::with_initial_graph_on`].
    pub fn new_on(
        config: EngineConfig,
        profiles: ProfileStore,
        shards: Vec<Arc<dyn StorageBackend>>,
    ) -> Result<Self, EngineError> {
        let graph = KnnEngine::initial_graph(&config, &profiles)?;
        Self::with_initial_graph_on(config, graph, profiles, shards)
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
        let before: Vec<IoSnapshot> = self.shards.iter().map(|s| s.stats().snapshot()).collect();
        let router_before = self.router.stats().snapshot();
        let report = self.inner.run_iteration()?;
        let per_shard_io = self
            .shards
            .iter()
            .zip(before)
            .map(|(s, b)| s.stats().snapshot() - b)
            .collect();
        let sharded = ShardedIterationReport {
            report,
            per_shard_io,
            router_io: self.router.stats().snapshot() - router_before,
            exchange: *self.exchange.lock().expect("exchange stats poisoned"),
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
        self.shards.len()
    }

    /// The shard backends, in shard order.
    pub fn shards(&self) -> &[Arc<dyn StorageBackend>] {
        &self.shards
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
