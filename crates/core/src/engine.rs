//! The iteration driver.

use std::sync::Arc;
use std::time::Instant;

use knn_cluster::{cluster_profiles, cluster_seeded_graph, ClusterAssignment};
use knn_graph::{DiGraph, KnnGraph, Neighbor, UserId};
use knn_sim::{Profile, ProfileDelta, ProfileStore};
use knn_store::backend::{
    read_meta, read_pairs, read_scored_pairs, read_user_lists, write_meta, write_pairs,
    write_scored_pairs,
};
use knn_store::commit::{read_commit_state, write_commit, CommitState};
use knn_store::{
    CommitRecord, CommitTarget, CommitTxn, DiskBackend, IoSnapshot, MemBackend, RecoveryReport,
    RetryBackend, RetryPolicy, StorageBackend, StoreError, StreamId, WorkingDir,
};

use crate::config::EngineConfig;
use crate::metrics::{ConvergenceOutcome, IterationReport};
use crate::partition::{objective, ClusterPartitioner, GreedyPartitioner, Partitioning};
use crate::phase1;
use crate::phase2::{self, PruneState, Suppression};
use crate::phase4::{self, Phase4Options};
use crate::phase5::{self, UpdateQueue};
use crate::traversal::{simulate_schedule_ops, Heuristic};
use crate::EngineError;

// Metadata keys of the `Meta` stream.
const META_ITERATION: u32 = 1;
const META_NUM_USERS: u32 = 2;
const META_K: u32 = 3;
const META_NUM_PARTITIONS: u32 = 4;
const META_SEED: u32 = 5;
// Written only when the clustering pre-pass ran (so non-cluster runs
// keep the historical five-key metadata byte-for-byte). The method is
// always k-means, code 0; resume still rejects any other stored code.
const META_NUM_CLUSTERS: u32 = 6;
const META_CLUSTER_METHOD: u32 = 7;
const CLUSTER_METHOD_KMEANS: u64 = 0;

/// The phase-3 schedule. It never changes the computed graph, and at
/// two cache slots it never costs more partition loads than the
/// paper's best heuristic (see the [`crate::traversal`] docs).
const SCHEDULE: Heuristic = Heuristic::GreedyChain;

/// The metadata a configuration pins — key, name, value — in stream
/// order after [`META_ITERATION`]: written by every commit, checked by
/// every read.
fn config_meta(config: &EngineConfig) -> Vec<(u32, &'static str, u64)> {
    let (n, k, m) = (config.num_users(), config.k(), config.num_partitions());
    let mut meta = vec![
        (META_NUM_USERS, "num_users", n as u64),
        (META_K, "k", k as u64),
        (META_NUM_PARTITIONS, "num_partitions", m as u64),
        (META_SEED, "seed", config.seed()),
    ];
    if config.clustering_enabled() {
        let clusters = config.num_clusters() as u64;
        meta.push((META_NUM_CLUSTERS, "num_clusters", clusters));
        meta.push((META_CLUSTER_METHOD, "cluster_method", CLUSTER_METHOD_KMEANS));
    }
    meta
}

/// The out-of-core KNN engine: owns a [`StorageBackend`], the current
/// KNN graph `G(t)`, and the update queue, and executes the five-phase
/// iteration loop.
///
/// Memory footprint with a [`DiskBackend`]: `G(t)` (`n × K` scored
/// edges), during phase 4 the top-K accumulators (another `n × K`),
/// plus at most `cache_slots` partitions of profiles — the profile set
/// itself lives on disk, exactly as in the paper. With a
/// [`MemBackend`] the same loop runs against RAM-resident byte
/// buffers: identical results, no filesystem in the hot path. See the
/// crate docs for a full example.
pub struct KnnEngine {
    config: EngineConfig,
    backend: Arc<dyn StorageBackend>,
    graph: KnnGraph,
    partitioning: Partitioning,
    queue: UpdateQueue,
    iteration: u64,
    reports: Vec<IterationReport>,
    /// The clustering pre-pass output, present iff
    /// [`EngineConfig::clustering_enabled`]; consumed by the cluster
    /// partitioner on every (re)partition and persisted for resume.
    clusters: Option<Arc<ClusterAssignment>>,
    /// Cross-iteration bookkeeping for phase 2's offer-time
    /// suppression and phase 4's seeds, left by the last committed
    /// phase 5; `None` when no iteration has committed in this process
    /// (fresh engine, resume) or suppression is disabled — the next
    /// iteration then offers and scores everything.
    prune: Option<PruneState>,
    /// Whether a failed iteration's rollback failed too, so the next
    /// [`run_iteration`](KnnEngine::run_iteration) must roll storage
    /// back before it stages anything.
    rollback_pending: bool,
    /// What crash recovery found when this engine was resumed; `None`
    /// for fresh engines.
    recovery: Option<RecoveryReport>,
}

/// Outcome of [`KnnEngine::verify`]: how many invariants were checked
/// and every violation found, in check order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScrubReport {
    /// Invariant checks performed (streams and cross-stream checks).
    pub streams_checked: u64,
    /// Human-readable findings; empty for a healthy store.
    pub issues: Vec<String>,
}

impl ScrubReport {
    /// `true` when every check passed.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

impl std::fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "scrub: {} checks, {} issue(s)",
            self.streams_checked,
            self.issues.len()
        )?;
        for issue in &self.issues {
            writeln!(f, "  - {issue}")?;
        }
        Ok(())
    }
}

/// Where [`read_stored_state`] sends what it finds.
enum Findings<'a> {
    /// `resume_on`: the first finding is the error.
    Fail,
    /// `verify`: every finding is recorded and reading goes on.
    Record(&'a mut ScrubReport),
}

impl Findings<'_> {
    /// Reports one violated invariant.
    fn report(&mut self, finding: String) -> Result<(), EngineError> {
        match self {
            Findings::Fail => Err(EngineError::input(finding)),
            Findings::Record(report) => {
                report.issues.push(finding);
                Ok(())
            }
        }
    }

    /// Counts one check toward the scrub total.
    fn count(&mut self) {
        if let Findings::Record(report) = self {
            report.streams_checked += 1;
        }
    }

    /// Counts one check and reports `finding` unless `ok`.
    fn check(&mut self, ok: bool, finding: impl FnOnce() -> String) -> Result<(), EngineError> {
        self.count();
        if ok {
            Ok(())
        } else {
            self.report(finding())
        }
    }

    /// Counts one stream read. A stream that fails to decode is a
    /// finding for the scrub (`Ok(None)`) and a storage error for
    /// resume; I/O failure aborts either.
    fn decoded<T>(
        &mut self,
        read: Result<T, StoreError>,
        what: impl FnOnce() -> String,
    ) -> Result<Option<T>, EngineError> {
        self.count();
        match (read, self) {
            (
                Err(e @ (StoreError::Corrupt { .. } | StoreError::VersionMismatch { .. })),
                Findings::Record(report),
            ) => {
                report.issues.push(format!("{}: {e}", what()));
                Ok(None)
            }
            (read, _) => Ok(Some(read?)),
        }
    }
}

/// Marks a user with no stored placement (no assignment row, or no
/// KNN slice naming it yet).
const UNPLACED: u32 = u32::MAX;

/// The committed state as [`read_stored_state`] found it.
struct StoredState {
    /// The stored iteration (0 when the metadata lacks it).
    iteration: u64,
    /// Each user's stored partition, [`UNPLACED`] where no valid row
    /// places it.
    assignment: Vec<u32>,
    /// `G(t)` rebuilt from the KNN slices.
    graph: KnnGraph,
}

/// Reads the committed metadata, assignment and KNN slices and checks
/// them against `config` — the one list of invariants `resume_on` and
/// `verify` share:
///
/// - metadata names `n`, `K`, `m` and the seed of `config` (plus the
///   cluster keys when clustering is on) and an iteration;
/// - the assignment has exactly `n` rows, places every user once, and
///   names partitions `< m` only;
/// - each user heads at most one run of KNN-slice rows across all
///   slices, in its assigned partition, with at most `K` neighbors.
///
/// Stored bytes are untrusted input: every violation goes to
/// `findings`, never into the returned state.
fn read_stored_state(
    config: &EngineConfig,
    backend: &dyn StorageBackend,
    findings: &mut Findings<'_>,
) -> Result<StoredState, EngineError> {
    let n = config.num_users();
    let k = config.k();
    let m = config.num_partitions() as u32;

    let meta: std::collections::HashMap<u32, u64> = findings
        .decoded(read_meta(backend), || "metadata stream".into())?
        .unwrap_or_default()
        .into_iter()
        .collect();
    for (key, name, want) in config_meta(config) {
        let found = meta.get(&key);
        findings.check(found == Some(&want), || match found {
            Some(found) => format!("stored {name} is {found}, config says {want}"),
            None => format!("metadata missing {name}"),
        })?;
    }
    let iteration = meta.get(&META_ITERATION).copied();
    findings.check(iteration.is_some(), || "metadata missing iteration".into())?;

    let mut assignment = vec![UNPLACED; n];
    if let Some(rows) = findings.decoded(read_pairs(backend, StreamId::Assignment), || {
        "assignment stream".into()
    })? {
        findings.check(rows.len() == n, || {
            format!("assignment covers {} users, expected {n}", rows.len())
        })?;
        for (user, p) in rows {
            let Some(slot) = assignment.get_mut(user as usize) else {
                findings.report(format!("assignment row for unknown user {user}"))?;
                continue;
            };
            if *slot != UNPLACED {
                findings.report(format!("assignment names user {user} twice"))?;
            } else if p >= m {
                findings.report(format!(
                    "assignment puts user {user} in partition {p}, m={m}"
                ))?;
            } else {
                *slot = p;
            }
        }
    }

    let mut graph = KnnGraph::new(n, k);
    let mut slice_of = vec![UNPLACED; n];
    for p in 0..m {
        let Some(rows) = findings
            .decoded(read_scored_pairs(backend, StreamId::KnnSlice(p)), || {
                format!("KNN slice of partition {p}")
            })?
        else {
            continue;
        };
        for run in rows.chunk_by(|a, b| a.0 == b.0) {
            let user = run[0].0;
            let Some(claimed) = slice_of.get_mut(user as usize) else {
                findings.report(format!(
                    "KNN slice of partition {p} names unknown user {user}"
                ))?;
                continue;
            };
            if std::mem::replace(claimed, p) != UNPLACED {
                findings.report(format!(
                    "KNN slice of partition {p} names user {user} twice"
                ))?;
                continue;
            }
            if run.len() > k {
                findings.report(format!(
                    "KNN slice of partition {p} carries {} neighbors for user {user}, K={k}",
                    run.len()
                ))?;
                continue;
            }
            let list = run
                .iter()
                .map(|&(_, d, sim)| Neighbor {
                    id: UserId::new(d),
                    sim,
                })
                .collect();
            if let Err(e) = graph.set_neighbors(UserId::new(user), list) {
                findings.report(format!("KNN slice of partition {p}: {e}"))?;
            }
        }
    }
    // Placement last, so a duplicated user reads as "twice" whichever
    // slice its runs landed in.
    for (user, (&slice, &assigned)) in slice_of.iter().zip(&assignment).enumerate() {
        if slice != UNPLACED && assigned != UNPLACED && slice != assigned {
            findings.report(format!(
                "KNN slice of partition {slice} names user {user}, \
                 assigned to partition {assigned}"
            ))?;
        }
    }

    Ok(StoredState {
        iteration: iteration.unwrap_or_default(),
        assignment,
        graph,
    })
}

impl std::fmt::Debug for KnnEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KnnEngine")
            .field("iteration", &self.iteration)
            .field("num_users", &self.config.num_users())
            .field("k", &self.config.k())
            .field("num_partitions", &self.config.num_partitions())
            .field("backend", &self.backend.name())
            .finish()
    }
}

impl KnnEngine {
    /// Creates a disk-backed engine with the random initial graph
    /// `G(0)` (NN-Descent-style: `K` random neighbors per user, derived
    /// from `config.seed()`), or the cluster-seeded one when
    /// [`clustering`](EngineConfig::clustering_enabled) is on.
    ///
    /// `profiles` is consumed: it is sharded into per-partition streams
    /// of the backend and dropped — from here on the profile set lives
    /// in storage. Convenience for
    /// [`new_on`](KnnEngine::new_on)`(config, profiles, DiskBackend::new(workdir))`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputMismatch`] if `profiles` does not
    /// cover exactly `config.num_users()` users, or a storage error.
    pub fn new(
        config: EngineConfig,
        profiles: ProfileStore,
        workdir: WorkingDir,
    ) -> Result<Self, EngineError> {
        Self::new_on(config, profiles, Arc::new(DiskBackend::new(workdir)))
    }

    /// Creates an engine on an arbitrary storage backend with the
    /// initial graph `G(0)` of [`KnnEngine::new`].
    ///
    /// # Errors
    ///
    /// Same as [`KnnEngine::new`].
    pub fn new_on(
        config: EngineConfig,
        profiles: ProfileStore,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self, EngineError> {
        let clusters = Self::compute_clusters(&config, &profiles)?;
        let initial = match &clusters {
            Some(assignment) => cluster_seeded_graph(assignment, config.k(), config.seed()),
            None => KnnGraph::random_init(config.num_users(), config.k(), config.seed()),
        };
        Self::build_on(config, initial, profiles, clusters, backend)
    }

    /// Runs the clustering pre-pass when the configuration asks for one
    /// ([`EngineConfig::clustering_enabled`]), else `None`.
    fn compute_clusters(
        config: &EngineConfig,
        profiles: &ProfileStore,
    ) -> Result<Option<Arc<ClusterAssignment>>, EngineError> {
        if !config.clustering_enabled() {
            return Ok(None);
        }
        let assignment = cluster_profiles(profiles, config.num_clusters(), config.seed())?;
        Ok(Some(Arc::new(assignment)))
    }

    /// Phase-1 placement of `graph`: cluster packing when the pre-pass
    /// ran, greedy otherwise.
    fn partition(
        config: &EngineConfig,
        clusters: Option<&Arc<ClusterAssignment>>,
        graph: &DiGraph,
    ) -> Result<Partitioning, EngineError> {
        let m = config.num_partitions();
        match clusters {
            Some(clusters) => ClusterPartitioner::new(Arc::clone(clusters)).partition(graph, m),
            None => GreedyPartitioner::new(config.seed()).partition(graph, m),
        }
    }

    /// Creates a fully in-memory engine ([`MemBackend`]) with the
    /// random initial graph `G(0)` — the fast path when the profile
    /// set fits in RAM. Same algorithm, same codec, same results as
    /// the disk engine.
    ///
    /// # Errors
    ///
    /// Same as [`KnnEngine::new`].
    pub fn in_memory(config: EngineConfig, profiles: ProfileStore) -> Result<Self, EngineError> {
        Self::new_on(config, profiles, Arc::new(MemBackend::new()))
    }

    /// Creates a disk-backed engine from an explicit initial graph
    /// (e.g. a warm start from a previous run). With clustering on,
    /// the pre-pass still runs and places the users; only the
    /// cluster-seeded `G(0)` is replaced by `graph`.
    ///
    /// # Errors
    ///
    /// Same as [`KnnEngine::new`], plus a mismatch error if the graph's
    /// vertex count or `K` bound disagrees with the configuration.
    pub fn with_initial_graph(
        config: EngineConfig,
        graph: KnnGraph,
        profiles: ProfileStore,
        workdir: WorkingDir,
    ) -> Result<Self, EngineError> {
        Self::with_initial_graph_on(config, graph, profiles, Arc::new(DiskBackend::new(workdir)))
    }

    /// Creates an engine from an explicit initial graph on an
    /// arbitrary storage backend.
    ///
    /// # Errors
    ///
    /// Same as [`KnnEngine::with_initial_graph`].
    pub fn with_initial_graph_on(
        config: EngineConfig,
        graph: KnnGraph,
        profiles: ProfileStore,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self, EngineError> {
        let clusters = Self::compute_clusters(&config, &profiles)?;
        Self::build_on(config, graph, profiles, clusters, backend)
    }

    /// The shared constructor core: validates inputs, lays out the
    /// initial partitioning (cluster-aware when a pre-pass ran), shards
    /// the profiles, and persists the resumable state.
    fn build_on(
        config: EngineConfig,
        graph: KnnGraph,
        profiles: ProfileStore,
        clusters: Option<Arc<ClusterAssignment>>,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self, EngineError> {
        // Every engine I/O path runs behind the bounded retry policy:
        // transient storage failures are absorbed deterministically
        // (seeded jitter), permanent ones propagate unchanged, and a
        // clean run is byte- and meter-identical to an unwrapped one.
        let backend: Arc<dyn StorageBackend> = Arc::new(RetryBackend::new(
            backend,
            RetryPolicy::from_seed(config.seed()),
        ));
        if graph.num_vertices() != config.num_users() {
            return Err(EngineError::input(format!(
                "graph has {} vertices, config expects {}",
                graph.num_vertices(),
                config.num_users()
            )));
        }
        if graph.k() != config.k() {
            return Err(EngineError::input(format!(
                "graph K={} but config K={}",
                graph.k(),
                config.k()
            )));
        }
        if profiles.num_users() != config.num_users() {
            return Err(EngineError::input(format!(
                "profile store has {} users, config expects {}",
                profiles.num_users(),
                config.num_users()
            )));
        }
        // Initial layout: partition G(0) and shard the profiles
        // accordingly.
        let partitioning = Self::partition(&config, clusters.as_ref(), &graph.to_digraph())?;
        phase1::reshard_profiles(
            backend.as_ref(),
            None,
            &partitioning,
            Some(&profiles),
            config.threads(),
        )?;
        // The cluster table never changes after the pre-pass: persist
        // it once here, not in per-iteration persist_state.
        if let Some(assignment) = &clusters {
            assignment.persist(backend.as_ref())?;
        }
        let queue = UpdateQueue::new(config.num_users());
        let engine = KnnEngine {
            config,
            backend,
            graph,
            partitioning,
            queue,
            iteration: 0,
            reports: Vec::new(),
            clusters,
            prune: None,
            rollback_pending: false,
            recovery: None,
        };
        engine.persist_state(engine.iteration, &engine.partitioning, &engine.graph, None)?;
        // Generation 0 is committed the moment the initial state is
        // durable, so a crash during iteration 0 rolls back here.
        write_commit(engine.backend.as_ref(), &CommitRecord::clean(0))?;
        Ok(engine)
    }

    /// Reopens a disk-backed engine from a working directory previously
    /// populated by [`KnnEngine::new`] / [`KnnEngine::with_initial_graph`]
    /// — including directories written before the [`StorageBackend`]
    /// abstraction existed (the disk format is unchanged).
    ///
    /// # Errors
    ///
    /// Same as [`KnnEngine::resume_on`].
    pub fn resume(config: EngineConfig, workdir: WorkingDir) -> Result<Self, EngineError> {
        Self::resume_on(config, Arc::new(DiskBackend::new(workdir)))
    }

    /// Reopens an engine from a backend previously populated by one of
    /// the constructors: the persisted KNN graph, partition assignment,
    /// profiles, and any still-queued updates are all recovered, and
    /// the iteration counter continues where the previous run stopped.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputMismatch`] if the stored metadata
    /// disagrees with `config` (different `n`, `K`, `m`, or seed), the
    /// stored assignment does not place every user exactly once, or a
    /// stored KNN slice is inconsistent (a user listed twice, outside
    /// its assigned partition, or with more than `K` neighbors), and
    /// storage errors for missing or corrupt state streams.
    pub fn resume_on(
        config: EngineConfig,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self, EngineError> {
        let backend: Arc<dyn StorageBackend> = Arc::new(RetryBackend::new(
            backend,
            RetryPolicy::from_seed(config.seed()),
        ));
        // Crash recovery runs before a single byte of state is
        // trusted: a torn iteration rolls back to the last committed
        // generation, an interrupted log truncation is finished, torn
        // log tails are pruned, and orphaned scratch is deleted. A
        // legacy layout (no commit record) passes through untouched.
        let recovery = knn_store::recover(backend.as_ref())?;
        let stored = read_stored_state(&config, backend.as_ref(), &mut Findings::Fail)?;
        // After recovery the commit record and the metadata must name
        // the same generation — a disagreement means the directory was
        // modified outside the protocol.
        if let Some(generation) = recovery.committed_generation {
            if generation != stored.iteration {
                return Err(EngineError::input(format!(
                    "commit record names generation {generation}, \
                     stored metadata says iteration {}",
                    stored.iteration
                )));
            }
        }
        let clusters = if config.clustering_enabled() {
            Some(Arc::new(ClusterAssignment::load(
                backend.as_ref(),
                config.num_users(),
                config.num_clusters() as u32,
            )?))
        } else {
            None
        };
        let partitioning =
            Partitioning::from_assignment(stored.assignment, config.num_partitions())?;

        let queue = UpdateQueue::new(config.num_users());
        Ok(KnnEngine {
            config,
            backend,
            graph: stored.graph,
            partitioning,
            queue,
            iteration: stored.iteration,
            reports: Vec::new(),
            clusters,
            // A resumed engine has no in-process memory of the last
            // iteration's scoring, so the first iteration re-scores
            // everything (suppression resumes one iteration later).
            prune: None,
            rollback_pending: false,
            recovery: Some(recovery),
        })
    }

    /// Writes the resumable state at `iteration`: metadata, the
    /// partition assignment, and the KNN graph sliced per partition.
    /// With a `txn`, every stream is staged (pre-image backed up)
    /// before its rewrite, so a crash mid-persist rolls back cleanly.
    fn persist_state(
        &self,
        iteration: u64,
        partitioning: &Partitioning,
        graph: &KnnGraph,
        mut txn: Option<&mut CommitTxn>,
    ) -> Result<(), EngineError> {
        let backend = self.backend.as_ref();
        if let Some(txn) = txn.as_deref_mut() {
            txn.backup(backend, CommitTarget::Meta)?;
            txn.backup(backend, CommitTarget::Assignment)?;
        }
        let mut meta = vec![(META_ITERATION, iteration)];
        for (key, _, value) in config_meta(&self.config) {
            meta.push((key, value));
        }
        write_meta(backend, &meta)?;
        let assignment_rows: Vec<(u32, u32)> = partitioning
            .assignment()
            .iter()
            .enumerate()
            .map(|(u, &p)| (u as u32, p))
            .collect();
        write_pairs(backend, StreamId::Assignment, &assignment_rows)?;
        for p in 0..partitioning.num_partitions() as u32 {
            if let Some(txn) = txn.as_deref_mut() {
                txn.backup(backend, CommitTarget::KnnSlice(p))?;
            }
            let mut rows: Vec<(u32, u32, f32)> = Vec::new();
            for &user in partitioning.users_of(p) {
                for nb in graph.neighbors(user) {
                    rows.push((user.raw(), nb.id.raw(), nb.sim));
                }
            }
            write_scored_pairs(backend, StreamId::KnnSlice(p), &rows)?;
        }
        Ok(())
    }

    /// The current KNN graph `G(t)`.
    pub fn graph(&self) -> &KnnGraph {
        &self.graph
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The current iteration index `t`.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// The current partition layout.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The clustering pre-pass output, when the configuration enabled
    /// one ([`EngineConfig::clustering_enabled`]).
    pub fn clusters(&self) -> Option<&Arc<ClusterAssignment>> {
        self.clusters.as_ref()
    }

    /// Reports of every completed iteration.
    pub fn reports(&self) -> &[IterationReport] {
        &self.reports
    }

    /// What crash recovery found and repaired when this engine was
    /// resumed; `None` for fresh engines. A clean shutdown resumes
    /// with a default report (nothing rolled back, nothing deleted).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Scrubs the persisted state: decodes every committed stream
    /// (CRC-verified by the backend), checks the commit record, runs
    /// the metadata, assignment and KNN-slice invariants `resume_on`
    /// enforces, cross-checks the stored layout and profiles against
    /// this engine, and strictly decodes the update log. Read only —
    /// call it between iterations.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Store`] only on outright I/O failure;
    /// consistency problems are findings in the returned report, not
    /// errors.
    pub fn verify(&self) -> Result<ScrubReport, EngineError> {
        let backend = self.backend.as_ref();
        let mut report = ScrubReport::default();
        let findings = &mut Findings::Record(&mut report);

        // The commit record, when present, must be intact, clean, and
        // name the current generation. Absent is fine: a legacy
        // layout not yet upgraded by an iteration.
        match read_commit_state(backend)? {
            CommitState::Absent => {}
            CommitState::Torn => findings.check(false, || "commit record is torn".into())?,
            CommitState::Valid(rec) => {
                findings.check(rec.generation == self.iteration, || {
                    format!(
                        "commit record names generation {}, engine is at iteration {}",
                        rec.generation, self.iteration
                    )
                })?;
                findings.check(rec.log_consumed_len == 0, || {
                    format!(
                        "commit record carries {} consumed-log bytes at rest \
                         (truncation never completed)",
                        rec.log_consumed_len
                    )
                })?;
            }
        }

        // The shared invariants, then agreement with this engine.
        let stored = read_stored_state(&self.config, backend, findings)?;
        findings.check(stored.iteration == self.iteration, || {
            format!(
                "stored iteration is {}, engine is at iteration {}",
                stored.iteration, self.iteration
            )
        })?;
        findings.check(stored.assignment == self.partitioning.assignment(), || {
            "assignment stream disagrees with the engine layout".into()
        })?;

        // Every user's profile lives exactly once, in its assigned
        // partition.
        let n = self.config.num_users();
        let mut profile_seen = vec![false; n];
        for p in 0..self.config.num_partitions() as u32 {
            let Some(rows) = findings
                .decoded(read_user_lists(backend, StreamId::Profiles(p)), || {
                    format!("profile stream of partition {p}")
                })?
            else {
                continue;
            };
            let mut ok = true;
            for (user, _) in &rows {
                ok &= (*user as usize) < n
                    && self.partitioning.partition_of(UserId::new(*user)) == p
                    && !std::mem::replace(&mut profile_seen[*user as usize], true);
            }
            findings.check(ok, || {
                format!("profile stream of partition {p} misplaces or repeats a user")
            })?;
        }
        let missing = profile_seen.iter().filter(|&&s| !s).count();
        findings.check(missing == 0, || {
            format!("{missing} users have no stored profile")
        })?;

        // The update log must decode strictly (a torn tail at rest is
        // a finding — recovery prunes those on resume).
        findings.check(self.queue.pending(backend).is_ok(), || {
            "update log does not decode cleanly".into()
        })?;

        // Between iterations no staged backups, legacy spill runs,
        // legacy exchange runs or legacy accumulator streams should
        // survive — a leftover means an interrupted commit or GC.
        // Legacy bucket streams are left by older builds between
        // iterations, so they are not leftovers.
        let leftovers = backend
            .list()?
            .into_iter()
            .filter(|s| {
                matches!(
                    s,
                    StreamId::Staged(..)
                        | StreamId::TupleRun(..)
                        | StreamId::ExchangeRun(..)
                        | StreamId::Accumulators(..)
                )
            })
            .count();
        findings.check(leftovers == 0, || {
            format!("{leftovers} staged/scratch streams survive at rest")
        })?;

        Ok(report)
    }

    /// Cumulative I/O counters, metered inside the storage backend
    /// (see [`StorageBackend::io_snapshot`]).
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.backend.io_snapshot()
    }

    /// The storage backend this engine runs on.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// The working directory, when the engine is disk-backed; `None`
    /// for in-memory (and future non-directory) backends.
    pub fn working_dir(&self) -> Option<&WorkingDir> {
        self.backend.working_dir()
    }

    /// Consumes the engine, returning its working directory (for
    /// cleanup or inspection).
    ///
    /// # Panics
    ///
    /// Panics if the engine is not disk-backed — use
    /// [`working_dir`](KnnEngine::working_dir) /
    /// [`backend`](KnnEngine::backend) for backend-agnostic access.
    pub fn into_working_dir(self) -> WorkingDir {
        self.backend
            .working_dir()
            .expect("into_working_dir on a non-disk backend")
            .clone()
    }

    /// Queues a profile update; it becomes visible in `P(t+1)` after
    /// the current iteration's phase 5 (the paper's lazy queue `q`).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidUpdate`] for out-of-range users or
    /// non-finite weights.
    pub fn queue_update(&mut self, delta: &ProfileDelta) -> Result<(), EngineError> {
        self.queue.queue(delta, self.backend.as_ref())
    }

    /// Reads one user's current stored profile (diagnostic helper).
    ///
    /// # Errors
    ///
    /// Returns a storage error or an unknown-user mismatch.
    pub fn profile_of(&self, user: UserId) -> Result<Profile, EngineError> {
        UpdateQueue::read_profile(user, &self.partitioning, self.backend.as_ref())
    }

    /// Materializes the entire stored profile set `P(t)` as an
    /// in-memory [`ProfileStore`] — the snapshot-extraction hook the
    /// serving layer uses to publish a consistent profile view after
    /// each iteration.
    ///
    /// Must only be called between iterations (the engine does not
    /// rewrite partition streams while no iteration is running); costs
    /// one sequential read of every partition's profile stream.
    ///
    /// # Errors
    ///
    /// Returns a storage error for missing or corrupt partition
    /// streams, or an input-mismatch error if a partition stream names
    /// a user outside the configured range.
    pub fn export_profiles(&self) -> Result<ProfileStore, EngineError> {
        let mut store = ProfileStore::new(self.config.num_users());
        for p in 0..self.partitioning.num_partitions() as u32 {
            let rows = read_user_lists(self.backend.as_ref(), StreamId::Profiles(p))?;
            for (user, row) in rows {
                if user as usize >= self.config.num_users() {
                    return Err(EngineError::input(format!(
                        "partition {p} profile stream names unknown user {user}"
                    )));
                }
                let profile = Profile::from_unsorted_pairs(row).map_err(|e| {
                    EngineError::input(format!("invalid stored profile for user {user}: {e}"))
                })?;
                store.set(UserId::new(user), profile);
            }
        }
        Ok(store)
    }

    /// Number of updates currently queued for phase 5.
    ///
    /// # Errors
    ///
    /// Returns a storage error if the update log cannot be read.
    pub fn pending_updates(&self) -> Result<usize, EngineError> {
        self.queue.pending(self.backend.as_ref())
    }

    /// Executes one full five-phase iteration, advancing `G(t)` to
    /// `G(t+1)` and `P(t)` to `P(t+1)`.
    ///
    /// Phases 1, 2, 4, and 5 run partition-parallel across the
    /// configured [`threads`](EngineConfig::threads) budget. The
    /// resulting graph, every persisted stream, and the deterministic
    /// fields of the [`IterationReport`] (everything except wall-clock
    /// durations) are identical at every thread count and on every
    /// backend — see the crate docs for the guarantee.
    ///
    /// # Errors
    ///
    /// Any phase's storage or validation error aborts the iteration,
    /// and an aborted iteration is a transaction rolled back in memory
    /// and in storage alike: the graph, partitioning, iteration number
    /// and cross-iteration pruning state are installed only once the
    /// commit succeeds, and on an error the backend is rolled back to
    /// the last committed generation ([`knn_store::recover`]) before
    /// the error is returned. Calling `run_iteration` again therefore
    /// retries the same iteration from the same state, and ends where
    /// a run that never failed would. A commit that fails after its
    /// record landed is durable all the same: recovery finishes it,
    /// and the iteration returns its report. If the rollback itself
    /// fails, the next call retries it before anything else.
    pub fn run_iteration(&mut self) -> Result<IterationReport, EngineError> {
        let backend = Arc::clone(&self.backend);
        if self.rollback_pending {
            self.roll_back(backend.as_ref())?;
            self.rollback_pending = false;
        }
        let result = self.iterate(backend.as_ref());
        if result.is_err() {
            self.rollback_pending = self.roll_back(backend.as_ref()).is_err();
        }
        result
    }

    /// Rolls storage back to the last committed generation after a
    /// failed iteration.
    ///
    /// # Errors
    ///
    /// Returns the storage error of a failed rollback, or
    /// [`EngineError::InputMismatch`] when storage committed a
    /// generation the engine never installed — only a rollback that
    /// failed after its commit record landed leaves that, and only
    /// [`resume_on`](KnnEngine::resume_on) can continue from it.
    fn roll_back(&self, backend: &dyn StorageBackend) -> Result<(), EngineError> {
        match knn_store::recover(backend)?.committed_generation {
            Some(generation) if generation != self.iteration => Err(EngineError::input(format!(
                "storage committed generation {generation}, the engine is at iteration {}; \
                 resume the engine from its backend",
                self.iteration
            ))),
            _ => Ok(()),
        }
    }

    /// The body of [`run_iteration`](KnnEngine::run_iteration): every
    /// phase into locals, then the commit, then the install.
    fn iterate(&mut self, backend: &dyn StorageBackend) -> Result<IterationReport, EngineError> {
        let mut durations = [std::time::Duration::ZERO; 5];
        let mut io = [IoSnapshot::default(); 5];
        // The iteration's undo log: committed streams are staged
        // before their first in-place mutation, and the commit record
        // written at the end flips the visible generation atomically —
        // a crash anywhere in between rolls back on resume.
        let mut txn = CommitTxn::new(self.iteration);

        // Cross-iteration suppression inputs (see the crate docs'
        // scoring-pipeline section), left by the last iteration's
        // phase 5 and replaced only when this one commits.
        let prune_state = self.prune.as_ref();

        // Phase 1: repartition G(t) and migrate the profile streams.
        let before = self.io_snapshot();
        let t0 = Instant::now();
        // One digraph serves the partitioner and the replication cost,
        // and is dropped before any stream is rewritten.
        let (next, replication_cost) = {
            let digraph = self.graph.to_digraph();
            let next = Self::partition(&self.config, self.clusters.as_ref(), &digraph)?;
            let cost = objective::replication_cost(&digraph, &next);
            (next, cost)
        };
        let next = (next != self.partitioning).then_some(next);
        if let Some(next) = &next {
            // Resharding rewrites every profile stream in place —
            // stage them all first.
            for p in 0..self.partitioning.num_partitions() as u32 {
                txn.backup(backend, CommitTarget::Profiles(p))?;
            }
            phase1::reshard_profiles(
                backend,
                Some(&self.partitioning),
                next,
                None,
                self.config.threads(),
            )?;
        }
        let partitioning = next.as_ref().unwrap_or(&self.partitioning);
        durations[0] = t0.elapsed();
        io[0] = self.io_snapshot() - before;

        // Phase 2: index G(t)'s legs, flagged by the offer-time rule,
        // and find the live bucket pairs. No tuple is generated yet:
        // phase 4 generates each bucket when it reaches it.
        let before = self.io_snapshot();
        let t0 = Instant::now();
        let suppression = prune_state.map(|state| Suppression {
            state,
            include_reverse: self.config.include_reverse(),
        });
        let legs = phase2::Legs::new(&self.graph, partitioning, suppression.as_ref());
        let live = phase2::live_buckets(&legs, partitioning);
        durations[1] = t0.elapsed();
        io[1] = self.io_snapshot() - before;

        // Phase 3: PI-graph traversal schedule.
        let before = self.io_snapshot();
        let t0 = Instant::now();
        let schedule = SCHEDULE.schedule(&live.pi);
        let predicted = simulate_schedule_ops(&schedule, self.config.cache_slots());
        durations[2] = t0.elapsed();
        io[2] = self.io_snapshot() - before;

        // Phase 4: out-of-core similarity scoring into in-RAM top-K
        // accumulators seeded from G(t), and the harvest of G(t+1).
        let before = self.io_snapshot();
        let t0 = Instant::now();
        let options = Phase4Options {
            k: self.config.k(),
            measure: self.config.measure(),
            threads: self.config.threads(),
            cache_slots: self.config.cache_slots(),
            include_reverse: self.config.include_reverse(),
            bound_filter: self.config.bound_filter(),
            chunk: phase4::CHUNK,
        };
        let phase4_out = phase4::run_phase4(
            &schedule,
            &legs,
            partitioning,
            backend,
            &self.graph,
            prune_state,
            &options,
        )?;
        drop(legs);
        durations[3] = t0.elapsed();
        io[3] = self.io_snapshot() - before;

        // Phase 5: apply the lazy profile-update queue, sweep the seeds
        // it made stale, and commit. Its duration and I/O cover
        // everything up to the commit, so the phases add up to the
        // whole iteration. The consumed log bytes are truncated by the
        // commit, not by the apply step.
        let before = self.io_snapshot();
        let t0 = Instant::now();
        let (phase5_stats, updated, consumed) =
            self.queue
                .apply_all(partitioning, backend, self.config.threads(), &mut txn)?;
        let changed_fraction = self.graph.edge_change_fraction(&phase4_out.graph);
        // Bookkeeping for the next iteration's suppression, derived
        // while G(t) is still at hand: which edges are new, whose
        // profile just changed, and whose seeds still replay.
        let next_prune = if self.config.prune_pairs() {
            let next = &phase4_out.graph;
            let mut profile_dirty = vec![false; self.config.num_users()];
            for &u in updated.users() {
                profile_dirty[u as usize] = true;
            }
            let (seed_ok, fresh) = phase5::sweep_stale_seeds(
                next,
                &profile_dirty,
                &updated,
                partitioning,
                backend,
                self.config.measure(),
                self.config.threads(),
            )?;
            Some(PruneState {
                profile_dirty,
                additions: next.additions_since(&self.graph),
                seed_ok,
                fresh,
            })
        } else {
            None
        };
        let iteration = self.iteration + 1;
        self.persist_state(iteration, partitioning, &phase4_out.graph, Some(&mut txn))?;
        if let Err(e) = txn.commit(backend, iteration, &consumed) {
            // A failure after the commit record landed leaves the
            // iteration durable: recovery finishes the commit instead
            // of undoing it, and the iteration stands.
            if knn_store::recover(backend)?.committed_generation != Some(iteration) {
                return Err(e.into());
            }
        }
        durations[4] = t0.elapsed();
        io[4] = self.io_snapshot() - before;

        // Committed: install G(t+1) and everything derived with it.
        if let Some(next) = next {
            self.partitioning = next;
        }
        self.graph = phase4_out.graph;
        self.iteration = iteration;
        self.prune = next_prune;
        let report = IterationReport {
            iteration: iteration - 1,
            phase_durations: durations,
            phase_io: io,
            cache: phase4_out.cache,
            predicted,
            tuples: phase4_out.tuples,
            schedule_len: schedule.len(),
            sims_computed: phase4_out.sims_computed,
            // Every generating path is offered in a live bucket or
            // suppressed, live or not.
            sims_skipped: live.paths - phase4_out.tuples.offered,
            sims_pruned: phase4_out.sims_pruned,
            accums_seeded: phase4_out.accums_seeded,
            updates_applied: phase5_stats.updates_applied,
            replication_cost,
            intra_partition_tuples: phase4_out.intra_partition_tuples,
            changed_fraction,
        };
        self.reports.push(report.clone());
        Ok(report)
    }

    /// Runs iterations until the edge-change fraction drops below
    /// `threshold` or `max_iterations` is reached.
    ///
    /// # Errors
    ///
    /// Propagates the first iteration error.
    pub fn run_until_converged(
        &mut self,
        threshold: f64,
        max_iterations: usize,
    ) -> Result<ConvergenceOutcome, EngineError> {
        let mut last_change = 1.0f64;
        for i in 0..max_iterations {
            let report = self.run_iteration()?;
            last_change = report.changed_fraction;
            if last_change < threshold {
                return Ok(ConvergenceOutcome {
                    converged: true,
                    iterations_run: i + 1,
                    final_change_fraction: last_change,
                });
            }
        }
        Ok(ConvergenceOutcome {
            converged: false,
            iterations_run: max_iterations,
            final_change_fraction: last_change,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_iteration;
    use knn_sim::generators::{clustered_profiles, ClusteredConfig};
    use knn_sim::Measure;

    fn small_world(n: usize, seed: u64) -> (EngineConfig, ProfileStore, WorkingDir) {
        let (profiles, _) = clustered_profiles(
            ClusteredConfig::new(n, seed)
                .with_clusters(4)
                .with_ratings(12, 2),
        );
        let config = EngineConfig::builder(n)
            .k(4)
            .num_partitions(4)
            .measure(Measure::Cosine)
            .seed(seed)
            .build()
            .unwrap();
        let wd = WorkingDir::temp("engine").unwrap();
        (config, profiles, wd)
    }

    #[test]
    fn one_iteration_matches_reference() {
        let (config, profiles, wd) = small_world(60, 3);
        let g0 = KnnGraph::random_init(60, 4, 3);
        let expected = reference_iteration(&g0, &profiles, &Measure::Cosine, 4, false);
        let mut engine = KnnEngine::with_initial_graph(config, g0, profiles, wd).unwrap();
        engine.run_iteration().unwrap();
        assert_eq!(engine.graph(), &expected);
        engine.into_working_dir().destroy().unwrap();
    }

    #[test]
    fn multiple_iterations_match_reference() {
        let (config, profiles, wd) = small_world(40, 5);
        let g0 = KnnGraph::random_init(40, 4, 5);
        let expected =
            crate::reference::reference_run(&g0, &profiles, &Measure::Cosine, 4, false, 3);
        let mut engine = KnnEngine::with_initial_graph(config, g0, profiles, wd).unwrap();
        for _ in 0..3 {
            engine.run_iteration().unwrap();
        }
        assert_eq!(engine.graph(), &expected);
        assert_eq!(engine.iteration(), 3);
        assert_eq!(engine.reports().len(), 3);
        engine.into_working_dir().destroy().unwrap();
    }

    #[test]
    fn in_memory_engine_matches_reference() {
        let (config, profiles, wd) = small_world(60, 3);
        wd.destroy().unwrap();
        let g0 = KnnGraph::random_init(60, 4, 3);
        let expected =
            crate::reference::reference_run(&g0, &profiles, &Measure::Cosine, 4, false, 2);
        let mut engine =
            KnnEngine::with_initial_graph_on(config, g0, profiles, Arc::new(MemBackend::new()))
                .unwrap();
        engine.run_iteration().unwrap();
        engine.run_iteration().unwrap();
        assert_eq!(engine.graph(), &expected);
        assert!(engine.working_dir().is_none());
        assert_eq!(engine.backend().name(), "mem");
    }

    #[test]
    fn in_memory_engine_resumes_from_its_backend() {
        let (config, profiles, wd) = small_world(40, 8);
        wd.destroy().unwrap();
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let mut engine = KnnEngine::new_on(config.clone(), profiles, Arc::clone(&backend)).unwrap();
        engine.run_iteration().unwrap();
        let expected = engine.graph().clone();
        drop(engine);
        let resumed = KnnEngine::resume_on(config, backend).unwrap();
        assert_eq!(resumed.iteration(), 1);
        assert_eq!(resumed.graph(), &expected);
    }

    #[test]
    fn predicted_ops_match_real_execution() {
        let (config, profiles, wd) = small_world(50, 7);
        let mut engine = KnnEngine::new(config, profiles, wd).unwrap();
        let report = engine.run_iteration().unwrap();
        assert_eq!(report.cache.loads, report.predicted.loads);
        assert_eq!(report.cache.unloads, report.predicted.unloads);
        engine.into_working_dir().destroy().unwrap();
    }

    #[test]
    fn updates_invisible_until_next_iteration() {
        let (config, profiles, wd) = small_world(30, 9);
        let baseline = profiles.clone();
        let g0 = KnnGraph::random_init(30, 4, 9);
        let mut engine = KnnEngine::with_initial_graph(config, g0.clone(), profiles, wd).unwrap();
        // Queue an update mid-iteration-0: iteration 0 must compute
        // with the original profiles.
        engine
            .queue_update(&ProfileDelta::replace(
                UserId::new(0),
                Profile::from_unsorted_pairs(vec![(99999, 5.0)]).unwrap(),
            ))
            .unwrap();
        let expected_iter0 = reference_iteration(&g0, &baseline, &Measure::Cosine, 4, false);
        let report = engine.run_iteration().unwrap();
        assert_eq!(
            engine.graph(),
            &expected_iter0,
            "update leaked into iteration 0"
        );
        assert_eq!(report.updates_applied, 1);
        // After phase 5 the profile is replaced in storage.
        let p = engine.profile_of(UserId::new(0)).unwrap();
        assert_eq!(p.get(knn_sim::ItemId::new(99999)), Some(5.0));
        engine.into_working_dir().destroy().unwrap();
    }

    /// The report covers the whole iteration: the phases' I/O adds up
    /// to the backend meter's delta over an iteration that applies
    /// updates (phase 5 carries the sweep, the persist and the commit),
    /// with suppression on and off.
    #[test]
    fn phase_io_adds_up_to_the_iteration() {
        for prune in [false, true] {
            let (profiles, _) = clustered_profiles(
                ClusteredConfig::new(40, 4)
                    .with_clusters(4)
                    .with_ratings(12, 2),
            );
            let config = EngineConfig::builder(40)
                .k(4)
                .num_partitions(4)
                .seed(4)
                .prune_pairs(prune)
                .build()
                .unwrap();
            let mut engine = KnnEngine::in_memory(config, profiles).unwrap();
            engine.run_iteration().unwrap();
            for u in [3, 17, 31] {
                engine
                    .queue_update(&ProfileDelta::set(
                        UserId::new(u),
                        knn_sim::ItemId::new(u),
                        2.0,
                    ))
                    .unwrap();
            }
            let before = engine.io_snapshot();
            let report = engine.run_iteration().unwrap();
            assert_eq!(report.updates_applied, 3);
            let phases: IoSnapshot = report.phase_io.iter().copied().sum();
            assert_eq!(phases, engine.io_snapshot() - before, "prune={prune}");
            assert!(
                report.phase_io[4].bytes_written > 0,
                "the commit is phase 5's"
            );
        }
    }

    #[test]
    fn export_profiles_round_trips_the_store() {
        let (config, profiles, wd) = small_world(45, 21);
        let original = profiles.clone();
        let mut engine = KnnEngine::new(config, profiles, wd).unwrap();
        // The resharded stored set must reassemble to the input...
        assert_eq!(engine.export_profiles().unwrap(), original);
        // ...and still round-trip after an iteration plus an update.
        engine
            .queue_update(&ProfileDelta::set(
                UserId::new(3),
                knn_sim::ItemId::new(777),
                2.5,
            ))
            .unwrap();
        engine.run_iteration().unwrap();
        let exported = engine.export_profiles().unwrap();
        assert_eq!(
            exported.get(UserId::new(3)).get(knn_sim::ItemId::new(777)),
            Some(2.5)
        );
        assert_eq!(exported.num_users(), 45);
        engine.into_working_dir().destroy().unwrap();
    }

    #[test]
    fn convergence_on_clustered_data() {
        let (config, profiles, wd) = small_world(80, 11);
        let mut engine = KnnEngine::new(config, profiles, wd).unwrap();
        let outcome = engine.run_until_converged(0.05, 12).unwrap();
        assert!(outcome.converged, "did not converge: {outcome:?}");
        assert!(outcome.iterations_run >= 2);
        engine.into_working_dir().destroy().unwrap();
    }

    #[test]
    fn constructor_validates_inputs() {
        let (config, profiles, wd) = small_world(30, 1);
        let wrong_graph = KnnGraph::random_init(29, 4, 1);
        assert!(matches!(
            KnnEngine::with_initial_graph(config.clone(), wrong_graph, profiles.clone(), wd),
            Err(EngineError::InputMismatch { .. })
        ));
        let wd = WorkingDir::temp("engine_bad_k").unwrap();
        let wrong_k = KnnGraph::random_init(30, 9, 1);
        assert!(matches!(
            KnnEngine::with_initial_graph(config.clone(), wrong_k, profiles.clone(), wd),
            Err(EngineError::InputMismatch { .. })
        ));
        let wd = WorkingDir::temp("engine_bad_profiles").unwrap();
        let short_profiles = ProfileStore::new(29);
        assert!(matches!(
            KnnEngine::new(config, short_profiles, wd),
            Err(EngineError::InputMismatch { .. })
        ));
    }

    /// A scrub-clean engine one iteration in, on a backend the stored
    /// state tests then tamper with.
    fn stored_world() -> (EngineConfig, Arc<dyn StorageBackend>, KnnEngine) {
        let (config, profiles, wd) = small_world(40, 17);
        wd.destroy().unwrap();
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let mut engine = KnnEngine::new_on(config.clone(), profiles, Arc::clone(&backend)).unwrap();
        engine.run_iteration().unwrap();
        let scrub = engine.verify().unwrap();
        assert!(scrub.is_clean(), "{scrub}");
        (config, backend, engine)
    }

    /// Exactly `n` assignment rows, but user `u` twice and user `w`
    /// never. `w` sits in partition 0, where an unplaced user used to
    /// land silently, so only the repeat gives the stream away.
    #[test]
    fn stored_state_rejects_an_assignment_that_repeats_a_user() {
        let (config, backend, engine) = stored_world();
        let assignment = engine.partitioning().assignment().to_vec();
        let w = assignment.iter().position(|&p| p == 0).unwrap() as u32;
        let u = (w + 1) % assignment.len() as u32;
        let rows: Vec<(u32, u32)> = (0..assignment.len() as u32)
            .map(|user| if user == w { u } else { user })
            .map(|user| (user, assignment[user as usize]))
            .collect();
        write_pairs(backend.as_ref(), StreamId::Assignment, &rows).unwrap();

        let scrub = engine.verify().unwrap();
        let repeat = format!("assignment names user {u} twice");
        assert!(scrub.issues.iter().any(|i| i.contains(&repeat)), "{scrub}");
        drop(engine);
        let err = KnnEngine::resume_on(config, backend).unwrap_err();
        assert!(
            matches!(&err, EngineError::InputMismatch { .. }) && err.to_string().contains(&repeat),
            "{err}"
        );
    }

    /// A user's KNN rows moved into another partition's slice.
    #[test]
    fn stored_state_rejects_a_knn_slice_outside_the_assigned_partition() {
        let (config, backend, engine) = stored_world();
        let user = engine.partitioning().users_of(0)[0].raw();
        let mut own = read_scored_pairs(backend.as_ref(), StreamId::KnnSlice(0)).unwrap();
        let mut other = read_scored_pairs(backend.as_ref(), StreamId::KnnSlice(1)).unwrap();
        other.extend(own.iter().filter(|row| row.0 == user));
        own.retain(|row| row.0 != user);
        write_scored_pairs(backend.as_ref(), StreamId::KnnSlice(0), &own).unwrap();
        write_scored_pairs(backend.as_ref(), StreamId::KnnSlice(1), &other).unwrap();

        let scrub = engine.verify().unwrap();
        assert!(!scrub.is_clean(), "{scrub}");
        drop(engine);
        let err = KnnEngine::resume_on(config, backend).unwrap_err();
        let misplaced = format!("names user {user}, assigned to partition 0");
        assert!(
            matches!(&err, EngineError::InputMismatch { .. })
                && err.to_string().contains(&misplaced),
            "{err}"
        );
    }
}
