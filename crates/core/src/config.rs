//! Engine configuration.

use knn_cluster::ClusterMethod;
use knn_sim::Measure;

use crate::partition::PartitionerKind;
use crate::traversal::Heuristic;
use crate::EngineError;

/// Validated configuration of a [`crate::KnnEngine`].
///
/// Build with [`EngineConfig::builder`]:
///
/// ```
/// use knn_core::{EngineConfig, Heuristic};
/// use knn_sim::Measure;
///
/// let config = EngineConfig::builder(10_000)
///     .k(10)
///     .num_partitions(16)
///     .measure(Measure::Cosine)
///     .heuristic(Heuristic::DegreeLowHigh)
///     .threads(4)
///     .build()
///     .unwrap();
/// assert_eq!(config.num_users(), 10_000);
/// assert_eq!(config.k(), 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    num_users: usize,
    k: usize,
    num_partitions: usize,
    measure: Measure,
    heuristic: Heuristic,
    partitioner: PartitionerKind,
    threads: usize,
    cache_slots: usize,
    include_reverse: bool,
    repartition_each_iteration: bool,
    spill_threshold: usize,
    tuple_table_memory: Option<usize>,
    parallel_threshold: usize,
    prune_pairs: bool,
    bound_filter: bool,
    cluster_init: bool,
    num_clusters: Option<usize>,
    cluster_method: ClusterMethod,
    commit_protocol: bool,
    seed: u64,
}

impl EngineConfig {
    /// Starts building a configuration for `num_users` users.
    ///
    /// The default worker budget is 1 thread, unless the
    /// `KNN_TEST_THREADS` environment variable carries a positive
    /// integer — the hook CI uses to drive the whole test suite down
    /// the partition-parallel paths without touching every call site.
    /// An explicit [`threads`](EngineConfigBuilder::threads) call
    /// always wins.
    ///
    /// Similarly, phase-4 pruning
    /// ([`prune_pairs`](EngineConfig::prune_pairs) and
    /// [`bound_filter`](EngineConfig::bound_filter)) defaults to
    /// enabled unless `KNN_TEST_PRUNE=0` is set — the hook CI uses to
    /// run the whole suite down the classic full-rescore path.
    /// Explicit builder calls always win.
    pub fn builder(num_users: usize) -> EngineConfigBuilder {
        EngineConfigBuilder {
            num_users,
            k: 10,
            num_partitions: 8,
            measure: Measure::Cosine,
            heuristic: Heuristic::DegreeLowHigh,
            partitioner: PartitionerKind::Greedy,
            threads: default_threads(),
            cache_slots: 2,
            include_reverse: false,
            repartition_each_iteration: true,
            spill_threshold: 1 << 20,
            tuple_table_memory: None,
            parallel_threshold: crate::phase4::DEFAULT_PARALLEL_THRESHOLD,
            prune_pairs: default_prune(),
            bound_filter: default_prune(),
            cluster_init: false,
            num_clusters: None,
            cluster_method: ClusterMethod::KMeans,
            commit_protocol: true,
            seed: 0,
        }
    }

    /// Number of users `n`.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// The KNN bound `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of partitions `m`.
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// The similarity measure.
    pub fn measure(&self) -> Measure {
        self.measure
    }

    /// The PI-graph traversal heuristic.
    pub fn heuristic(&self) -> Heuristic {
        self.heuristic
    }

    /// The phase-1 partitioner.
    pub fn partitioner(&self) -> PartitionerKind {
        self.partitioner
    }

    /// The engine-wide worker-thread budget: phases 1 (edge layout and
    /// profile resharding), 2 (tuple generation and bucket merge), 4
    /// (similarity scoring), and 5 (profile-update application) all
    /// run partition-parallel across up to this many scoped workers.
    /// Results are identical at every thread count — see the crate
    /// docs for the determinism guarantee.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Resident-partition cache slots (the paper uses 2).
    pub fn cache_slots(&self) -> usize {
        self.cache_slots
    }

    /// Whether each tuple `(s, d)` also offers `s` as a candidate to
    /// `d` (NN-Descent-style reverse join; off in the paper).
    pub fn include_reverse(&self) -> bool {
        self.include_reverse
    }

    /// Whether phase 1 recomputes the partitioning every iteration
    /// (paper-faithful) or reuses the iteration-0 assignment.
    pub fn repartition_each_iteration(&self) -> bool {
        self.repartition_each_iteration
    }

    /// Tuple-table spill threshold, in tuples per bucket.
    pub fn spill_threshold(&self) -> usize {
        self.spill_threshold
    }

    /// Optional phase-2 staging byte budget **per scan table**: when
    /// set, a scan table whose total staging exceeds the budget spills
    /// its largest bucket, bounding peak phase-2 staging at
    /// `min(threads, partitions) × budget` bytes regardless of tuple
    /// volume. `None` (the default) bounds staging by
    /// [`spill_threshold`](EngineConfig::spill_threshold) alone.
    /// Per-table by definition, so the spill pattern — and therefore
    /// every persisted byte — stays identical at every thread count.
    pub fn tuple_table_memory(&self) -> Option<usize> {
        self.tuple_table_memory
    }

    /// Minimum surviving-tuple count before phase 4 fans a bucket out
    /// to the worker pool; smaller buckets score inline because the
    /// dispatch overhead would dominate.
    pub fn parallel_threshold(&self) -> usize {
        self.parallel_threshold
    }

    /// Whether phase 4 suppresses tuples already evaluated last
    /// iteration (cross-iteration pair tracking + accumulator
    /// seeding). Exact: the computed graphs are identical either way;
    /// disabling merely re-scores everything (see the crate docs'
    /// scoring-pipeline section).
    pub fn prune_pairs(&self) -> bool {
        self.prune_pairs
    }

    /// Whether phase 4 drops kernel evaluations whose O(1) score
    /// upper bound cannot beat the current k-th accumulator entry.
    /// Exact: the computed graphs are identical either way.
    pub fn bound_filter(&self) -> bool {
        self.bound_filter
    }

    /// Whether `G(0)` is cluster-seeded (intra-cluster edges from the
    /// `knn-cluster` pre-pass) instead of uniformly random. Exactness
    /// is untouched — only the iteration count to convergence changes.
    pub fn cluster_init(&self) -> bool {
        self.cluster_init
    }

    /// Explicit cluster count for the pre-pass, or `None` for the
    /// `⌈√n⌉` default ([`knn_cluster::default_num_clusters`]).
    pub fn num_clusters(&self) -> Option<usize> {
        self.num_clusters
    }

    /// The cluster count the pre-pass will actually use.
    pub fn effective_num_clusters(&self) -> usize {
        self.num_clusters
            .unwrap_or_else(|| knn_cluster::default_num_clusters(self.num_users))
    }

    /// The clustering algorithm of the pre-pass (default k-means).
    pub fn cluster_method(&self) -> ClusterMethod {
        self.cluster_method
    }

    /// Whether this configuration needs the clustering pre-pass: the
    /// partitioner is [`PartitionerKind::Cluster`] and/or
    /// [`cluster_init`](EngineConfig::cluster_init) is on.
    pub fn clustering_enabled(&self) -> bool {
        self.cluster_init || self.partitioner == PartitionerKind::Cluster
    }

    /// Whether iterations commit atomically (default on): committed
    /// streams are backed up before in-place rewrites, a
    /// generation-stamped commit record is written at the end of each
    /// iteration, and resume rolls back to the last committed
    /// generation (see `knn_store::commit`). Off reproduces the exact
    /// pre-protocol behavior — no backups, no commit record — which is
    /// what the paired recovery bench measures against and how legacy
    /// working directories are generated.
    pub fn commit_protocol(&self) -> bool {
        self.commit_protocol
    }

    /// Seed for every randomized component (initial graph, partitioner
    /// tie-breaks).
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// The default worker budget: `KNN_TEST_THREADS` when it parses to a
/// positive integer, 1 otherwise.
fn default_threads() -> usize {
    std::env::var("KNN_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(1)
}

/// The default pruning toggle: enabled unless `KNN_TEST_PRUNE=0` —
/// the CI hook that routes the whole suite down the full-rescore path.
fn default_prune() -> bool {
    std::env::var("KNN_TEST_PRUNE")
        .map(|v| v != "0")
        .unwrap_or(true)
}

/// Builder for [`EngineConfig`] (see there for an example).
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    num_users: usize,
    k: usize,
    num_partitions: usize,
    measure: Measure,
    heuristic: Heuristic,
    partitioner: PartitionerKind,
    threads: usize,
    cache_slots: usize,
    include_reverse: bool,
    repartition_each_iteration: bool,
    spill_threshold: usize,
    tuple_table_memory: Option<usize>,
    parallel_threshold: usize,
    prune_pairs: bool,
    bound_filter: bool,
    cluster_init: bool,
    num_clusters: Option<usize>,
    cluster_method: ClusterMethod,
    commit_protocol: bool,
    seed: u64,
}

impl EngineConfigBuilder {
    /// Sets the KNN bound `K` (default 10).
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the number of partitions `m` (default 8).
    ///
    /// [`build`](EngineConfigBuilder::build) rejects `m == 0` and
    /// `m > num_users`: with fewer users than partitions some
    /// partition is necessarily empty, which the cluster packing of
    /// [`PartitionerKind::Cluster`] (and the balance contract in
    /// general) refuses to produce silently.
    pub fn num_partitions(mut self, m: usize) -> Self {
        self.num_partitions = m;
        self
    }

    /// Sets the similarity measure (default cosine).
    pub fn measure(mut self, measure: Measure) -> Self {
        self.measure = measure;
        self
    }

    /// Sets the traversal heuristic (default degree low→high, the
    /// paper's usually-best variant).
    pub fn heuristic(mut self, heuristic: Heuristic) -> Self {
        self.heuristic = heuristic;
        self
    }

    /// Sets the phase-1 partitioner (default greedy).
    pub fn partitioner(mut self, partitioner: PartitionerKind) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// Sets the engine-wide worker-thread budget (default 1, or
    /// `KNN_TEST_THREADS` when set — see [`EngineConfig::builder`]).
    /// Every partition-parallel phase draws from this budget; the
    /// computed graph and persisted bytes do not depend on it.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the resident-partition cache capacity (default 2, as in
    /// the paper).
    pub fn cache_slots(mut self, slots: usize) -> Self {
        self.cache_slots = slots;
        self
    }

    /// Enables the NN-Descent-style reverse candidate offer.
    pub fn include_reverse(mut self, yes: bool) -> Self {
        self.include_reverse = yes;
        self
    }

    /// Disables per-iteration repartitioning (reuse iteration-0
    /// assignment).
    pub fn repartition_each_iteration(mut self, yes: bool) -> Self {
        self.repartition_each_iteration = yes;
        self
    }

    /// Sets the tuple-table spill threshold in tuples per bucket
    /// (default 2²⁰).
    pub fn spill_threshold(mut self, tuples: usize) -> Self {
        self.spill_threshold = tuples;
        self
    }

    /// Caps each phase-2 scan table's staging at `bytes` (default
    /// uncapped — see [`EngineConfig::tuple_table_memory`]). Must be
    /// at least 1 KiB when set.
    pub fn tuple_table_memory(mut self, bytes: Option<usize>) -> Self {
        self.tuple_table_memory = bytes;
        self
    }

    /// Sets the phase-4 bucket size below which scoring stays inline
    /// instead of fanning out to the worker pool (default 2048; the
    /// result never depends on it, only the dispatch overhead does).
    pub fn parallel_threshold(mut self, tuples: usize) -> Self {
        self.parallel_threshold = tuples;
        self
    }

    /// Toggles cross-iteration pair suppression (default on, or
    /// `KNN_TEST_PRUNE` — see [`EngineConfig::builder`]). Exact: the
    /// computed graphs are identical either way.
    pub fn prune_pairs(mut self, yes: bool) -> Self {
        self.prune_pairs = yes;
        self
    }

    /// Toggles upper-bound candidate filtering (default on, or
    /// `KNN_TEST_PRUNE` — see [`EngineConfig::builder`]). Exact: the
    /// computed graphs are identical either way.
    pub fn bound_filter(mut self, yes: bool) -> Self {
        self.bound_filter = yes;
        self
    }

    /// Seeds `G(0)` from intra-cluster edges of the `knn-cluster`
    /// pre-pass instead of uniform random neighbors (default off).
    pub fn cluster_init(mut self, yes: bool) -> Self {
        self.cluster_init = yes;
        self
    }

    /// Sets an explicit cluster count for the pre-pass (default
    /// `None`: `⌈√n⌉`). Must satisfy `1 ≤ num_clusters ≤ n`.
    pub fn num_clusters(mut self, clusters: Option<usize>) -> Self {
        self.num_clusters = clusters;
        self
    }

    /// Sets the clustering algorithm of the pre-pass (default
    /// k-means; `RandomBuckets` is the cheaper, coarser variant).
    pub fn cluster_method(mut self, method: ClusterMethod) -> Self {
        self.cluster_method = method;
        self
    }

    /// Toggles the atomic iteration-commit protocol (default on — see
    /// [`EngineConfig::commit_protocol`]).
    pub fn commit_protocol(mut self, yes: bool) -> Self {
        self.commit_protocol = yes;
        self
    }

    /// Sets the global seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] if any constraint is violated:
    /// `n ≥ 2`, `k ≥ 1`, `1 ≤ m ≤ n`, `threads ≥ 1`, `cache_slots ≥ 2`,
    /// `spill_threshold ≥ 1`.
    pub fn build(self) -> Result<EngineConfig, EngineError> {
        if self.num_users < 2 {
            return Err(EngineError::config(format!(
                "need at least 2 users, got {}",
                self.num_users
            )));
        }
        if self.k == 0 {
            return Err(EngineError::config("K must be at least 1"));
        }
        if self.num_partitions == 0 || self.num_partitions > self.num_users {
            return Err(EngineError::config(format!(
                "num_partitions must be in 1..={} (one user per partition at most), got {}",
                self.num_users, self.num_partitions
            )));
        }
        if self.num_partitions > crate::tuple_table::MAX_PARTITIONS {
            return Err(EngineError::config(format!(
                "num_partitions must be at most {} (the phase-2 spill-run namespace bound), got {}",
                crate::tuple_table::MAX_PARTITIONS,
                self.num_partitions
            )));
        }
        if self.threads == 0 {
            return Err(EngineError::config("threads must be at least 1"));
        }
        if self.cache_slots < 2 {
            return Err(EngineError::config(
                "cache needs at least 2 slots to co-load a partition pair",
            ));
        }
        if self.spill_threshold == 0 {
            return Err(EngineError::config("spill_threshold must be at least 1"));
        }
        if self.tuple_table_memory.is_some_and(|b| b < 1024) {
            return Err(EngineError::config(
                "tuple_table_memory must be at least 1 KiB (or None to disable the budget)",
            ));
        }
        if self.parallel_threshold == 0 {
            return Err(EngineError::config(
                "parallel_threshold must be at least 1 (use a huge value to force inline scoring)",
            ));
        }
        if let Some(c) = self.num_clusters {
            if c == 0 || c > self.num_users {
                return Err(EngineError::config(format!(
                    "num_clusters must be in 1..={} (at most one user per cluster), got {c}",
                    self.num_users
                )));
            }
        }
        Ok(EngineConfig {
            num_users: self.num_users,
            k: self.k,
            num_partitions: self.num_partitions,
            measure: self.measure,
            heuristic: self.heuristic,
            partitioner: self.partitioner,
            threads: self.threads,
            cache_slots: self.cache_slots,
            include_reverse: self.include_reverse,
            repartition_each_iteration: self.repartition_each_iteration,
            spill_threshold: self.spill_threshold,
            tuple_table_memory: self.tuple_table_memory,
            parallel_threshold: self.parallel_threshold,
            prune_pairs: self.prune_pairs,
            bound_filter: self.bound_filter,
            cluster_init: self.cluster_init,
            num_clusters: self.num_clusters,
            cluster_method: self.cluster_method,
            commit_protocol: self.commit_protocol,
            seed: self.seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build() {
        let c = EngineConfig::builder(100).build().unwrap();
        assert_eq!(c.k(), 10);
        assert_eq!(c.num_partitions(), 8);
        assert_eq!(c.cache_slots(), 2);
        // The default worker budget tracks KNN_TEST_THREADS (the CI
        // matrix hook); without it, 1.
        assert_eq!(c.threads(), default_threads());
        assert!(!c.include_reverse());
        assert!(c.repartition_each_iteration());
        // Pruning tracks KNN_TEST_PRUNE (the CI no-prune hook);
        // without it, on.
        assert_eq!(c.prune_pairs(), default_prune());
        assert_eq!(c.bound_filter(), default_prune());
        assert_eq!(
            c.parallel_threshold(),
            crate::phase4::DEFAULT_PARALLEL_THRESHOLD
        );
    }

    #[test]
    fn explicit_prune_toggles_beat_the_env_default() {
        let c = EngineConfig::builder(100)
            .prune_pairs(false)
            .bound_filter(false)
            .build()
            .unwrap();
        assert!(!c.prune_pairs());
        assert!(!c.bound_filter());
    }

    #[test]
    fn explicit_threads_beat_the_env_default() {
        let c = EngineConfig::builder(100).threads(3).build().unwrap();
        assert_eq!(c.threads(), 3);
    }

    #[test]
    fn rejects_bad_values() {
        assert!(EngineConfig::builder(1).build().is_err());
        assert!(EngineConfig::builder(10).k(0).build().is_err());
        assert!(EngineConfig::builder(10).num_partitions(0).build().is_err());
        assert!(EngineConfig::builder(10)
            .num_partitions(11)
            .build()
            .is_err());
        // Above the phase-2 spill-run namespace bound: a config error,
        // not a mid-iteration panic.
        assert!(EngineConfig::builder(100_000)
            .num_partitions(70_000)
            .build()
            .is_err());
        assert!(EngineConfig::builder(10).threads(0).build().is_err());
        assert!(EngineConfig::builder(10).cache_slots(1).build().is_err());
        assert!(EngineConfig::builder(10)
            .spill_threshold(0)
            .build()
            .is_err());
        assert!(EngineConfig::builder(10)
            .tuple_table_memory(Some(100))
            .build()
            .is_err());
        assert!(EngineConfig::builder(10)
            .parallel_threshold(0)
            .build()
            .is_err());
        // Cluster counts outside 1..=n.
        assert!(EngineConfig::builder(10)
            .num_clusters(Some(0))
            .build()
            .is_err());
        assert!(EngineConfig::builder(10)
            .num_clusters(Some(11))
            .build()
            .is_err());
    }

    /// The m ≤ n rejection the cluster packer relies on: the builder
    /// (not the partitioner) is the choke point that keeps an engine
    /// from ever asking any partitioner — cluster packing included —
    /// to leave a partition empty.
    #[test]
    fn more_partitions_than_users_rejected_for_every_partitioner() {
        for kind in PartitionerKind::ALL {
            let err = EngineConfig::builder(6)
                .num_partitions(7)
                .partitioner(kind)
                .build()
                .unwrap_err();
            assert!(err.to_string().contains("num_partitions"), "{kind}: {err}");
        }
    }

    #[test]
    fn clustering_knobs_stick_and_default_off() {
        let c = EngineConfig::builder(100).build().unwrap();
        assert!(!c.cluster_init());
        assert!(!c.clustering_enabled());
        assert_eq!(c.num_clusters(), None);
        assert_eq!(c.effective_num_clusters(), 10, "⌈√100⌉");
        assert_eq!(c.cluster_method(), ClusterMethod::KMeans);

        let c = EngineConfig::builder(100)
            .cluster_init(true)
            .num_clusters(Some(5))
            .cluster_method(ClusterMethod::RandomBuckets)
            .build()
            .unwrap();
        assert!(c.cluster_init());
        assert!(c.clustering_enabled());
        assert_eq!(c.effective_num_clusters(), 5);
        assert_eq!(c.cluster_method(), ClusterMethod::RandomBuckets);

        // The cluster partitioner alone also flips the pre-pass on.
        let c = EngineConfig::builder(100)
            .partitioner(PartitionerKind::Cluster)
            .build()
            .unwrap();
        assert!(!c.cluster_init());
        assert!(c.clustering_enabled());
    }

    #[test]
    fn builder_setters_stick() {
        let c = EngineConfig::builder(50)
            .k(3)
            .num_partitions(5)
            .measure(Measure::Jaccard)
            .heuristic(Heuristic::Sequential)
            .partitioner(PartitionerKind::Contiguous)
            .threads(8)
            .cache_slots(4)
            .include_reverse(true)
            .repartition_each_iteration(false)
            .spill_threshold(128)
            .tuple_table_memory(Some(1 << 20))
            .parallel_threshold(512)
            .prune_pairs(false)
            .bound_filter(true)
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(c.k(), 3);
        assert_eq!(c.num_partitions(), 5);
        assert_eq!(c.measure(), Measure::Jaccard);
        assert_eq!(c.heuristic(), Heuristic::Sequential);
        assert_eq!(c.partitioner(), PartitionerKind::Contiguous);
        assert_eq!(c.threads(), 8);
        assert_eq!(c.cache_slots(), 4);
        assert!(c.include_reverse());
        assert!(!c.repartition_each_iteration());
        assert_eq!(c.spill_threshold(), 128);
        assert_eq!(c.tuple_table_memory(), Some(1 << 20));
        assert_eq!(c.parallel_threshold(), 512);
        assert!(!c.prune_pairs());
        assert!(c.bound_filter());
        assert_eq!(c.seed(), 99);
    }

    #[test]
    fn commit_protocol_defaults_on_and_toggles() {
        assert!(EngineConfig::builder(10).build().unwrap().commit_protocol());
        assert!(!EngineConfig::builder(10)
            .commit_protocol(false)
            .build()
            .unwrap()
            .commit_protocol());
    }

    #[test]
    fn one_user_per_partition_is_allowed() {
        assert!(EngineConfig::builder(4)
            .num_partitions(4)
            .k(2)
            .build()
            .is_ok());
    }
}
