//! Engine configuration.

use knn_sim::Measure;

use crate::EngineError;

/// Validated configuration of a [`crate::KnnEngine`].
///
/// Build with [`EngineConfig::builder`]:
///
/// ```
/// use knn_core::EngineConfig;
/// use knn_sim::Measure;
///
/// let config = EngineConfig::builder(10_000)
///     .k(10)
///     .num_partitions(16)
///     .measure(Measure::Cosine)
///     .clustering(true)
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
    threads: usize,
    cache_slots: usize,
    include_reverse: bool,
    spill_threshold: usize,
    tuple_table_memory: Option<usize>,
    prune_pairs: bool,
    bound_filter: bool,
    clustering: bool,
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
    /// Similarly, pruning
    /// ([`prune_pairs`](EngineConfig::prune_pairs) and
    /// [`bound_filter`](EngineConfig::bound_filter)) defaults to
    /// enabled unless `KNN_TEST_PRUNE=0` is set — the hook CI uses to
    /// run the whole suite down the classic full-rescore path.
    /// Explicit builder calls always win.
    pub fn builder(num_users: usize) -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: EngineConfig {
                num_users,
                k: 10,
                num_partitions: 8,
                measure: Measure::Cosine,
                threads: default_threads(),
                cache_slots: 2,
                include_reverse: false,
                spill_threshold: 1 << 20,
                tuple_table_memory: None,
                prune_pairs: default_prune(),
                bound_filter: default_prune(),
                clustering: false,
                seed: 0,
            },
            commit_protocol: true,
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

    /// Whether phase 2 suppresses offers whose verdict is already
    /// known — a pair evaluated last iteration between users whose
    /// standing is unchanged, its verdict replayed by phase 1's
    /// accumulator seeding. Exact: the computed graphs are identical
    /// either way; disabling merely offers and re-scores everything
    /// (see the crate docs' scoring-funnel section).
    pub fn prune_pairs(&self) -> bool {
        self.prune_pairs
    }

    /// Whether phase 4 drops kernel evaluations whose O(1) score
    /// upper bound cannot beat the current k-th accumulator entry.
    /// Exact: the computed graphs are identical either way.
    pub fn bound_filter(&self) -> bool {
        self.bound_filter
    }

    /// The cluster count of the pre-pass: always `⌈√n⌉`
    /// ([`knn_cluster::default_num_clusters`]).
    pub(crate) fn num_clusters(&self) -> usize {
        knn_cluster::default_num_clusters(self.num_users)
    }

    /// Whether the engine runs the `knn-cluster` pre-pass (k-means
    /// over profile sketches), packs its clusters into partitions
    /// ([`ClusterPartitioner`](crate::partition::ClusterPartitioner))
    /// and seeds `G(0)` from intra-cluster edges. Off (the default),
    /// users are placed by the
    /// [`GreedyPartitioner`](crate::partition::GreedyPartitioner) and
    /// `G(0)` is uniformly random. Exactness is untouched either way:
    /// for the same `G(t)` both placements compute the same `G(t+1)`.
    pub fn clustering_enabled(&self) -> bool {
        self.clustering
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
    config: EngineConfig,
    /// Cleared only by `commit_protocol(false)`, which `build` rejects.
    commit_protocol: bool,
}

impl EngineConfigBuilder {
    /// Sets the KNN bound `K` (default 10).
    pub fn k(mut self, k: usize) -> Self {
        self.config.k = k;
        self
    }

    /// Sets the number of partitions `m` (default 8).
    ///
    /// [`build`](EngineConfigBuilder::build) rejects `m == 0` and
    /// `m > num_users`: with fewer users than partitions some
    /// partition is necessarily empty, which the cluster packing (and
    /// the balance contract in general) refuses to produce silently.
    pub fn num_partitions(mut self, m: usize) -> Self {
        self.config.num_partitions = m;
        self
    }

    /// Sets the similarity measure (default cosine).
    pub fn measure(mut self, measure: Measure) -> Self {
        self.config.measure = measure;
        self
    }

    /// Sets the engine-wide worker-thread budget (default 1, or
    /// `KNN_TEST_THREADS` when set — see [`EngineConfig::builder`]).
    /// Every partition-parallel phase draws from this budget; the
    /// computed graph and persisted bytes do not depend on it.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Sets the resident-partition cache capacity (default 2, as in
    /// the paper).
    pub fn cache_slots(mut self, slots: usize) -> Self {
        self.config.cache_slots = slots;
        self
    }

    /// Enables the NN-Descent-style reverse candidate offer.
    pub fn include_reverse(mut self, yes: bool) -> Self {
        self.config.include_reverse = yes;
        self
    }

    /// Sets the tuple-table spill threshold in tuples per bucket
    /// (default 2²⁰).
    pub fn spill_threshold(mut self, tuples: usize) -> Self {
        self.config.spill_threshold = tuples;
        self
    }

    /// Caps each phase-2 scan table's staging at `bytes` (default
    /// uncapped — see [`EngineConfig::tuple_table_memory`]). Must be
    /// at least 1 KiB when set.
    pub fn tuple_table_memory(mut self, bytes: Option<usize>) -> Self {
        self.config.tuple_table_memory = bytes;
        self
    }

    /// Toggles phase 2's offer-time suppression (default on, or
    /// `KNN_TEST_PRUNE` — see [`EngineConfig::builder`]). Exact: the
    /// computed graphs are identical either way.
    pub fn prune_pairs(mut self, yes: bool) -> Self {
        self.config.prune_pairs = yes;
        self
    }

    /// Toggles upper-bound candidate filtering (default on, or
    /// `KNN_TEST_PRUNE` — see [`EngineConfig::builder`]). Exact: the
    /// computed graphs are identical either way.
    pub fn bound_filter(mut self, yes: bool) -> Self {
        self.config.bound_filter = yes;
        self
    }

    /// Turns the clustering pre-pass on: cluster placement plus a
    /// cluster-seeded `G(0)` (default off — see
    /// [`EngineConfig::clustering_enabled`]).
    pub fn clustering(mut self, yes: bool) -> Self {
        self.config.clustering = yes;
        self
    }

    /// Every iteration commits atomically, so `true` changes nothing
    /// and `false` makes [`build`](EngineConfigBuilder::build) fail.
    /// Kept only so existing `commit_protocol(true)` calls still
    /// compile.
    pub fn commit_protocol(mut self, yes: bool) -> Self {
        self.commit_protocol = yes;
        self
    }

    /// Sets the global seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] if any constraint is violated:
    /// `n ≥ 2`, `k ≥ 1`, `1 ≤ m ≤ n`, `threads ≥ 1`, `cache_slots ≥ 2`,
    /// `spill_threshold ≥ 1`, and no `commit_protocol(false)`.
    pub fn build(self) -> Result<EngineConfig, EngineError> {
        if !self.commit_protocol {
            return Err(EngineError::config(
                "the commit protocol cannot be turned off: every iteration commits",
            ));
        }
        let c = self.config;
        if c.num_users < 2 {
            return Err(EngineError::config(format!(
                "need at least 2 users, got {}",
                c.num_users
            )));
        }
        if c.k == 0 {
            return Err(EngineError::config("K must be at least 1"));
        }
        if c.num_partitions == 0 || c.num_partitions > c.num_users {
            return Err(EngineError::config(format!(
                "num_partitions must be in 1..={} (one user per partition at most), got {}",
                c.num_users, c.num_partitions
            )));
        }
        if c.num_partitions > crate::tuple_table::MAX_PARTITIONS {
            return Err(EngineError::config(format!(
                "num_partitions must be at most {} (the phase-2 spill-run namespace bound), got {}",
                crate::tuple_table::MAX_PARTITIONS,
                c.num_partitions
            )));
        }
        if c.threads == 0 {
            return Err(EngineError::config("threads must be at least 1"));
        }
        if c.cache_slots < 2 {
            return Err(EngineError::config(
                "cache needs at least 2 slots to co-load a partition pair",
            ));
        }
        if c.spill_threshold == 0 {
            return Err(EngineError::config("spill_threshold must be at least 1"));
        }
        if c.tuple_table_memory.is_some_and(|b| b < 1024) {
            return Err(EngineError::config(
                "tuple_table_memory must be at least 1 KiB (or None to disable the budget)",
            ));
        }
        Ok(c)
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
        // Pruning tracks KNN_TEST_PRUNE (the CI no-prune hook);
        // without it, on.
        assert_eq!(c.prune_pairs(), default_prune());
        assert_eq!(c.bound_filter(), default_prune());
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
    }

    /// The m ≤ n rejection the cluster packer relies on: the builder
    /// (not the partitioner) is the choke point that keeps an engine
    /// from ever asking any partitioner — cluster packing included —
    /// to leave a partition empty.
    #[test]
    fn more_partitions_than_users_rejected_for_every_partitioner() {
        for clustering in [false, true] {
            let err = EngineConfig::builder(6)
                .num_partitions(7)
                .clustering(clustering)
                .build()
                .unwrap_err();
            assert!(
                err.to_string().contains("num_partitions"),
                "clustering={clustering}: {err}"
            );
        }
    }

    #[test]
    fn clustering_knobs_stick_and_default_off() {
        let c = EngineConfig::builder(100).build().unwrap();
        assert!(!c.clustering_enabled());
        assert_eq!(c.num_clusters(), 10, "⌈√100⌉");

        let c = EngineConfig::builder(100).clustering(true).build().unwrap();
        assert!(c.clustering_enabled());
        assert_eq!(c.num_clusters(), 10, "the switch leaves the count alone");
    }

    #[test]
    fn builder_setters_stick() {
        let c = EngineConfig::builder(50)
            .k(3)
            .num_partitions(5)
            .measure(Measure::Jaccard)
            .clustering(true)
            .threads(8)
            .cache_slots(4)
            .include_reverse(true)
            .spill_threshold(128)
            .tuple_table_memory(Some(1 << 20))
            .prune_pairs(false)
            .bound_filter(true)
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(c.k(), 3);
        assert_eq!(c.num_partitions(), 5);
        assert_eq!(c.measure(), Measure::Jaccard);
        assert!(c.clustering_enabled());
        assert_eq!(c.threads(), 8);
        assert_eq!(c.cache_slots(), 4);
        assert!(c.include_reverse());
        assert_eq!(c.spill_threshold(), 128);
        assert_eq!(c.tuple_table_memory(), Some(1 << 20));
        assert!(!c.prune_pairs());
        assert!(c.bound_filter());
        assert_eq!(c.seed(), 99);
    }

    #[test]
    fn commit_protocol_off_is_a_config_error() {
        assert!(EngineConfig::builder(10)
            .commit_protocol(true)
            .build()
            .is_ok());
        assert!(matches!(
            EngineConfig::builder(10).commit_protocol(false).build(),
            Err(EngineError::Config { .. })
        ));
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
