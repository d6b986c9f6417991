//! Locality pre-pass for the out-of-core KNN engine.
//!
//! The greedy partitioner looks only at the *interaction graph*, so on
//! realistic workloads nearly every phase-2 tuple crosses partitions
//! and the random `G(0)` spends early iterations scoring hopeless
//! pairs. This crate clusters users by their **profiles**
//! before the engine starts, following the Cluster-and-Conquer
//! observation that a cheap clustering pass shrinks cross-partition
//! traffic and cuts iterations-to-convergence:
//!
//! * [`sketch_embedding`] — a fixed 32-dimensional dense embedding per
//!   user, derived from the per-block L2 norms of the `knn-sim`
//!   [`BoundSketch`](knn_sim::BoundSketch) (no new profile pass: the
//!   same one-shot aggregation phase 4 already uses);
//! * [`cluster_profiles`] — deterministic seeded mini-batch k-means
//!   over those embeddings;
//! * [`ClusterAssignment`] — the persisted artifact (one label per
//!   user), round-tripped through any
//!   [`StorageBackend`](knn_store::StorageBackend) under
//!   [`StreamId::Clusters`](knn_store::StreamId::Clusters) so `resume`
//!   recovers it;
//! * [`cluster_seeded_graph`] — a `G(0)` built from intra-cluster
//!   edges (filled to `K` with seeded random), the alternative to
//!   [`KnnGraph::random_init`](knn_graph::KnnGraph::random_init).
//!
//! The engine runs this pass when its `clustering` switch is on and
//! uses the assignment twice: it packs clusters into partitions and
//! seeds `G(0)` from them.
//!
//! Exactness is untouched: clustering only changes *placement and
//! initialization*. The converged graph is the same mathematical
//! object either way; only the route there (partition operations,
//! iteration count) improves. Everything here is single-threaded and seeded, so
//! outputs are identical at every thread count and on every platform —
//! the determinism contract the engine extends over these artifacts.
//!
//! ```
//! use knn_cluster::cluster_profiles;
//! use knn_sim::generators::{clustered_profiles, ClusteredConfig};
//!
//! let (profiles, _) = clustered_profiles(
//!     ClusteredConfig::new(60, 7).with_clusters(3).with_ratings(12, 2),
//! );
//! let assignment = cluster_profiles(&profiles, 3, 7).unwrap();
//! assert_eq!(assignment.num_users(), 60);
//! assert!(assignment.labels().iter().all(|&c| c < 3));
//! ```

#![warn(unreachable_pub, missing_docs)]

mod assignment;
mod embed;
mod error;
mod kmeans;
mod seed_graph;

pub use assignment::ClusterAssignment;
pub use embed::{embed_profiles, sketch_embedding};
pub use error::ClusterError;
pub use seed_graph::cluster_seeded_graph;

use knn_sim::ProfileStore;

/// The default cluster count for `n` users: `⌈√n⌉`, clamped to
/// `[1, n]` — balanced cluster sizes of about `√n` keep both the
/// k-means pass and the downstream partition packing cheap.
pub fn default_num_clusters(n: usize) -> usize {
    ((n as f64).sqrt().ceil() as usize).clamp(1, n.max(1))
}

/// Runs the clustering pre-pass: embeds every profile into sketch
/// space and labels it with one of `num_clusters` clusters by
/// mini-batch k-means. Deterministic in `seed`; independent of thread count by
/// construction (the pass is single-threaded — it is a once-per-run
/// setup cost, not an iteration hot path).
///
/// # Errors
///
/// Returns [`ClusterError::Config`] if `num_clusters` is zero or
/// exceeds the number of users.
pub fn cluster_profiles(
    profiles: &ProfileStore,
    num_clusters: usize,
    seed: u64,
) -> Result<ClusterAssignment, ClusterError> {
    let n = profiles.num_users();
    if num_clusters == 0 || num_clusters > n {
        return Err(ClusterError::config(format!(
            "num_clusters must be in 1..={n}, got {num_clusters}"
        )));
    }
    let labels = kmeans::kmeans_labels(&embed_profiles(profiles), num_clusters, seed);
    ClusterAssignment::new(labels, num_clusters as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_sim::generators::{clustered_profiles, ClusteredConfig};

    fn planted(n: usize, clusters: usize, seed: u64) -> (ProfileStore, Vec<u32>) {
        clustered_profiles(
            ClusteredConfig::new(n, seed)
                .with_clusters(clusters)
                .with_ratings(12, 2),
        )
    }

    /// Fraction of user pairs on which `labels` agrees with `truth`
    /// about co-membership (Rand index).
    fn rand_index(labels: &[u32], truth: &[u32]) -> f64 {
        let n = labels.len();
        let mut agree = 0u64;
        let mut total = 0u64;
        for a in 0..n {
            for b in (a + 1)..n {
                total += 1;
                let same_label = labels[a] == labels[b];
                let same_truth = truth[a] == truth[b];
                if same_label == same_truth {
                    agree += 1;
                }
            }
        }
        agree as f64 / total as f64
    }

    #[test]
    fn kmeans_recovers_planted_clusters() {
        let (profiles, truth) = planted(120, 4, 11);
        let a = cluster_profiles(&profiles, 4, 11).unwrap();
        let ri = rand_index(a.labels(), &truth);
        assert!(ri > 0.9, "rand index {ri} too low for planted clusters");
    }

    #[test]
    fn methods_are_deterministic_in_seed() {
        let (profiles, _) = planted(80, 3, 5);
        let a = cluster_profiles(&profiles, 5, 9).unwrap();
        let b = cluster_profiles(&profiles, 5, 9).unwrap();
        assert_eq!(a, b, "k-means not deterministic");
    }

    #[test]
    fn invalid_cluster_counts_rejected() {
        let (profiles, _) = planted(10, 2, 1);
        assert!(cluster_profiles(&profiles, 0, 1).is_err());
        assert!(cluster_profiles(&profiles, 11, 1).is_err());
        assert!(cluster_profiles(&profiles, 10, 1).is_ok());
    }

    #[test]
    fn default_num_clusters_is_sane() {
        assert_eq!(default_num_clusters(0), 1);
        assert_eq!(default_num_clusters(1), 1);
        assert_eq!(default_num_clusters(100), 10);
        assert_eq!(default_num_clusters(101), 11);
        assert!(default_num_clusters(2) <= 2);
    }
}
