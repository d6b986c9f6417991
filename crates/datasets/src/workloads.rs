//! End-to-end workload presets: a profile set plus engine-ready
//! parameters, used by the benches and examples.

use knn_sim::generators::{
    clustered_bipartite, clustered_profiles, zipf_profiles, BipartiteConfig, ClusteredConfig,
    ZipfConfig,
};
use knn_sim::{Measure, ProfileStore};

/// The kind of synthetic profile workload.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum WorkloadConfig {
    /// Clustered rating vectors (recommender-style; cosine works well).
    ClusteredRatings {
        /// Number of planted clusters.
        clusters: usize,
        /// In-cluster ratings per user.
        ratings: usize,
    },
    /// Zipf-popularity item sets (tag-style; Jaccard works well).
    ZipfSets {
        /// Item-universe size.
        items: usize,
        /// Items per user.
        per_user: usize,
        /// Zipf skew.
        skew: f64,
    },
    /// User–item bipartite ratings with planted user communities,
    /// controllable cross-community overlap, and a Zipf noise tail —
    /// the workload that exercises locality-aware placement
    /// (`EngineConfig::clustering`: cluster placement and a
    /// cluster-seeded `G(0)`).
    ClusteredBipartite {
        /// Number of planted user communities.
        clusters: usize,
        /// Fraction of each user's ratings drawn from the neighboring
        /// community's item block (`0.0..=0.5`).
        overlap: f64,
        /// Zipf skew of the shared noise-item tail.
        noise_skew: f64,
    },
}

/// A ready-to-run workload: profiles plus the natural similarity
/// measure for them.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Descriptive name for reports.
    pub name: String,
    /// The generated profiles.
    pub profiles: ProfileStore,
    /// The measure the workload is designed for.
    pub measure: Measure,
}

impl WorkloadConfig {
    /// The default recommender-style workload.
    pub fn recommender() -> Self {
        WorkloadConfig::ClusteredRatings {
            clusters: 16,
            ratings: 25,
        }
    }

    /// The default tag-style workload.
    pub fn tags() -> Self {
        WorkloadConfig::ZipfSets {
            items: 20_000,
            per_user: 25,
            skew: 1.0,
        }
    }

    /// The default community-structured bipartite workload (the
    /// locality benchmark input).
    pub fn communities() -> Self {
        WorkloadConfig::ClusteredBipartite {
            clusters: 8,
            overlap: 0.1,
            noise_skew: 1.0,
        }
    }

    /// Instantiates the workload for `num_users` users.
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters (zero clusters/items, more
    /// items per user than the universe holds).
    pub fn build(&self, num_users: usize, seed: u64) -> Workload {
        match *self {
            WorkloadConfig::ClusteredRatings { clusters, ratings } => {
                let (profiles, _) = clustered_profiles(
                    ClusteredConfig::new(num_users, seed)
                        .with_clusters(clusters)
                        .with_ratings(ratings, 4),
                );
                Workload {
                    name: format!("clustered-ratings(c={clusters}, r={ratings})"),
                    profiles,
                    measure: Measure::Cosine,
                }
            }
            WorkloadConfig::ZipfSets {
                items,
                per_user,
                skew,
            } => {
                let profiles = zipf_profiles(ZipfConfig {
                    num_users,
                    num_items: items,
                    items_per_user: per_user,
                    skew,
                    seed,
                });
                Workload {
                    name: format!("zipf-sets(i={items}, p={per_user}, s={skew})"),
                    profiles,
                    measure: Measure::Jaccard,
                }
            }
            WorkloadConfig::ClusteredBipartite {
                clusters,
                overlap,
                noise_skew,
            } => {
                let (profiles, _) = clustered_bipartite(
                    BipartiteConfig::new(num_users, seed)
                        .with_clusters(clusters)
                        .with_overlap(overlap)
                        .with_noise(4, noise_skew),
                );
                Workload {
                    name: format!("clustered-bipartite(c={clusters}, o={overlap}, s={noise_skew})"),
                    profiles,
                    measure: Measure::Cosine,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommender_workload_builds() {
        let w = WorkloadConfig::recommender().build(100, 1);
        assert_eq!(w.profiles.num_users(), 100);
        assert_eq!(w.measure, Measure::Cosine);
        assert!(w.name.contains("clustered"));
    }

    #[test]
    fn tags_workload_builds() {
        let w = WorkloadConfig::tags().build(50, 2);
        assert_eq!(w.profiles.num_users(), 50);
        assert_eq!(w.measure, Measure::Jaccard);
        assert!(w.profiles.iter().all(|(_, p)| p.len() == 25));
    }

    #[test]
    fn workloads_are_deterministic() {
        for config in [WorkloadConfig::recommender(), WorkloadConfig::communities()] {
            let a = config.build(30, 9);
            let b = config.build(30, 9);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn communities_workload_builds() {
        let w = WorkloadConfig::communities().build(64, 3);
        assert_eq!(w.profiles.num_users(), 64);
        assert_eq!(w.measure, Measure::Cosine);
        assert!(w.name.contains("bipartite"));
    }

    /// Every measure must produce finite scores on the bipartite
    /// workload — the smoke check that the new generator plays with the
    /// whole similarity surface, not just cosine.
    #[test]
    fn communities_workload_smokes_every_measure() {
        use knn_sim::Similarity;
        let w = WorkloadConfig::communities().build(40, 11);
        for measure in Measure::ALL {
            let mut nontrivial = 0usize;
            for a in 0..10u32 {
                for b in (a + 1)..10 {
                    let s = measure.score(
                        w.profiles.get(knn_graph::UserId::new(a)),
                        w.profiles.get(knn_graph::UserId::new(b)),
                    );
                    assert!(s.is_finite(), "{measure} produced {s}");
                    if s != 0.0 {
                        nontrivial += 1;
                    }
                }
            }
            assert!(nontrivial > 0, "{measure} flat-zero on the workload");
        }
    }
}
