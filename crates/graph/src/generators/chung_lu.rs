//! Chung–Lu power-law generator with an exact edge count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

use super::norm;
use crate::EdgePair;

/// Configuration for the [`chung_lu`] power-law generator.
///
/// The generator draws both endpoints of every edge from the weight
/// distribution `w_i ∝ (i + offset)^(−alpha)`, which yields expected
/// degrees following a power law with exponent `gamma ≈ 1 + 1/alpha`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChungLuConfig {
    /// Number of vertices.
    pub n: usize,
    /// Exact number of distinct unordered edges to produce.
    pub num_edges: usize,
    /// Weight decay exponent `alpha` (0 < alpha < 1 typical; larger =
    /// more skewed hubs). `alpha = 0.5` ⇒ degree exponent `γ ≈ 3`.
    pub alpha: f64,
    /// Rank offset smoothing the head of the distribution.
    pub offset: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ChungLuConfig {
    /// A reasonable default shape for social/collaboration networks:
    /// `alpha = 0.6`, `offset = 10`.
    pub fn new(n: usize, num_edges: usize, seed: u64) -> Self {
        ChungLuConfig {
            n,
            num_edges,
            alpha: 0.6,
            offset: 10.0,
            seed,
        }
    }

    /// Overrides the decay exponent.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }
}

/// Generates a heavy-tailed random graph with **exactly**
/// `config.num_edges` distinct unordered edges over `config.n` vertices
/// (Chung–Lu sampling with rejection of duplicates and self-loops, plus
/// a uniform top-up if weighted sampling stalls near saturation).
/// Deterministic in `config.seed`.
///
/// This is the generator behind the Table-1 dataset replicas: the
/// paper's metric depends on degree structure, which Chung–Lu matches,
/// while the exact `(n, M)` match keeps the op-count magnitudes
/// comparable.
///
/// # Panics
///
/// Panics if `num_edges > n·(n−1)/2`, if `alpha` is not in `(0, 1]`, or
/// if `offset <= 0`.
///
/// ```
/// use knn_graph::generators::{chung_lu, ChungLuConfig, validate_undirected};
///
/// let edges = chung_lu(ChungLuConfig::new(1000, 5000, 7));
/// assert_eq!(edges.len(), 5000);
/// assert!(validate_undirected(1000, &edges));
/// ```
pub fn chung_lu(config: ChungLuConfig) -> Vec<EdgePair> {
    let ChungLuConfig {
        n,
        num_edges,
        alpha,
        offset,
        seed,
    } = config;
    let possible = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(
        num_edges <= possible,
        "requested {num_edges} edges but only {possible} distinct pairs exist for n={n}"
    );
    assert!(
        alpha > 0.0 && alpha <= 1.0,
        "alpha must be in (0, 1], got {alpha}"
    );
    assert!(offset > 0.0, "offset must be positive, got {offset}");

    let mut rng = StdRng::seed_from_u64(seed);

    // Cumulative weights for inverse-CDF sampling of ranked vertices.
    let mut cumulative = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    for i in 0..n {
        acc += (i as f64 + offset).powf(-alpha);
        cumulative.push(acc);
    }
    let total = acc;

    let sample_vertex = |rng: &mut StdRng| -> u32 {
        let x = rng.random_range(0.0..total);
        cumulative.partition_point(|&c| c <= x) as u32
    };

    let mut seen: HashSet<EdgePair> = HashSet::with_capacity(num_edges);
    let mut edges = Vec::with_capacity(num_edges);

    // Weighted phase: stop if rejections dominate (dense head saturated).
    let max_attempts = num_edges.saturating_mul(50).max(1000);
    let mut attempts = 0usize;
    while edges.len() < num_edges && attempts < max_attempts {
        attempts += 1;
        let a = sample_vertex(&mut rng);
        let b = sample_vertex(&mut rng);
        if a == b {
            continue;
        }
        let pair = norm(a, b);
        if seen.insert(pair) {
            edges.push(pair);
        }
    }

    // Uniform top-up: guarantees the exact edge count terminates.
    while edges.len() < num_edges {
        let a = rng.random_range(0..n as u32);
        let b = rng.random_range(0..n as u32);
        if a == b {
            continue;
        }
        let pair = norm(a, b);
        if seen.insert(pair) {
            edges.push(pair);
        }
    }

    edges.sort_unstable();
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::validate_undirected;

    #[test]
    fn exact_vertex_and_edge_counts() {
        let edges = chung_lu(ChungLuConfig::new(500, 2000, 11));
        assert_eq!(edges.len(), 2000);
        assert!(validate_undirected(500, &edges));
    }

    #[test]
    fn deterministic_in_seed() {
        let a = chung_lu(ChungLuConfig::new(300, 900, 4));
        let b = chung_lu(ChungLuConfig::new(300, 900, 4));
        let c = chung_lu(ChungLuConfig::new(300, 900, 5));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let n = 2000;
        let edges = chung_lu(ChungLuConfig::new(n, 10_000, 3));
        let mut deg = vec![0usize; n];
        for &(a, b) in &edges {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        deg.sort_unstable_by(|a, b| b.cmp(a));
        let mean = 2.0 * 10_000.0 / n as f64;
        // The hubs should far exceed the mean degree.
        assert!(
            deg[0] as f64 > 5.0 * mean,
            "max degree {} not heavy-tailed vs mean {mean}",
            deg[0]
        );
        // ... and the top 1% of vertices should hold a disproportionate
        // share of the endpoints (expected ≈7.5% for alpha=0.6, vs 1%
        // under a uniform distribution).
        let top: usize = deg.iter().take(n / 100).sum();
        assert!(
            top as f64 > 0.05 * 20_000.0,
            "top-1% endpoint share too small: {top}"
        );
    }

    #[test]
    fn saturating_a_small_graph_terminates() {
        let n = 12;
        let all = n * (n - 1) / 2;
        let edges = chung_lu(ChungLuConfig::new(n, all, 0));
        assert_eq!(edges.len(), all);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        let _ = chung_lu(ChungLuConfig::new(10, 5, 0).with_alpha(1.5));
    }

    #[test]
    #[should_panic(expected = "distinct pairs")]
    fn rejects_impossible_edge_count() {
        let _ = chung_lu(ChungLuConfig::new(4, 1000, 0));
    }
}
