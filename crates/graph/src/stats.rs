//! Structural statistics used to validate the synthetic dataset
//! replicas against the shapes the paper's datasets exhibit.

use crate::EdgePair;

/// Summary statistics of an (undirected) degree sequence.
///
/// ```
/// use knn_graph::DegreeStats;
///
/// let stats = DegreeStats::from_undirected_edges(4, &[(0, 1), (1, 2), (1, 3)]);
/// assert_eq!(stats.max, 3);
/// assert_eq!(stats.mean, 1.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Gini coefficient of the degree sequence (0 = uniform,
    /// → 1 = concentrated on few hubs).
    pub gini: f64,
    /// Number of isolated (degree-0) vertices.
    pub isolated: usize,
}

impl DegreeStats {
    /// Computes degree statistics for an undirected pair list over `n`
    /// vertices.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_undirected_edges(n: usize, edges: &[EdgePair]) -> Self {
        let mut deg = vec![0usize; n];
        for &(a, b) in edges {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        Self::from_degrees(&deg)
    }

    /// Computes statistics from an explicit degree sequence.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty.
    pub fn from_degrees(degrees: &[usize]) -> Self {
        assert!(!degrees.is_empty(), "degree sequence must be non-empty");
        let n = degrees.len();
        let sum: usize = degrees.iter().sum();
        let min = *degrees.iter().min().expect("non-empty");
        let max = *degrees.iter().max().expect("non-empty");
        let mean = sum as f64 / n as f64;
        let isolated = degrees.iter().filter(|&&d| d == 0).count();

        // Gini via the sorted-sequence formula.
        let mut sorted: Vec<usize> = degrees.to_vec();
        sorted.sort_unstable();
        let gini = if sum == 0 {
            0.0
        } else {
            let weighted: f64 = sorted
                .iter()
                .enumerate()
                .map(|(i, &d)| (2.0 * (i as f64 + 1.0) - n as f64 - 1.0) * d as f64)
                .sum();
            weighted / (n as f64 * sum as f64)
        };

        DegreeStats {
            min,
            max,
            mean,
            gini,
            isolated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_graph_stats() {
        // Star: center 0 connected to 1..=4.
        let edges = [(0, 1), (0, 2), (0, 3), (0, 4)];
        let s = DegreeStats::from_undirected_edges(5, &edges);
        assert_eq!(s.max, 4);
        assert_eq!(s.min, 1);
        assert_eq!(s.mean, 8.0 / 5.0);
        assert_eq!(s.isolated, 0);
        assert!(s.gini > 0.0);
    }

    #[test]
    fn uniform_degrees_have_zero_gini() {
        let s = DegreeStats::from_degrees(&[3, 3, 3, 3]);
        assert!(s.gini.abs() < 1e-12);
    }

    #[test]
    fn empty_graph_has_zero_gini_and_all_isolated() {
        let s = DegreeStats::from_undirected_edges(4, &[]);
        assert_eq!(s.isolated, 4);
        assert_eq!(s.gini, 0.0);
        assert_eq!(s.mean, 0.0);
    }
}
