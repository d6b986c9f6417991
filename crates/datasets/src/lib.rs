//! Synthetic replicas of the paper's evaluation datasets and workload
//! presets.
//!
//! The Middleware'14 paper evaluates its PI-graph traversal heuristics
//! (Table 1) on six SNAP networks. This environment has no network
//! access, so [`Table1Dataset`] regenerates each as a seeded synthetic
//! graph matched on the paper's **exact node and edge counts** with a
//! calibrated core–periphery degree structure — the two properties the
//! Table-1 metric actually depends on (total pair count and how small a
//! vertex set covers all edges). Per-dataset core parameters were
//! calibrated so that the sequential-heuristic operation count and the
//! degree-heuristic savings land in the paper's reported ranges. The
//! substitution is documented in DESIGN.md §5.
//!
//! ```
//! use knn_datasets::Table1Dataset;
//!
//! let wiki = Table1Dataset::WikiVote;
//! let edges = wiki.generate(42);
//! assert_eq!(edges.len(), wiki.paper_edges());
//! ```

#![warn(unreachable_pub, missing_docs)]

pub mod workloads;

pub use workloads::{Workload, WorkloadConfig};

use knn_graph::generators::{core_periphery, CorePeripheryConfig};
use knn_graph::EdgePair;

/// The six datasets of the paper's Table 1, with the node/edge counts
/// and the Seq / High-Low / Low-High load-unload operation counts the
/// paper reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Table1Dataset {
    /// Wikipedia adminship votes (SNAP `wiki-Vote`).
    WikiVote,
    /// General Relativity collaboration (SNAP `ca-GrQc`).
    GeneralRelativity,
    /// High Energy Physics collaboration (SNAP `ca-HepPh`).
    HighEnergy,
    /// Astrophysics collaboration (SNAP `ca-AstroPh`).
    AstroPhysics,
    /// Enron e-mail network (SNAP `email-Enron`).
    Email,
    /// Gnutella peer-to-peer snapshot (SNAP `p2p-Gnutella24`).
    Gnutella,
}

/// The paper's Table-1 row for one dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperRow {
    /// Dataset label as printed in the paper.
    pub label: &'static str,
    /// Node count.
    pub nodes: usize,
    /// Edge count (unique pairs).
    pub edges: usize,
    /// Load/unload operations, sequential heuristic.
    pub seq_ops: u64,
    /// Load/unload operations, degree high→low heuristic.
    pub high_low_ops: u64,
    /// Load/unload operations, degree low→high heuristic.
    pub low_high_ops: u64,
}

impl Table1Dataset {
    /// All six datasets in the paper's row order.
    pub const ALL: [Table1Dataset; 6] = [
        Table1Dataset::WikiVote,
        Table1Dataset::GeneralRelativity,
        Table1Dataset::HighEnergy,
        Table1Dataset::AstroPhysics,
        Table1Dataset::Email,
        Table1Dataset::Gnutella,
    ];

    /// The numbers the paper reports for this dataset.
    pub fn paper_row(&self) -> PaperRow {
        match self {
            Table1Dataset::WikiVote => PaperRow {
                label: "Wiki-Vote",
                nodes: 7115,
                edges: 100_762,
                seq_ops: 211_856,
                high_low_ops: 204_706,
                low_high_ops: 202_290,
            },
            Table1Dataset::GeneralRelativity => PaperRow {
                label: "Gen. Rel.",
                nodes: 5241,
                edges: 14_484,
                seq_ops: 34_506,
                high_low_ops: 32_220,
                low_high_ops: 31_256,
            },
            Table1Dataset::HighEnergy => PaperRow {
                label: "High Ener.",
                nodes: 12_006,
                edges: 118_489,
                seq_ops: 252_754,
                high_low_ops: 242_132,
                low_high_ops: 240_872,
            },
            Table1Dataset::AstroPhysics => PaperRow {
                label: "AstroPhy.",
                nodes: 18_771,
                edges: 198_050,
                seq_ops: 420_442,
                high_low_ops: 400_050,
                low_high_ops: 401_770,
            },
            Table1Dataset::Email => PaperRow {
                label: "E-mail",
                nodes: 36_692,
                edges: 183_831,
                seq_ops: 399_604,
                high_low_ops: 382_928,
                low_high_ops: 379_312,
            },
            Table1Dataset::Gnutella => PaperRow {
                label: "Gnutella",
                nodes: 26_518,
                edges: 65_369,
                seq_ops: 157_040,
                high_low_ops: 144_072,
                low_high_ops: 132_710,
            },
        }
    }

    /// Paper's node count.
    pub fn paper_nodes(&self) -> usize {
        self.paper_row().nodes
    }

    /// Paper's edge count (unique pairs).
    pub fn paper_edges(&self) -> usize {
        self.paper_row().edges
    }

    /// The replica's calibrated core–periphery parameters
    /// `(core_fraction, p_periphery, core_alpha)`.
    ///
    /// The strongly bipartite networks (Wiki-Vote's voters→candidates,
    /// Gnutella's leaves→ultrapeers) get small cores with few
    /// periphery–periphery edges; the collaboration and e-mail
    /// networks get larger, flatter cores. Calibrated so that both the
    /// sequential operation count and the degree-heuristic savings of
    /// the Table-1 simulation land in the paper's reported ranges
    /// (see EXPERIMENTS.md, experiment T1).
    fn shape(&self) -> (f64, f64, f64) {
        match self {
            Table1Dataset::WikiVote => (0.20, 0.02, 0.6),
            Table1Dataset::GeneralRelativity => (0.30, 0.20, 0.4),
            Table1Dataset::HighEnergy => (0.25, 0.05, 0.6),
            Table1Dataset::AstroPhysics => (0.12, 0.05, 0.6),
            Table1Dataset::Email => (0.35, 0.30, 0.5),
            Table1Dataset::Gnutella => (0.10, 0.08, 0.3),
        }
    }

    /// Generates the synthetic replica: exactly
    /// [`paper_nodes`](Self::paper_nodes) vertices and
    /// [`paper_edges`](Self::paper_edges) unique undirected pairs,
    /// heavy-tailed with a calibrated core, deterministic in `seed`.
    pub fn generate(&self, seed: u64) -> Vec<EdgePair> {
        let row = self.paper_row();
        let (core_fraction, p_periphery, core_alpha) = self.shape();
        core_periphery(
            CorePeripheryConfig::new(row.nodes, row.edges, seed)
                .with_core_fraction(core_fraction)
                .with_p_periphery(p_periphery)
                .with_core_alpha(core_alpha),
        )
    }
}

impl std::fmt::Display for Table1Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_row().label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_graph::generators::validate_undirected;
    use knn_graph::DegreeStats;

    #[test]
    fn replicas_match_paper_counts_exactly() {
        for ds in Table1Dataset::ALL {
            let row = ds.paper_row();
            let edges = ds.generate(1);
            assert_eq!(edges.len(), row.edges, "{ds} edge count");
            assert!(validate_undirected(row.nodes, &edges), "{ds} validity");
        }
    }

    #[test]
    fn replicas_are_deterministic() {
        let a = Table1Dataset::GeneralRelativity.generate(7);
        let b = Table1Dataset::GeneralRelativity.generate(7);
        let c = Table1Dataset::GeneralRelativity.generate(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn replicas_are_heavy_tailed() {
        for ds in [Table1Dataset::WikiVote, Table1Dataset::Email] {
            let row = ds.paper_row();
            let edges = ds.generate(3);
            let stats = DegreeStats::from_undirected_edges(row.nodes, &edges);
            assert!(
                stats.max as f64 > 8.0 * stats.mean,
                "{ds}: max {} vs mean {}",
                stats.max,
                stats.mean
            );
            assert!(stats.gini > 0.3, "{ds}: gini {}", stats.gini);
        }
    }

    #[test]
    fn paper_rows_match_the_printed_table() {
        // Spot-check the transcription against the paper text.
        let wiki = Table1Dataset::WikiVote.paper_row();
        assert_eq!((wiki.nodes, wiki.edges), (7115, 100_762));
        assert_eq!(wiki.seq_ops, 211_856);
        let gnutella = Table1Dataset::Gnutella.paper_row();
        assert_eq!(gnutella.low_high_ops, 132_710);
    }

    #[test]
    fn paper_degree_heuristics_beat_sequential_in_the_table() {
        for ds in Table1Dataset::ALL {
            let row = ds.paper_row();
            assert!(row.high_low_ops < row.seq_ops, "{ds}");
            assert!(row.low_high_ops < row.seq_ops, "{ds}");
        }
    }

    #[test]
    fn display_uses_paper_labels() {
        assert_eq!(Table1Dataset::HighEnergy.to_string(), "High Ener.");
    }
}
