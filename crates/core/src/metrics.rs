//! Per-iteration metrics and reports.

use std::fmt;
use std::time::Duration;

use knn_store::{CacheCounters, IoSnapshot};

use crate::traversal::TraversalCost;

/// Candidate tuple counts of one iteration, summed over the buckets
/// phase 4 generated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TupleStats {
    /// Directed offers made (before dedup).
    pub offered: u64,
    /// Unique canonical tuples: bucket rows.
    pub unique: u64,
    /// Offers folded into another: `offered - unique`.
    pub duplicates: u64,
}

/// Names of the five phases, for display.
pub const PHASE_NAMES: [&str; 5] = [
    "partitioning",
    "tuple generation",
    "pi graph",
    "knn computation",
    "profile updates",
];

/// Everything measured during one engine iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationReport {
    /// Iteration index `t` (0-based; this report covers `G(t) → G(t+1)`).
    pub iteration: u64,
    /// Wall-clock time of each phase. Phase 5's entry runs to the
    /// iteration's end: the update apply, the stale-seed sweep, the
    /// suppression bookkeeping, the state persist and the commit — so
    /// the entries add up to the whole iteration.
    pub phase_durations: [Duration; 5],
    /// I/O performed by each phase, over the same spans as
    /// `phase_durations`: the entries add up to the backend meter's
    /// delta over the iteration. Phases 2 and 3 do no I/O: candidates
    /// are generated in RAM. Phase 5's carries the KNN-slice, metadata
    /// and commit writes.
    pub phase_io: [IoSnapshot; 5],
    /// Partition cache operations of phase 4 (the Table-1 metric).
    pub cache: CacheCounters,
    /// Dry-run prediction from the phase-3 schedule (must match
    /// `cache` when `cache_slots` agree).
    pub predicted: TraversalCost,
    /// Candidate tuple counts, from the buckets phase 4 generated.
    pub tuples: TupleStats,
    /// Number of schedule steps (PI pairs processed).
    pub schedule_len: usize,
    /// Similarity evaluations performed (kernels actually run).
    pub sims_computed: u64,
    /// Directed offers suppressed as redundant: generated
    /// through an all-old path between users whose standing is
    /// unchanged, so last iteration's verdict (replayed by the seeds)
    /// stands. They never became tuples, so they are counted in
    /// offers, not in unique tuples.
    pub sims_skipped: u64,
    /// Tuples dropped by the upper-bound filter: their O(1) score
    /// ceiling could not beat the current k-th accumulator entry.
    pub sims_pruned: u64,
    /// Accumulator entries seeded at the start of phase 4 from the
    /// rows of `G(t)` whose verdict replays, updated members carrying
    /// the fresh scores of the last phase 5's stale-seed sweep (the
    /// replayed prior verdicts that make suppression sound).
    pub accums_seeded: u64,
    /// Profile updates applied in phase 5.
    pub updates_applied: u64,
    /// The partitioning objective `Σ (N_in + N_out)` of this iteration.
    pub replication_cost: u64,
    /// Unique tuples whose two endpoints live in the same partition
    /// (the PI-graph diagonal) — the locality a placement policy buys:
    /// an intra-partition bucket needs one resident partition.
    pub intra_partition_tuples: u64,
    /// Fraction of `G(t)` edges absent from `G(t+1)`.
    pub changed_fraction: f64,
}

impl IterationReport {
    /// Kernel evaluations actually performed per second of phase-4
    /// time (suppressed/pruned tuples are not computations and do not
    /// inflate the rate); `None` when the phase was too fast to time.
    pub fn scan_rate(&self) -> Option<f64> {
        let secs = self.phase_durations[3].as_secs_f64();
        if secs > 0.0 {
            Some(self.sims_computed as f64 / secs)
        } else {
            None
        }
    }

    /// Share of avoided work: `(sims_skipped + sims_pruned) /
    /// (sims_computed + sims_skipped + sims_pruned)`; 0 when all three
    /// are 0. It mixes units — `sims_skipped` counts suppressed
    /// directed offers, the other two count unique tuples — so read it
    /// as a trend, not as a share of one population.
    pub fn sims_avoided_fraction(&self) -> f64 {
        let total = self.sims_computed + self.sims_skipped + self.sims_pruned;
        if total == 0 {
            0.0
        } else {
            (self.sims_skipped + self.sims_pruned) as f64 / total as f64
        }
    }

    /// Total wall-clock time across phases.
    pub fn total_duration(&self) -> Duration {
        self.phase_durations.iter().sum()
    }

    /// Total bytes moved (read + write) across phases.
    pub fn total_bytes(&self) -> u64 {
        self.phase_io.iter().map(IoSnapshot::bytes_total).sum()
    }

    /// Transient-I/O retries performed across phases (0 in a clean
    /// run; nonzero only when the backend reported
    /// [`knn_store::StoreError::Transient`] failures that the retry
    /// policy absorbed).
    pub fn retries(&self) -> u64 {
        self.phase_io.iter().map(|io| io.retries).sum()
    }

    /// Staged-backup restores performed across phases (0 in a clean
    /// run; nonzero only when crash recovery rolled streams back).
    pub fn rollbacks(&self) -> u64 {
        self.phase_io.iter().map(|io| io.rollbacks).sum()
    }

    /// Fraction of this iteration's unique tuples that stayed inside
    /// one partition; 0 when there were no tuples. Higher is better —
    /// cluster placement (`EngineConfig::clustering`) exists to raise
    /// this number.
    pub fn intra_partition_tuple_fraction(&self) -> f64 {
        if self.tuples.unique == 0 {
            0.0
        } else {
            self.intra_partition_tuples as f64 / self.tuples.unique as f64
        }
    }
}

impl fmt::Display for IterationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "iteration {}:", self.iteration)?;
        for (i, name) in PHASE_NAMES.iter().enumerate() {
            writeln!(
                f,
                "  {:>2}. {:<17} {:>9.3?}  read {:>12} B  wrote {:>12} B",
                i + 1,
                name,
                self.phase_durations[i],
                self.phase_io[i].bytes_read,
                self.phase_io[i].bytes_written,
            )?;
        }
        writeln!(
            f,
            "  tuples: {} offered, {} unique, {} duplicates",
            self.tuples.offered, self.tuples.unique, self.tuples.duplicates
        )?;
        writeln!(
            f,
            "  schedule: {} pairs; partition ops: {} loads + {} unloads = {} (predicted {})",
            self.schedule_len,
            self.cache.loads,
            self.cache.unloads,
            self.cache.total_ops(),
            self.predicted.total_ops(),
        )?;
        writeln!(
            f,
            "  similarities: {} computed, {} skipped, {} pruned ({:.1}% avoided); {} seeds",
            self.sims_computed,
            self.sims_skipped,
            self.sims_pruned,
            self.sims_avoided_fraction() * 100.0,
            self.accums_seeded,
        )?;
        writeln!(
            f,
            "  locality: {} intra-partition tuples ({:.1}%)",
            self.intra_partition_tuples,
            self.intra_partition_tuple_fraction() * 100.0
        )?;
        writeln!(
            f,
            "  replication cost: {}; updates: {}; changed: {:.2}%",
            self.replication_cost,
            self.updates_applied,
            self.changed_fraction * 100.0
        )
    }
}

/// Outcome of [`crate::KnnEngine::run_until_converged`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceOutcome {
    /// Whether the change fraction dropped below the threshold.
    pub converged: bool,
    /// Iterations executed.
    pub iterations_run: usize,
    /// The final change fraction observed.
    pub final_change_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IterationReport {
        let phase_io = [IoSnapshot {
            bytes_read: 100,
            bytes_written: 50,
            ..Default::default()
        }; 5];
        IterationReport {
            iteration: 3,
            phase_durations: [Duration::from_millis(10); 5],
            phase_io,
            cache: CacheCounters {
                loads: 10,
                unloads: 10,
                hits: 4,
            },
            predicted: TraversalCost {
                loads: 10,
                unloads: 10,
                hits: 4,
                steps: 7,
            },
            tuples: TupleStats {
                offered: 100,
                unique: 80,
                duplicates: 20,
            },
            schedule_len: 7,
            sims_computed: 80,
            sims_skipped: 15,
            sims_pruned: 5,
            accums_seeded: 12,
            updates_applied: 2,
            replication_cost: 42,
            intra_partition_tuples: 20,
            changed_fraction: 0.25,
        }
    }

    #[test]
    fn display_mentions_every_phase() {
        let text = sample().to_string();
        for name in PHASE_NAMES {
            assert!(text.contains(name), "missing {name} in {text}");
        }
        assert!(text.contains("predicted 20"));
    }

    #[test]
    fn totals_sum_phases() {
        let r = sample();
        assert_eq!(r.total_duration(), Duration::from_millis(50));
        assert_eq!(r.total_bytes(), 5 * 150);
    }

    #[test]
    fn retries_and_rollbacks_sum_phases() {
        let mut r = sample();
        assert_eq!(r.retries(), 0);
        assert_eq!(r.rollbacks(), 0);
        r.phase_io[1].retries = 3;
        r.phase_io[4].retries = 2;
        r.phase_io[0].rollbacks = 1;
        assert_eq!(r.retries(), 5);
        assert_eq!(r.rollbacks(), 1);
    }

    #[test]
    fn scan_rate_uses_phase4_time_and_only_computed_sims() {
        let r = sample();
        let rate = r.scan_rate().unwrap();
        // 80 computed / 10ms — skipped and pruned tuples don't count.
        assert!((rate - 8000.0).abs() < 1e-6, "{rate}");
    }

    #[test]
    fn avoided_fraction_counts_skips_and_prunes() {
        let r = sample();
        // (15 + 5) / (80 + 15 + 5)
        assert!((r.sims_avoided_fraction() - 0.2).abs() < 1e-9);
        let empty = IterationReport {
            sims_computed: 0,
            sims_skipped: 0,
            sims_pruned: 0,
            ..sample()
        };
        assert_eq!(empty.sims_avoided_fraction(), 0.0);
    }

    #[test]
    fn display_reports_the_scoring_funnel() {
        let text = sample().to_string();
        assert!(text.contains("80 computed"), "{text}");
        assert!(text.contains("15 skipped"), "{text}");
        assert!(text.contains("5 pruned"), "{text}");
        assert!(text.contains("12 seeds"), "{text}");
    }

    #[test]
    fn intra_partition_fraction_counts_unique_tuples() {
        let r = sample();
        // 20 intra / 80 unique.
        assert!((r.intra_partition_tuple_fraction() - 0.25).abs() < 1e-9);
        assert!(r.to_string().contains("20 intra-partition tuples (25.0%)"));
        let empty = IterationReport {
            intra_partition_tuples: 0,
            tuples: TupleStats::default(),
            ..sample()
        };
        assert_eq!(empty.intra_partition_tuple_fraction(), 0.0);
    }
}
