//! Global I/O accounting.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Sub};
use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic counters observing every storage operation the engine
/// performs. Shared (`Arc<IoStats>`) between the engine, the partition
/// cache, and the record files; the disk models replay a
/// [snapshot](IoStats::snapshot) as simulated device time.
///
/// # Concurrency contract
///
/// The partition-parallel engine meters from many worker threads at
/// once, so every counter is a lock-free atomic: concurrent
/// `record_*` calls never lose an increment, and a run's totals equal
/// the sum of its operations regardless of interleaving. Consequently
/// a parallel iteration and a sequential one that perform the same
/// multiset of storage operations report **identical totals** — the
/// `parallel_equivalence` suite asserts exactly that. Snapshots taken
/// while workers are mid-flight are torn only *across* counters
/// (relaxed loads), never within one; the engine snapshots at phase
/// boundaries, where no worker is active.
#[derive(Debug, Default)]
pub struct IoStats {
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    read_ops: AtomicU64,
    write_ops: AtomicU64,
    partition_loads: AtomicU64,
    partition_unloads: AtomicU64,
    log_drain_bytes: AtomicU64,
    retries: AtomicU64,
    rollbacks: AtomicU64,
}

impl IoStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one read operation of `bytes` bytes.
    pub fn record_read(&self, bytes: u64) {
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.read_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one write operation of `bytes` bytes.
    pub fn record_write(&self, bytes: u64) {
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.write_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one partition load (the Table-1 "load" op).
    pub fn record_partition_load(&self) {
        self.partition_loads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one partition unload (the Table-1 "unload" op).
    pub fn record_partition_unload(&self) {
        self.partition_unloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `bytes` drained from the durable update log. Metered as
    /// bytes only — deliberately **not** as a read operation — because
    /// the number of log *files* behind one logical drain is a
    /// deployment detail (a sharded engine drains one log per shard),
    /// while the byte total is a pure function of the queued updates.
    pub fn record_log_drain(&self, bytes: u64) {
        self.log_drain_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one retried storage operation (a transient failure that
    /// was re-attempted under the bounded retry policy). Zero in any
    /// fault-free run, so the cross-backend/thread/shard equality
    /// contracts are unaffected.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one generation rollback performed during crash
    /// recovery (staged backups restored over torn committed streams).
    /// Zero in any run that never crashed.
    pub fn record_rollback(&self) {
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds another meter's current totals into this one. Each
    /// counter is added atomically, but not all counters at once.
    #[cfg(test)]
    fn merge(&self, other: &IoStats) {
        let snap = other.snapshot();
        self.bytes_read
            .fetch_add(snap.bytes_read, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(snap.bytes_written, Ordering::Relaxed);
        self.read_ops.fetch_add(snap.read_ops, Ordering::Relaxed);
        self.write_ops.fetch_add(snap.write_ops, Ordering::Relaxed);
        self.partition_loads
            .fetch_add(snap.partition_loads, Ordering::Relaxed);
        self.partition_unloads
            .fetch_add(snap.partition_unloads, Ordering::Relaxed);
        self.log_drain_bytes
            .fetch_add(snap.log_drain_bytes, Ordering::Relaxed);
        self.retries.fetch_add(snap.retries, Ordering::Relaxed);
        self.rollbacks.fetch_add(snap.rollbacks, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot of all counters (individual
    /// counters are read relaxed; exactness across counters is not
    /// needed for reporting).
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            read_ops: self.read_ops.load(Ordering::Relaxed),
            write_ops: self.write_ops.load(Ordering::Relaxed),
            partition_loads: self.partition_loads.load(Ordering::Relaxed),
            partition_unloads: self.partition_unloads.load(Ordering::Relaxed),
            spill_bytes: 0,
            spill_runs: 0,
            merge_passes: 0,
            log_drain_bytes: self.log_drain_bytes.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.read_ops.store(0, Ordering::Relaxed);
        self.write_ops.store(0, Ordering::Relaxed);
        self.partition_loads.store(0, Ordering::Relaxed);
        self.partition_unloads.store(0, Ordering::Relaxed);
        self.log_drain_bytes.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.rollbacks.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`IoStats`] counters.
///
/// Snapshots subtract (`after - before`) to delimit a phase:
///
/// ```
/// use knn_store::IoStats;
///
/// let stats = IoStats::new();
/// let before = stats.snapshot();
/// stats.record_read(4096);
/// let delta = stats.snapshot() - before;
/// assert_eq!(delta.bytes_read, 4096);
/// assert_eq!(delta.read_ops, 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Number of read operations.
    pub read_ops: u64,
    /// Number of write operations.
    pub write_ops: u64,
    /// Number of partition load operations.
    pub partition_loads: u64,
    /// Number of partition unload operations.
    pub partition_unloads: u64,
    /// Bytes written into tuple spill runs. Always 0 from a meter:
    /// candidate tuples are generated in RAM and never spilled. The
    /// field stays for the benchmark's ledger, which still reads it.
    pub spill_bytes: u64,
    /// Number of tuple spill runs written: always 0, like
    /// `spill_bytes`.
    pub spill_runs: u64,
    /// Number of k-way merge passes over spill runs: always 0, like
    /// `spill_bytes`.
    pub merge_passes: u64,
    /// Bytes drained from the durable update log (bytes only; log
    /// drains carry no operation count — see
    /// [`IoStats::record_log_drain`]).
    pub log_drain_bytes: u64,
    /// Number of storage operations retried after a transient failure
    /// (zero on a fault-free run).
    pub retries: u64,
    /// Number of generation rollbacks performed during crash recovery
    /// (zero on a run that never crashed).
    pub rollbacks: u64,
}

impl IoSnapshot {
    /// Loads + unloads: the paper's Table-1 metric.
    pub fn partition_ops(&self) -> u64 {
        self.partition_loads + self.partition_unloads
    }

    /// Total bytes moved in either direction.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

impl Sub for IoSnapshot {
    type Output = IoSnapshot;

    fn sub(self, rhs: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            bytes_read: self.bytes_read.saturating_sub(rhs.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(rhs.bytes_written),
            read_ops: self.read_ops.saturating_sub(rhs.read_ops),
            write_ops: self.write_ops.saturating_sub(rhs.write_ops),
            partition_loads: self.partition_loads.saturating_sub(rhs.partition_loads),
            partition_unloads: self.partition_unloads.saturating_sub(rhs.partition_unloads),
            spill_bytes: self.spill_bytes.saturating_sub(rhs.spill_bytes),
            spill_runs: self.spill_runs.saturating_sub(rhs.spill_runs),
            merge_passes: self.merge_passes.saturating_sub(rhs.merge_passes),
            log_drain_bytes: self.log_drain_bytes.saturating_sub(rhs.log_drain_bytes),
            retries: self.retries.saturating_sub(rhs.retries),
            rollbacks: self.rollbacks.saturating_sub(rhs.rollbacks),
        }
    }
}

impl Add for IoSnapshot {
    type Output = IoSnapshot;

    fn add(self, rhs: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            bytes_read: self.bytes_read + rhs.bytes_read,
            bytes_written: self.bytes_written + rhs.bytes_written,
            read_ops: self.read_ops + rhs.read_ops,
            write_ops: self.write_ops + rhs.write_ops,
            partition_loads: self.partition_loads + rhs.partition_loads,
            partition_unloads: self.partition_unloads + rhs.partition_unloads,
            spill_bytes: self.spill_bytes + rhs.spill_bytes,
            spill_runs: self.spill_runs + rhs.spill_runs,
            merge_passes: self.merge_passes + rhs.merge_passes,
            log_drain_bytes: self.log_drain_bytes + rhs.log_drain_bytes,
            retries: self.retries + rhs.retries,
            rollbacks: self.rollbacks + rhs.rollbacks,
        }
    }
}

/// Sums per-shard (or per-phase) snapshots into one total, counter by
/// counter — the canonical way to aggregate I/O across backends.
impl Sum for IoSnapshot {
    fn sum<I: Iterator<Item = IoSnapshot>>(iter: I) -> IoSnapshot {
        iter.fold(IoSnapshot::default(), Add::add)
    }
}

impl fmt::Display for IoSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "read {} B in {} ops, wrote {} B in {} ops, {} loads / {} unloads, \
             {} B spilled in {} runs / {} merges, {} B drained from the log, \
             {} retries / {} rollbacks",
            self.bytes_read,
            self.read_ops,
            self.bytes_written,
            self.write_ops,
            self.partition_loads,
            self.partition_unloads,
            self.spill_bytes,
            self.spill_runs,
            self.merge_passes,
            self.log_drain_bytes,
            self.retries,
            self.rollbacks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.record_read(10);
        s.record_read(20);
        s.record_write(5);
        s.record_partition_load();
        s.record_partition_unload();
        let snap = s.snapshot();
        assert_eq!(snap.bytes_read, 30);
        assert_eq!(snap.read_ops, 2);
        assert_eq!(snap.bytes_written, 5);
        assert_eq!(snap.write_ops, 1);
        assert_eq!(snap.partition_ops(), 2);
        assert_eq!(snap.bytes_total(), 35);
    }

    #[test]
    fn snapshot_subtraction_delimits_a_phase() {
        let s = IoStats::new();
        s.record_read(100);
        let before = s.snapshot();
        s.record_write(50);
        let delta = s.snapshot() - before;
        assert_eq!(delta.bytes_read, 0);
        assert_eq!(delta.bytes_written, 50);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = IoStats::new();
        s.record_read(1);
        s.record_partition_load();
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let s = Arc::new(IoStats::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_read(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.snapshot().bytes_read, 8000);
        assert_eq!(s.snapshot().read_ops, 8000);
    }

    /// The full concurrency contract: every counter — not just reads —
    /// holds its exact total under mixed multi-threaded metering, so
    /// parallel and sequential runs of the same operations report the
    /// same snapshot.
    #[test]
    fn concurrent_mixed_ops_preserve_every_counter() {
        let s = Arc::new(IoStats::new());
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        s.record_read(t + i);
                        s.record_write(2 * (t + i));
                        if i % 5 == 0 {
                            s.record_partition_load();
                            s.record_partition_unload();
                        }
                    }
                });
            }
        });
        let per_thread: u64 = (0..500).sum::<u64>();
        let expected_read: u64 = (0..8).map(|t| 500 * t + per_thread).sum();
        let snap = s.snapshot();
        assert_eq!(snap.bytes_read, expected_read);
        assert_eq!(snap.bytes_written, 2 * expected_read);
        assert_eq!(snap.read_ops, 4000);
        assert_eq!(snap.write_ops, 4000);
        assert_eq!(snap.partition_loads, 800);
        assert_eq!(snap.partition_unloads, 800);
    }

    /// The legacy spill and merge fields read 0 from a meter, and
    /// snapshot arithmetic still carries them.
    #[test]
    fn spill_and_merge_counters_accumulate_and_subtract() {
        let s = IoStats::new();
        s.record_write(100);
        let snap = s.snapshot();
        assert_eq!(
            (snap.spill_bytes, snap.spill_runs, snap.merge_passes),
            (0, 0, 0)
        );
        let legacy = IoSnapshot {
            spill_bytes: 150,
            spill_runs: 2,
            merge_passes: 1,
            ..IoSnapshot::default()
        };
        let sum = snap + legacy;
        assert_eq!(
            (sum.spill_bytes, sum.spill_runs, sum.merge_passes),
            (150, 2, 1)
        );
        assert_eq!(sum - legacy, snap);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn log_drains_count_bytes_but_no_ops() {
        let s = IoStats::new();
        s.record_log_drain(64);
        s.record_log_drain(0);
        let snap = s.snapshot();
        assert_eq!(snap.log_drain_bytes, 64);
        assert_eq!(snap.read_ops, 0);
        assert_eq!(snap.bytes_read, 0);
    }

    #[test]
    fn merge_folds_every_counter() {
        let total = IoStats::new();
        let a = IoStats::new();
        a.record_read(10);
        a.record_log_drain(7);
        let b = IoStats::new();
        b.record_write(20);
        b.record_partition_load();
        total.merge(&a);
        total.merge(&b);
        assert_eq!(total.snapshot(), a.snapshot() + b.snapshot());
    }

    #[test]
    fn snapshots_add_and_sum() {
        let a = IoStats::new();
        a.record_read(5);
        a.record_write(6);
        let b = IoStats::new();
        b.record_partition_unload();
        b.record_log_drain(9);
        let summed: IoSnapshot = [a.snapshot(), b.snapshot(), IoSnapshot::default()]
            .into_iter()
            .sum();
        assert_eq!(summed, a.snapshot() + b.snapshot());
        assert_eq!(summed.bytes_read, 5);
        assert_eq!(summed.partition_unloads, 1);
        assert_eq!(summed.log_drain_bytes, 9);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!IoSnapshot::default().to_string().is_empty());
    }

    #[test]
    fn retry_and_rollback_counters_round_trip() {
        let s = IoStats::new();
        s.record_retry();
        s.record_retry();
        s.record_rollback();
        let snap = s.snapshot();
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.rollbacks, 1);
        let total = IoStats::new();
        total.merge(&s);
        assert_eq!(total.snapshot().retries, 2);
        assert_eq!(total.snapshot().rollbacks, 1);
        let delta = snap - IoSnapshot::default();
        assert_eq!(delta.retries, 2);
        assert_eq!((snap + snap).rollbacks, 2);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }
}
