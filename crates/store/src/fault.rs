//! Deterministic storage fault injection.
//!
//! [`FaultBackend`] wraps any [`StorageBackend`] and executes a seeded,
//! scripted [`FaultPlan`]: while **armed**, it counts every I/O
//! operation the engine issues and fails the `fail_at`-th one with the
//! scripted [`FaultKind`] — a hard crash, a torn write that persists
//! only a seeded prefix of the frame, a bounded run of transient
//! errors, or storage exhaustion. Arming is explicit so a harness can
//! scope the plan to exactly the region under test (one engine
//! iteration, say) and keep setup traffic off the op counter.
//!
//! Determinism is the point: the same plan over the same workload
//! fails the same operation with the same torn prefix every run, which
//! is what lets the crash-recovery property harness enumerate *every*
//! kill point of an iteration and compare each recovered world against
//! a never-crashed twin, bit for bit.
//!
//! A fired `Crash` / `Torn` / `Enospc` plan leaves the backend dead —
//! every subsequent operation fails — mimicking a killed process. The
//! harness then drops the engine and resumes on the wrapped (inner)
//! backend, exactly as a restarted process would open the directory
//! the crash left behind.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use crate::record_file;
use crate::{IoSnapshot, IoStats, StorageBackend, StoreError, StreamId, WorkingDir};

/// How the scripted fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails outright and the backend is dead from then
    /// on — a process kill at an arbitrary point.
    Crash,
    /// A write-type operation persists only a seeded prefix of its
    /// bytes before the crash — the torn-write case checksums exist
    /// for. Non-write operations hit by this kind degrade to
    /// [`FaultKind::Crash`].
    Torn,
    /// The next `times` operations fail with
    /// [`StoreError::Transient`], then traffic flows again — a
    /// recoverable hiccup for the retry policy to absorb.
    Transient {
        /// How many consecutive operations fail.
        times: u32,
    },
    /// Storage exhaustion: the operation and every one after it fail
    /// with an ENOSPC-shaped permanent error.
    Enospc,
}

/// One scripted fault: fail the `fail_at`-th armed operation
/// (0-based) with `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// 0-based index (among armed, counted operations) of the first
    /// operation to fail.
    pub fail_at: u64,
    /// The failure mode.
    pub kind: FaultKind,
    /// Seed for the torn-prefix draw; plans with equal seeds tear at
    /// identical byte offsets.
    pub seed: u64,
}

#[derive(Debug, Default)]
struct FaultState {
    plan: Option<FaultPlan>,
    armed: bool,
    ops: u64,
    transient_left: u32,
    dead: bool,
}

/// The classified outcome of the pre-op bookkeeping.
enum Verdict {
    Pass,
    Dead,
    Transient,
    /// Crash now; for write ops, persist this many bytes first.
    Crash {
        torn_keep: Option<usize>,
    },
}

/// A [`StorageBackend`] decorator driven by a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultBackend {
    inner: Arc<dyn StorageBackend>,
    state: Mutex<FaultState>,
}

impl FaultBackend {
    /// Wraps `inner` with no plan installed (fully transparent until
    /// [`set_plan`](FaultBackend::set_plan) + [`arm`](FaultBackend::arm)).
    pub fn new(inner: Arc<dyn StorageBackend>) -> Self {
        FaultBackend {
            inner,
            state: Mutex::new(FaultState::default()),
        }
    }

    /// The wrapped backend (where a harness resumes after a crash).
    pub fn inner(&self) -> &Arc<dyn StorageBackend> {
        &self.inner
    }

    /// Installs `plan`, resetting the op counter and any fired state.
    pub fn set_plan(&self, plan: FaultPlan) {
        let mut s = self.lock();
        s.transient_left = match plan.kind {
            FaultKind::Transient { times } => times,
            _ => 0,
        };
        s.plan = Some(plan);
        s.ops = 0;
        s.dead = false;
    }

    /// Starts counting operations against the plan.
    pub fn arm(&self) {
        self.lock().armed = true;
    }

    /// Stops counting; in-flight state (fired faults, op count) is
    /// kept.
    pub fn disarm(&self) {
        self.lock().armed = false;
    }

    /// Operations counted while armed so far — a harness runs once
    /// with an out-of-range `fail_at` to learn an iteration's op
    /// count, then enumerates kill points `0..ops_observed()`.
    pub fn ops_observed(&self) -> u64 {
        self.lock().ops
    }

    /// Whether a `Crash` / `Torn` / `Enospc` plan has fired.
    pub fn is_dead(&self) -> bool {
        self.lock().dead
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().expect("fault backend poisoned")
    }

    /// Counts one operation and decides its fate. `write_len` is the
    /// byte count a torn fault could partially persist (`None` for
    /// non-write operations).
    fn judge(&self, write_len: Option<usize>) -> Verdict {
        let mut s = self.lock();
        if s.dead {
            return Verdict::Dead;
        }
        if !s.armed {
            return Verdict::Pass;
        }
        let Some(plan) = s.plan else {
            return Verdict::Pass;
        };
        let index = s.ops;
        s.ops += 1;
        if index < plan.fail_at {
            return Verdict::Pass;
        }
        match plan.kind {
            FaultKind::Transient { .. } => {
                if s.transient_left > 0 {
                    s.transient_left -= 1;
                    Verdict::Transient
                } else {
                    Verdict::Pass
                }
            }
            FaultKind::Crash | FaultKind::Enospc => {
                s.dead = true;
                Verdict::Crash { torn_keep: None }
            }
            FaultKind::Torn => {
                s.dead = true;
                let keep = write_len.map(|len| {
                    // Seeded xorshift64 draw → prefix in [0, len).
                    let mut x = plan.seed ^ (index.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if len == 0 {
                        0
                    } else {
                        (x % len as u64) as usize
                    }
                });
                Verdict::Crash { torn_keep: keep }
            }
        }
    }

    fn fail(&self, what: PathBuf) -> StoreError {
        let kind = self.lock().plan.map(|p| p.kind);
        match kind {
            Some(FaultKind::Enospc) => StoreError::io(
                what,
                std::io::Error::other("injected fault: no space left on device"),
            ),
            _ => StoreError::io(
                what,
                std::io::Error::other("injected fault: backend crashed"),
            ),
        }
    }

    fn transient(&self, what: PathBuf) -> StoreError {
        StoreError::transient(what, "injected transient fault")
    }

    /// Applies the verdict to a non-write operation.
    fn gate(&self, what: impl Fn() -> PathBuf) -> Result<(), StoreError> {
        match self.judge(None) {
            Verdict::Pass => Ok(()),
            Verdict::Dead | Verdict::Crash { .. } => Err(self.fail(what())),
            Verdict::Transient => Err(self.transient(what())),
        }
    }

    /// Applies the verdict to a write of `framed` pre-framed bytes,
    /// persisting the torn prefix when the script says so.
    fn gate_write(
        &self,
        stream: Option<StreamId>,
        framed: &[u8],
        what: impl Fn() -> PathBuf,
    ) -> Result<(), StoreError> {
        match self.judge(Some(framed.len())) {
            Verdict::Pass => Ok(()),
            Verdict::Dead => Err(self.fail(what())),
            Verdict::Transient => Err(self.transient(what())),
            Verdict::Crash { torn_keep } => {
                if let Some(keep) = torn_keep {
                    // Persist the prefix the "crash" let through. Raw:
                    // re-framing would mint a fresh valid checksum.
                    match stream {
                        Some(s) => self.inner.write_raw(s, &framed[..keep])?,
                        None => self.inner.append_updates(&framed[..keep])?,
                    }
                }
                Err(self.fail(what()))
            }
        }
    }

    fn log_path(&self) -> PathBuf {
        PathBuf::from(format!("{}:updates.log", self.inner.name()))
    }
}

impl StorageBackend for FaultBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stats(&self) -> &Arc<IoStats> {
        self.inner.stats()
    }

    fn io_snapshot(&self) -> IoSnapshot {
        self.inner.io_snapshot()
    }

    fn read(&self, stream: StreamId) -> Result<Vec<u8>, StoreError> {
        self.gate(|| self.inner.describe(stream))?;
        self.inner.read(stream)
    }

    fn read_chunk(&self, stream: StreamId, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        self.gate(|| self.inner.describe(stream))?;
        self.inner.read_chunk(stream, offset, len)
    }

    fn write(&self, stream: StreamId, payload: &[u8]) -> Result<(), StoreError> {
        let framed = record_file::frame(payload);
        self.gate_write(Some(stream), &framed, || self.inner.describe(stream))?;
        // Store the exact frame we gated on (write_raw == write for an
        // intact frame), so torn and intact paths share one encoder.
        self.inner.write_raw(stream, &framed)
    }

    fn write_raw(&self, stream: StreamId, framed: &[u8]) -> Result<(), StoreError> {
        self.gate_write(Some(stream), framed, || self.inner.describe(stream))?;
        self.inner.write_raw(stream, framed)
    }

    fn delete(&self, stream: StreamId) -> Result<(), StoreError> {
        if self.lock().dead {
            return Err(self.fail(self.inner.describe(stream)));
        }
        self.inner.delete(stream)
    }

    fn exists(&self, stream: StreamId) -> bool {
        self.inner.exists(stream)
    }

    fn list(&self) -> Result<Vec<StreamId>, StoreError> {
        if self.lock().dead {
            return Err(self.fail(PathBuf::from(self.inner.name())));
        }
        self.inner.list()
    }

    fn clear_tuples(&self) -> Result<(), StoreError> {
        if self.lock().dead {
            return Err(self.fail(PathBuf::from(self.inner.name())));
        }
        self.inner.clear_tuples()
    }

    fn append_updates(&self, bytes: &[u8]) -> Result<(), StoreError> {
        self.gate_write(None, bytes, || self.log_path())?;
        self.inner.append_updates(bytes)
    }

    fn read_updates(&self) -> Result<Vec<u8>, StoreError> {
        self.gate(|| self.log_path())?;
        self.inner.read_updates()
    }

    fn truncate_updates(&self) -> Result<(), StoreError> {
        self.gate(|| self.log_path())?;
        self.inner.truncate_updates()
    }

    fn storage_usage(&self) -> Result<u64, StoreError> {
        self.inner.storage_usage()
    }

    fn describe(&self, stream: StreamId) -> PathBuf {
        self.inner.describe(stream)
    }

    fn working_dir(&self) -> Option<&WorkingDir> {
        self.inner.working_dir()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{self, MemBackend};

    fn plan(fail_at: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            fail_at,
            kind,
            seed: 42,
        }
    }

    #[test]
    fn unarmed_ops_are_neither_counted_nor_failed() {
        let fault = FaultBackend::new(Arc::new(MemBackend::new()));
        fault.set_plan(plan(0, FaultKind::Crash));
        backend::write_meta(&fault, &[(1, 1)]).unwrap();
        assert_eq!(fault.ops_observed(), 0);
        assert!(!fault.is_dead());
    }

    #[test]
    fn the_nth_armed_op_crashes_and_the_backend_stays_dead() {
        let inner = Arc::new(MemBackend::new());
        let fault = FaultBackend::new(inner.clone());
        fault.set_plan(plan(2, FaultKind::Crash));
        fault.arm();
        backend::write_meta(&fault, &[(1, 1)]).unwrap(); // op 0
        backend::write_meta(&fault, &[(1, 2)]).unwrap(); // op 1
        let err = backend::write_meta(&fault, &[(1, 3)]).unwrap_err(); // op 2
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        assert!(fault.is_dead());
        // Dead means dead — even previously fine ops fail now.
        assert!(backend::read_meta(&fault).is_err());
        // The inner backend kept the last completed write.
        assert_eq!(backend::read_meta(inner.as_ref()).unwrap(), vec![(1, 2)]);
    }

    #[test]
    fn torn_writes_persist_a_seeded_prefix_that_reads_as_corrupt() {
        let inner = Arc::new(MemBackend::new());
        let fault = FaultBackend::new(inner.clone());
        backend::write_meta(&fault, &[(1, 1)]).unwrap(); // intact, unarmed
        fault.set_plan(plan(0, FaultKind::Torn));
        fault.arm();
        let err = backend::write_meta(&fault, &[(1, 2), (2, 9), (3, 7)]).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        // The inner backend holds a torn frame: present but corrupt.
        assert!(inner.exists(StreamId::Meta));
        let read = inner.read(StreamId::Meta);
        assert!(
            matches!(
                read,
                Err(StoreError::Corrupt { .. }) | Err(StoreError::VersionMismatch { .. })
            ),
            "torn frame must not read back cleanly: {read:?}"
        );
    }

    #[test]
    fn torn_offsets_are_deterministic_per_seed() {
        let stored_len = |b: &MemBackend| b.lock_streams().get(&StreamId::Meta).map_or(0, Vec::len);
        let cut = |seed: u64| {
            let inner = Arc::new(MemBackend::new());
            let fault = FaultBackend::new(inner.clone());
            fault.set_plan(FaultPlan {
                fail_at: 0,
                kind: FaultKind::Torn,
                seed,
            });
            fault.arm();
            backend::write_meta(&fault, &[(1, 2), (2, 9), (3, 7)]).unwrap_err();
            stored_len(&inner)
        };
        assert_eq!(cut(5), cut(5), "same seed, same tear");
        // The tear must be a strict prefix of the full frame.
        let full = {
            let b = MemBackend::new();
            backend::write_meta(&b, &[(1, 2), (2, 9), (3, 7)]).unwrap();
            stored_len(&b)
        };
        assert!(cut(5) < full);
    }

    #[test]
    fn transient_faults_clear_after_their_run() {
        let fault = FaultBackend::new(Arc::new(MemBackend::new()));
        backend::write_meta(&fault, &[(1, 1)]).unwrap();
        fault.set_plan(plan(1, FaultKind::Transient { times: 2 }));
        fault.arm();
        assert_eq!(backend::read_meta(&fault).unwrap(), vec![(1, 1)]); // op 0
        assert!(backend::read_meta(&fault).unwrap_err().is_transient()); // op 1
        assert!(backend::read_meta(&fault).unwrap_err().is_transient()); // op 2
        assert_eq!(backend::read_meta(&fault).unwrap(), vec![(1, 1)]); // op 3
        assert!(!fault.is_dead());
    }

    #[test]
    fn enospc_is_permanent_and_says_so() {
        let fault = FaultBackend::new(Arc::new(MemBackend::new()));
        fault.set_plan(plan(0, FaultKind::Enospc));
        fault.arm();
        let err = backend::write_meta(&fault, &[(1, 1)]).unwrap_err();
        assert!(!err.is_transient());
        assert!(err.to_string().contains("no space left"), "{err}");
        assert!(backend::write_meta(&fault, &[(1, 1)]).is_err());
    }

    #[test]
    fn torn_log_appends_persist_a_prefix() {
        use knn_graph::UserId;
        use knn_sim::{ItemId, ProfileDelta};
        let inner = Arc::new(MemBackend::new());
        let fault = FaultBackend::new(inner.clone());
        backend::append_delta(
            &fault,
            &ProfileDelta::set(UserId::new(0), ItemId::new(1), 1.0),
        )
        .unwrap();
        let clean_len = inner.read_updates().unwrap().len();
        fault.set_plan(plan(0, FaultKind::Torn));
        fault.arm();
        backend::append_delta(
            &fault,
            &ProfileDelta::set(UserId::new(1), ItemId::new(2), 2.0),
        )
        .unwrap_err();
        let log = inner.read_updates().unwrap();
        assert!(
            log.len() > clean_len || log.len() == clean_len,
            "prefix appended"
        );
        assert!(log.len() < clean_len * 2, "but not the whole record");
        // The torn tail is exactly what repair_update_log prunes.
        let dropped = inner.repair_update_log().unwrap();
        if log.len() > clean_len {
            assert!(dropped.is_some());
        }
        assert_eq!(inner.read_updates().unwrap().len(), clean_len);
    }
}
