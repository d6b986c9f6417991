//! `TimedBackend`: a [`StorageBackend`] decorator that times every
//! trait call and tags it with the kind of stream it touched. Used by
//! traced runs only — the untraced pass hands the engine its backend
//! bare. The wrapped backend's own `IoStats` meter is passed through,
//! so byte and operation counts are the same with and without it.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use knn_store::{IoStats, StorageBackend, StoreError, StreamId, WorkingDir};

/// Stream kinds the store ledger reports, in display order.
pub const KINDS: [&str; 11] = [
    "profiles", "edges", "accum", "tuples", "spill", "knn", "meta", "log", "staged", "commit",
    "exchange",
];

const LOG: usize = 7;

fn kind_of(stream: StreamId) -> usize {
    match stream {
        StreamId::Profiles(_) => 0,
        StreamId::InEdges(_) | StreamId::OutEdges(_) => 1,
        StreamId::Accumulators(_) => 2,
        StreamId::TupleBucket(..) => 3,
        StreamId::TupleRun(..) => 4,
        StreamId::KnnSlice(_) => 5,
        StreamId::Staged(..) => 8,
        StreamId::Commit => 9,
        StreamId::ExchangeRun(..) => 10,
        // Meta, Assignment, Clusters — and any stream a later change
        // adds, so that adding one does not break the benchmark.
        _ => 6,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read,
    Write,
    Copy,
    /// delete / exists / list / usage: no payload, still time.
    Other,
}

/// One timed trait call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub kind: usize,
    pub op: Op,
    pub start: Instant,
    pub nanos: u64,
    pub bytes: u64,
}

/// The shared record of calls; one per run, shared by every wrapped
/// backend (a sharded engine wraps each shard's).
#[derive(Debug, Default)]
pub struct CallLog {
    calls: Mutex<Vec<Call>>,
}

impl CallLog {
    pub fn take(&self) -> Vec<Call> {
        std::mem::take(&mut *self.calls.lock().expect("call log poisoned"))
    }
}

#[derive(Debug)]
pub struct TimedBackend {
    inner: Arc<dyn StorageBackend>,
    log: Arc<CallLog>,
}

impl TimedBackend {
    pub fn wrap(inner: Arc<dyn StorageBackend>, log: &Arc<CallLog>) -> Arc<dyn StorageBackend> {
        Arc::new(TimedBackend {
            inner,
            log: Arc::clone(log),
        })
    }

    fn timed<T>(
        &self,
        kind: usize,
        op: Op,
        call: impl FnOnce() -> Result<T, StoreError>,
        bytes: impl FnOnce(&T) -> u64,
    ) -> Result<T, StoreError> {
        let start = Instant::now();
        let result = call();
        let nanos = start.elapsed().as_nanos() as u64;
        let bytes = result.as_ref().map_or(0, bytes);
        self.log
            .calls
            .lock()
            .expect("call log poisoned")
            .push(Call {
                kind,
                op,
                start,
                nanos,
                bytes,
            });
        result
    }
}

impl StorageBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stats(&self) -> &Arc<IoStats> {
        self.inner.stats()
    }

    fn read(&self, stream: StreamId) -> Result<Vec<u8>, StoreError> {
        self.timed(
            kind_of(stream),
            Op::Read,
            || self.inner.read(stream),
            |payload| payload.len() as u64,
        )
    }

    fn read_chunk(&self, stream: StreamId, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        self.timed(
            kind_of(stream),
            Op::Read,
            || self.inner.read_chunk(stream, offset, len),
            |chunk| chunk.len() as u64,
        )
    }

    fn write(&self, stream: StreamId, payload: &[u8]) -> Result<(), StoreError> {
        let len = payload.len() as u64;
        self.timed(
            kind_of(stream),
            Op::Write,
            || self.inner.write(stream, payload),
            |_| len,
        )
    }

    fn write_raw(&self, stream: StreamId, framed: &[u8]) -> Result<(), StoreError> {
        let len = framed.len() as u64;
        self.timed(
            kind_of(stream),
            Op::Write,
            || self.inner.write_raw(stream, framed),
            |_| len,
        )
    }

    // Forwarded, not left to the default read+write pair, so the
    // wrapped backend's native copy (and its metering) is what runs.
    fn copy_stream(&self, from: StreamId, to: StreamId) -> Result<(), StoreError> {
        self.timed(
            kind_of(to),
            Op::Copy,
            || self.inner.copy_stream(from, to),
            |_| 0,
        )
    }

    fn delete(&self, stream: StreamId) -> Result<(), StoreError> {
        self.timed(
            kind_of(stream),
            Op::Other,
            || self.inner.delete(stream),
            |_| 0,
        )
    }

    fn exists(&self, stream: StreamId) -> bool {
        self.inner.exists(stream)
    }

    fn list(&self) -> Result<Vec<StreamId>, StoreError> {
        self.timed(6, Op::Other, || self.inner.list(), |_| 0)
    }

    fn clear_tuples(&self) -> Result<(), StoreError> {
        self.timed(3, Op::Other, || self.inner.clear_tuples(), |_| 0)
    }

    fn append_updates(&self, bytes: &[u8]) -> Result<(), StoreError> {
        let len = bytes.len() as u64;
        self.timed(LOG, Op::Write, || self.inner.append_updates(bytes), |_| len)
    }

    fn read_updates(&self) -> Result<Vec<u8>, StoreError> {
        self.timed(
            LOG,
            Op::Read,
            || self.inner.read_updates(),
            |log| log.len() as u64,
        )
    }

    fn truncate_updates(&self) -> Result<(), StoreError> {
        self.timed(LOG, Op::Other, || self.inner.truncate_updates(), |_| 0)
    }

    fn repair_update_log(&self) -> Result<Option<String>, StoreError> {
        self.timed(LOG, Op::Other, || self.inner.repair_update_log(), |_| 0)
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

/// Totals of a batch of calls.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreTotals {
    pub busy_ns: u64,
    pub read_ns: u64,
    pub write_ns: u64,
    pub copy_ns: u64,
    /// Per kind (indexed like [`KINDS`]): busy time, bytes, calls.
    pub kinds: [(u64, u64, u64); KINDS.len()],
}

impl StoreTotals {
    pub fn add(&mut self, call: &Call) {
        self.busy_ns += call.nanos;
        match call.op {
            Op::Read => self.read_ns += call.nanos,
            Op::Write => self.write_ns += call.nanos,
            Op::Copy => self.copy_ns += call.nanos,
            Op::Other => {}
        }
        let kind = &mut self.kinds[call.kind];
        kind.0 += call.nanos;
        kind.1 += call.bytes;
        kind.2 += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_store::{CommitTarget, MemBackend};

    #[test]
    fn calls_are_logged_by_kind_and_the_meter_is_the_inner_one() {
        let log = Arc::new(CallLog::default());
        let inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let timed = TimedBackend::wrap(Arc::clone(&inner), &log);

        timed.write(StreamId::Profiles(0), &[1, 2, 3]).unwrap();
        timed
            .copy_stream(
                StreamId::Profiles(0),
                StreamId::Staged(CommitTarget::Profiles(0), 1),
            )
            .unwrap();
        assert_eq!(timed.read(StreamId::Profiles(0)).unwrap(), vec![1, 2, 3]);
        timed.append_updates(&[9; 5]).unwrap();
        assert!(timed.read(StreamId::Commit).is_err());

        // Same meter object: wrapping changes no count.
        assert!(Arc::ptr_eq(timed.stats(), inner.stats()));

        let mut totals = StoreTotals::default();
        let calls = log.take();
        assert_eq!(calls.len(), 5);
        for call in &calls {
            totals.add(call);
        }
        let kind = |name: &str| totals.kinds[KINDS.iter().position(|k| *k == name).unwrap()];
        assert_eq!((kind("profiles").1, kind("profiles").2), (6, 2));
        assert_eq!(kind("staged").2, 1);
        assert_eq!((kind("log").1, kind("log").2), (5, 1));
        // A failed call is still time spent, with no bytes.
        assert_eq!((kind("commit").1, kind("commit").2), (0, 1));
        assert_eq!(
            totals.busy_ns,
            totals.read_ns + totals.write_ns + totals.copy_ns
        );
        assert!(log.take().is_empty());
    }
}
