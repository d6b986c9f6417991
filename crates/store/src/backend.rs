//! The pluggable storage boundary of the engine.
//!
//! Everything the five-phase engine persists is one of a small set of
//! **named record streams** — partition profiles, per-partition KNN
//! slices, the assignment table, the metadata map, and the durable
//! phase-5 update log, plus legacy names (edge lists, tuple buckets,
//! spill runs) that nothing writes but recovery still cleans up. [`StreamId`] names them; [`StorageBackend`] is the complete
//! contract over them (read / write / append / list / delete), with
//! [`IoStats`] accounting *inside* the boundary so every backend is
//! metered uniformly.
//!
//! Two implementations ship:
//!
//! * [`DiskBackend`] — today's [`WorkingDir`] layout, bit-for-bit
//!   compatible with working directories written before the trait
//!   existed (so `KnnEngine::resume` still opens them);
//! * [`MemBackend`] — framed byte buffers in a hash map. It stores the
//!   **same** encoded bytes (codec header + payload + CRC-32), so the
//!   layout/checksum code stays covered while the filesystem drops out
//!   of the iteration loop. Both backends re-verify the trailing
//!   CRC-32 on every whole-stream read: corruption — whether rotted
//!   bytes at rest or a torn write that persisted only a prefix —
//!   surfaces as the identical [`StoreError::Corrupt`] regardless of
//!   medium, which the crash-recovery path depends on.
//!
//! Typed helpers ([`write_pairs`], [`read_user_lists`], …) sit on top
//! of the raw byte contract and share the [`crate::record_file`] codec
//! with the path-based API, which is why the two produce identical
//! bytes.
//!
//! ```
//! use knn_store::backend::{self, MemBackend, StorageBackend, StreamId};
//! use knn_store::RecordKind;
//!
//! # fn main() -> Result<(), knn_store::StoreError> {
//! let b = MemBackend::new();
//! backend::write_pairs(&b, StreamId::Assignment, &[(0, 1), (1, 0)])?;
//! assert_eq!(
//!     backend::read_pairs(&b, StreamId::Assignment)?,
//!     vec![(0, 1), (1, 0)]
//! );
//! assert!(b.stats().snapshot().bytes_written > 0);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use bytes::BytesMut;
use knn_sim::ProfileDelta;

use crate::delta_log::{decode_deltas, encode_delta};
use crate::record_file::{self, UserListRow};
use crate::{IoSnapshot, IoStats, RecordKind, StoreError, WorkingDir};

/// The name of one record stream an engine run persists.
///
/// A stream is "one file" in the disk layout; other backends are free
/// to map it to buffers, objects, or pages, but the *set* of streams is
/// the storage contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StreamId {
    /// The engine metadata map (`n`, `K`, `m`, seed, iteration).
    Meta,
    /// The user → partition assignment table.
    Assignment,
    /// The user → cluster-label table written by the locality
    /// pre-pass (`knn-cluster`); present only when a run clusters.
    Clusters,
    /// A legacy per-partition in-edge stream (`p{p}.in_edges`) that
    /// phase 1 wrote before candidates were generated from the
    /// resident `G(t)`. Nothing writes it any more; the name stays
    /// because the benchmark's stream-kind table still names it.
    InEdges(u32),
    /// A legacy per-partition out-edge stream, like
    /// [`InEdges`](StreamId::InEdges).
    OutEdges(u32),
    /// Profiles of one partition's users.
    Profiles(u32),
    /// A legacy per-partition top-K accumulator stream (`p{p}.accum`)
    /// that phase 4 wrote before its accumulators moved into RAM.
    /// Nothing writes it any more; it stays so that tuple clearing and
    /// recovery GC still delete such files left in older working
    /// directories, and because the benchmark's stream-kind table
    /// still names it.
    Accumulators(u32),
    /// One partition's persisted KNN-graph slice (scored out-edges).
    KnnSlice(u32),
    /// A legacy tuple bucket stream (`t{i}_{j}.tuples`) that phase 2
    /// wrote before phase 4 generated each bucket in RAM. Nothing
    /// writes it any more; it stays so that tuple clearing and
    /// recovery GC still delete such files left in older working
    /// directories, and because the benchmark's stream-kind table
    /// still names it.
    TupleBucket(u32, u32),
    /// A legacy spill run of a tuple bucket (`t{i}_{j}.run{r}`), kept
    /// for the same reasons as [`TupleBucket`](StreamId::TupleBucket).
    TupleRun(u32, u32, u32),
    /// A legacy tuple scratch stream (`t{i}_{j}.x{r}`) that the
    /// removed cross-shard exchange wrote. Nothing writes it any more;
    /// it stays so that tuple clearing and recovery GC still delete
    /// such files left in older working directories, and because the
    /// benchmark's stream-kind table still names it.
    ExchangeRun(u32, u32, u32),
    /// The generation commit record: one tiny CRC-framed record naming
    /// the last durably committed iteration (see `crate::commit`).
    /// Writing it is the single atomic step that flips a working
    /// directory's visible generation.
    Commit,
    /// A staged pre-image backup of one committed stream, tagged with
    /// the epoch (committed generation) whose content it preserves.
    /// The commit protocol copies a committed stream here before the
    /// engine first mutates it in place; recovery restores or deletes
    /// these, and a cleanly committed directory contains none.
    Staged(CommitTarget, u64),
}

/// A committed stream the atomic-commit protocol may back up before
/// the engine mutates it in place during an iteration. (`Clusters` is
/// written once by the pre-pass and never mutated, so it needs no
/// backup; everything else committed — meta, assignment, profiles,
/// KNN slices — is rewritten by iterations.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CommitTarget {
    /// The engine metadata map.
    Meta,
    /// The user → partition assignment table.
    Assignment,
    /// One partition's profiles.
    Profiles(u32),
    /// One partition's persisted KNN-graph slice.
    KnnSlice(u32),
}

impl CommitTarget {
    /// The committed stream this target names.
    pub fn stream(self) -> StreamId {
        match self {
            CommitTarget::Meta => StreamId::Meta,
            CommitTarget::Assignment => StreamId::Assignment,
            CommitTarget::Profiles(p) => StreamId::Profiles(p),
            CommitTarget::KnnSlice(p) => StreamId::KnnSlice(p),
        }
    }
}

impl StreamId {
    /// The record kind stored in this stream's codec header.
    pub fn kind(self) -> RecordKind {
        match self {
            StreamId::Meta => RecordKind::Meta,
            StreamId::Assignment => RecordKind::Assignment,
            StreamId::Clusters => RecordKind::Clusters,
            StreamId::InEdges(_) => RecordKind::InEdges,
            StreamId::OutEdges(_) => RecordKind::OutEdges,
            StreamId::Profiles(_) => RecordKind::Profiles,
            StreamId::Accumulators(_) => RecordKind::Accumulators,
            StreamId::KnnSlice(_) => RecordKind::ScoredEdges,
            StreamId::TupleBucket(..) | StreamId::TupleRun(..) | StreamId::ExchangeRun(..) => {
                RecordKind::Tuples
            }
            StreamId::Commit => RecordKind::Commit,
            StreamId::Staged(target, _) => target.stream().kind(),
        }
    }

    /// Whether this stream is legacy per-iteration scratch, which
    /// [`StorageBackend::clear_tuples`] and recovery delete: a tuple
    /// bucket, spill run or exchange run, or an accumulator stream.
    pub fn is_tuple_scratch(self) -> bool {
        matches!(
            self,
            StreamId::TupleBucket(..)
                | StreamId::TupleRun(..)
                | StreamId::ExchangeRun(..)
                | StreamId::Accumulators(..)
        )
    }

    /// This stream's location inside a [`WorkingDir`] — the disk
    /// layout is the reference mapping.
    pub fn path_in(self, wd: &WorkingDir) -> PathBuf {
        match self {
            StreamId::Meta => wd.meta_path(),
            StreamId::Assignment => wd.assignment_path(),
            StreamId::Clusters => wd.clusters_path(),
            StreamId::InEdges(p) => wd.in_edges_path(p),
            StreamId::OutEdges(p) => wd.out_edges_path(p),
            StreamId::Profiles(p) => wd.profiles_path(p),
            StreamId::Accumulators(p) => wd.accum_path(p),
            StreamId::KnnSlice(p) => wd.knn_path(p),
            StreamId::TupleBucket(i, j) => wd.tuples_path(i, j),
            StreamId::TupleRun(i, j, r) => wd.tuples_path(i, j).with_extension(format!("run{r}")),
            StreamId::ExchangeRun(i, j, r) => wd.tuples_path(i, j).with_extension(format!("x{r}")),
            StreamId::Commit => wd.commit_path(),
            StreamId::Staged(target, epoch) => {
                // The backup sits next to its target: `<file>.bak<epoch>`.
                let base = target.stream().path_in(wd);
                let mut name = base.file_name().expect("stream file name").to_os_string();
                name.push(format!(".bak{epoch}"));
                base.with_file_name(name)
            }
        }
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamId::Meta => write!(f, "meta"),
            StreamId::Assignment => write!(f, "assignment"),
            StreamId::Clusters => write!(f, "clusters"),
            StreamId::InEdges(p) => write!(f, "p{p:04}.in_edges"),
            StreamId::OutEdges(p) => write!(f, "p{p:04}.out_edges"),
            StreamId::Profiles(p) => write!(f, "p{p:04}.profiles"),
            StreamId::Accumulators(p) => write!(f, "p{p:04}.accum"),
            StreamId::KnnSlice(p) => write!(f, "p{p:04}.knn"),
            StreamId::TupleBucket(i, j) => write!(f, "t{i:04}_{j:04}.tuples"),
            StreamId::TupleRun(i, j, r) => write!(f, "t{i:04}_{j:04}.run{r}"),
            StreamId::ExchangeRun(i, j, r) => write!(f, "t{i:04}_{j:04}.x{r}"),
            StreamId::Commit => write!(f, "commit"),
            StreamId::Staged(target, epoch) => write!(f, "{}.bak{epoch}", target.stream()),
        }
    }
}

/// The engine's entire storage contract, as operations over named
/// record streams plus the append-only phase-5 update log.
///
/// Implementations store **framed** records — the codec payload
/// followed by its CRC-32, exactly the bytes [`record_file::frame`]
/// produces — and [`read`](StorageBackend::read) returns the payload
/// with the frame stripped, **re-verifying the checksum on every
/// read**: a torn or rotted record must fail with
/// [`StoreError::Corrupt`] identically on every backend, because
/// crash recovery uses that signal to distinguish intact streams from
/// partially persisted ones. All byte and operation counts flow into
/// the backend's [`IoStats`] so different backends are compared with
/// the same meter.
///
/// Prefer the typed helpers ([`write_pairs`] and friends) over
/// the raw [`read`](StorageBackend::read)/[`write`](StorageBackend::write)
/// methods; they add the codec layer and keep every backend's record
/// layout identical.
///
/// Implementations must be usable from many threads at once (hence
/// the `Send + Sync` bound): the partition-parallel engine issues
/// reads and writes of *disjoint* streams concurrently, and the
/// [`IoStats`] meter must stay exact under that concurrency (it is
/// atomic — see its concurrency contract). Concurrent operations on
/// the *same* stream are never issued by the engine and need no
/// ordering guarantee beyond each call being atomic with respect to
/// the stream it touches.
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// A short human-readable backend name (`"disk"`, `"mem"`), used
    /// in reports and bench output.
    fn name(&self) -> &'static str;

    /// The backend's I/O meter. Every read/write/append/delete this
    /// backend performs is recorded here.
    fn stats(&self) -> &Arc<IoStats>;

    /// Everything this backend has metered so far. A backend that
    /// delegates to others (a shard router) adds their meters to its
    /// own, so callers see every byte wherever it landed.
    fn io_snapshot(&self) -> IoSnapshot {
        self.stats().snapshot()
    }

    /// Reads one stream and strips the frame, returning the codec
    /// payload (integrity checking per the backend's medium — see the
    /// trait docs).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the stream does not exist or cannot be
    /// read; [`StoreError::Corrupt`] on a bad frame.
    fn read(&self, stream: StreamId) -> Result<Vec<u8>, StoreError>;

    /// Reads up to `len` bytes of the stream's **framed**
    /// representation (payload + trailing CRC-32) starting at byte
    /// `offset` — short at end of stream, empty past it. Exactly the
    /// returned byte count is metered, so every backend counts chunked
    /// reads identically.
    ///
    /// The engine no longer calls it: it served the spill-run merge
    /// that in-RAM candidate generation replaced. It stays in the
    /// trait because backend decorators outside this crate implement
    /// it. Chunked reads bypass whole-frame checksum verification by
    /// construction (the frame's CRC trails the payload).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the stream does not exist or cannot be
    /// read.
    fn read_chunk(&self, stream: StreamId, offset: u64, len: u64) -> Result<Vec<u8>, StoreError>;

    /// Frames and writes one stream, replacing any previous content.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on storage failure.
    fn write(&self, stream: StreamId, payload: &[u8]) -> Result<(), StoreError>;

    /// Stores one stream's **framed** representation verbatim —
    /// `framed` is payload + trailing CRC-32, or a deliberately torn
    /// prefix of such a frame. This is the escape hatch fault-injection
    /// harnesses use to persist a *genuinely* torn write (re-framing a
    /// prefix through [`write`](StorageBackend::write) would mint a
    /// fresh valid checksum and defeat corruption detection). Metered
    /// as one write of `framed.len()` bytes, like `write`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on storage failure, or if the backend does
    /// not support raw writes (the default).
    fn write_raw(&self, stream: StreamId, framed: &[u8]) -> Result<(), StoreError> {
        let _ = framed;
        Err(StoreError::io(
            self.describe(stream),
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "backend does not support raw framed writes",
            ),
        ))
    }

    /// Copies `from`'s record into `to`, replacing any previous
    /// content. Semantically `read` + `write` — and metered exactly
    /// like that pair (one read and one write of the framed length) —
    /// but backends may move the framed bytes natively without
    /// decoding, re-framing, or verifying the checksum. The commit
    /// protocol's pre-image backups ride this path, so copying
    /// verbatim is a feature: a rollback restores byte-for-byte what
    /// was committed, even if that record was already damaged.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if `from` is absent or storage fails.
    fn copy_stream(&self, from: StreamId, to: StreamId) -> Result<(), StoreError> {
        let payload = self.read(from)?;
        self.write(to, &payload)
    }

    /// Deletes one stream (no-op if absent).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on storage failure.
    fn delete(&self, stream: StreamId) -> Result<(), StoreError>;

    /// Whether the stream currently exists.
    fn exists(&self, stream: StreamId) -> bool;

    /// Every stream currently stored (unspecified order). Unrecognized
    /// foreign files in a disk layout are skipped, not errors.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on storage failure.
    fn list(&self) -> Result<Vec<StreamId>, StoreError>;

    /// Removes every legacy scratch stream
    /// ([`StreamId::is_tuple_scratch`]) — recovery's GC of what older
    /// builds left behind.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on storage failure.
    fn clear_tuples(&self) -> Result<(), StoreError> {
        for stream in self.list()? {
            if stream.is_tuple_scratch() {
                self.delete(stream)?;
            }
        }
        Ok(())
    }

    /// Appends raw encoded deltas to the durable update log.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on storage failure.
    fn append_updates(&self, bytes: &[u8]) -> Result<(), StoreError>;

    /// Reads the whole update log (raw bytes, append order). An
    /// absent/never-written log reads as empty.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on storage failure.
    fn read_updates(&self) -> Result<Vec<u8>, StoreError>;

    /// Empties the update log (after phase 5 has applied it).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on storage failure.
    fn truncate_updates(&self) -> Result<(), StoreError>;

    /// Detects a torn tail on the durable update log — a crash
    /// mid-append leaves a partial final record — and drops it at the
    /// last whole-record boundary, rewriting the log to its longest
    /// cleanly decodable prefix. Returns a description of what was
    /// dropped, or `None` when the log was already clean (the common
    /// case; nothing is rewritten then). Sharding facades override
    /// this to repair each shard's log independently, since a torn
    /// tail sits mid-concatenation in the merged view.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on storage failure.
    fn repair_update_log(&self) -> Result<Option<String>, StoreError> {
        let bytes = self.read_updates()?;
        let path = PathBuf::from(format!("{}:updates.log", self.name()));
        let prefix = crate::delta_log::decode_delta_prefix(&bytes, &path);
        let Some(dropped) = prefix.dropped else {
            return Ok(None);
        };
        self.truncate_updates()?;
        if prefix.consumed > 0 {
            self.append_updates(&bytes[..prefix.consumed])?;
        }
        Ok(Some(dropped))
    }

    /// Total bytes currently stored across all streams and the log.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on storage failure.
    fn storage_usage(&self) -> Result<u64, StoreError>;

    /// A path-like label for `stream`, used in error messages. Disk
    /// backends return the real path.
    fn describe(&self, stream: StreamId) -> PathBuf {
        PathBuf::from(format!("{}:{stream}", self.name()))
    }

    /// The underlying [`WorkingDir`], when this backend is a directory
    /// on disk. In-memory and future remote backends return `None`.
    fn working_dir(&self) -> Option<&WorkingDir> {
        None
    }
}

// ---------------------------------------------------------------------
// Typed stream helpers (shared codec over any backend).
// ---------------------------------------------------------------------

/// Writes a pair stream (`(u32, u32)` rows); the record kind comes
/// from the stream's identity.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on storage failure.
pub fn write_pairs(
    b: &dyn StorageBackend,
    stream: StreamId,
    rows: &[(u32, u32)],
) -> Result<(), StoreError> {
    b.write(stream, &record_file::encode_pairs(stream.kind(), rows))
}

/// Reads a pair stream written by [`write_pairs`].
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] / [`StoreError::VersionMismatch`]
/// on malformed content and [`StoreError::Io`] on storage failure.
pub fn read_pairs(b: &dyn StorageBackend, stream: StreamId) -> Result<Vec<(u32, u32)>, StoreError> {
    record_file::decode_pairs(&b.read(stream)?, stream.kind(), &b.describe(stream))
}

/// Writes a scored-pair stream (`(u32, u32, f32)` rows — KNN slices).
///
/// # Errors
///
/// Same as [`write_pairs`].
pub fn write_scored_pairs(
    b: &dyn StorageBackend,
    stream: StreamId,
    rows: &[(u32, u32, f32)],
) -> Result<(), StoreError> {
    b.write(stream, &record_file::encode_scored_pairs(rows))
}

/// Reads a scored-pair stream written by [`write_scored_pairs`].
///
/// # Errors
///
/// Same as [`read_pairs`].
pub fn read_scored_pairs(
    b: &dyn StorageBackend,
    stream: StreamId,
) -> Result<Vec<(u32, u32, f32)>, StoreError> {
    record_file::decode_scored_pairs(&b.read(stream)?, &b.describe(stream))
}

/// Writes a user-list stream (`user → [(u32, f32)]` rows — profiles).
///
/// # Errors
///
/// Same as [`write_pairs`].
pub fn write_user_lists(
    b: &dyn StorageBackend,
    stream: StreamId,
    rows: &[UserListRow],
) -> Result<(), StoreError> {
    b.write(stream, &record_file::encode_user_lists(stream.kind(), rows))
}

/// Reads a user-list stream written by [`write_user_lists`].
///
/// # Errors
///
/// Same as [`read_pairs`].
pub fn read_user_lists(
    b: &dyn StorageBackend,
    stream: StreamId,
) -> Result<Vec<UserListRow>, StoreError> {
    record_file::decode_user_lists(&b.read(stream)?, stream.kind(), &b.describe(stream))
}

/// Writes the metadata map.
///
/// # Errors
///
/// Same as [`write_pairs`].
pub fn write_meta(b: &dyn StorageBackend, entries: &[(u32, u64)]) -> Result<(), StoreError> {
    b.write(StreamId::Meta, &record_file::encode_meta(entries))
}

/// Reads the metadata map.
///
/// # Errors
///
/// Same as [`read_pairs`].
pub fn read_meta(b: &dyn StorageBackend) -> Result<Vec<(u32, u64)>, StoreError> {
    record_file::decode_meta(&b.read(StreamId::Meta)?, &b.describe(StreamId::Meta))
}

/// Appends one delta to the backend's durable update log.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on storage failure.
pub fn append_delta(b: &dyn StorageBackend, delta: &ProfileDelta) -> Result<(), StoreError> {
    let mut buf = BytesMut::with_capacity(32);
    encode_delta(&mut buf, delta);
    b.append_updates(&buf)
}

/// Reads every delta in the backend's update log, in append order.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] on a malformed record and
/// [`StoreError::Io`] on storage failure.
pub fn read_deltas(b: &dyn StorageBackend) -> Result<Vec<ProfileDelta>, StoreError> {
    let bytes = b.read_updates()?;
    decode_deltas(&bytes, &PathBuf::from(format!("{}:updates.log", b.name())))
}

// ---------------------------------------------------------------------
// DiskBackend
// ---------------------------------------------------------------------

/// The on-disk backend: streams are files in a [`WorkingDir`], with
/// exactly the layout and byte format the engine used before the
/// [`StorageBackend`] trait existed. A pre-existing working directory
/// opens unchanged.
#[derive(Debug)]
pub struct DiskBackend {
    workdir: WorkingDir,
    stats: Arc<IoStats>,
}

impl DiskBackend {
    /// Wraps an existing working directory.
    pub fn new(workdir: WorkingDir) -> Self {
        DiskBackend {
            workdir,
            stats: Arc::new(IoStats::new()),
        }
    }

    /// Opens (creating if needed) a working directory rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the directories cannot be created.
    pub fn create(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Ok(Self::new(WorkingDir::create(root)?))
    }

    /// A fresh uniquely-named backend under the system temp dir.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if creation fails.
    pub fn temp(prefix: &str) -> Result<Self, StoreError> {
        Ok(Self::new(WorkingDir::temp(prefix)?))
    }

    fn updates_path(&self) -> PathBuf {
        self.workdir.updates_path()
    }
}

impl StorageBackend for DiskBackend {
    fn name(&self) -> &'static str {
        "disk"
    }

    fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    fn read(&self, stream: StreamId) -> Result<Vec<u8>, StoreError> {
        record_file::read_file(&stream.path_in(&self.workdir), &self.stats)
    }

    fn read_chunk(&self, stream: StreamId, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        use std::io::{Read, Seek, SeekFrom};
        let path = stream.path_in(&self.workdir);
        let mut file = std::fs::File::open(&path).map_err(|e| StoreError::io(&path, e))?;
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| StoreError::io(&path, e))?;
        let mut buf = vec![0u8; len as usize];
        let mut filled = 0usize;
        while filled < buf.len() {
            let n = file
                .read(&mut buf[filled..])
                .map_err(|e| StoreError::io(&path, e))?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        buf.truncate(filled);
        self.stats.record_read(filled as u64);
        Ok(buf)
    }

    fn write(&self, stream: StreamId, payload: &[u8]) -> Result<(), StoreError> {
        record_file::write_file(&stream.path_in(&self.workdir), payload, &self.stats)
    }

    fn write_raw(&self, stream: StreamId, framed: &[u8]) -> Result<(), StoreError> {
        let path = stream.path_in(&self.workdir);
        std::fs::write(&path, framed).map_err(|e| StoreError::io(&path, e))?;
        self.stats.record_write(framed.len() as u64);
        Ok(())
    }

    fn copy_stream(&self, from: StreamId, to: StreamId) -> Result<(), StoreError> {
        let src = from.path_in(&self.workdir);
        let dst = to.path_in(&self.workdir);
        let len = std::fs::copy(&src, &dst).map_err(|e| StoreError::io(&src, e))?;
        self.stats.record_read(len);
        self.stats.record_write(len);
        Ok(())
    }

    fn delete(&self, stream: StreamId) -> Result<(), StoreError> {
        let path = stream.path_in(&self.workdir);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreError::io(&path, e)),
        }
    }

    fn exists(&self, stream: StreamId) -> bool {
        stream.path_in(&self.workdir).exists()
    }

    fn list(&self) -> Result<Vec<StreamId>, StoreError> {
        let root = self.workdir.root();
        let mut streams = Vec::new();
        let read_dir = |dir: PathBuf| -> Result<Vec<String>, StoreError> {
            let mut names = Vec::new();
            match std::fs::read_dir(&dir) {
                Ok(entries) => {
                    for entry in entries {
                        let entry = entry.map_err(|e| StoreError::io(&dir, e))?;
                        if let Ok(name) = entry.file_name().into_string() {
                            names.push(name);
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(StoreError::io(&dir, e)),
            }
            Ok(names)
        };
        for name in read_dir(root.to_path_buf())? {
            if let Some(stream) = parse_root_name(&name) {
                streams.push(stream);
            }
        }
        for name in read_dir(root.join("parts"))? {
            if let Some(stream) = parse_part_name(&name) {
                streams.push(stream);
            }
        }
        for name in read_dir(root.join("tuples"))? {
            if let Some(stream) = parse_tuple_name(&name) {
                streams.push(stream);
            }
        }
        Ok(streams)
    }

    fn clear_tuples(&self) -> Result<(), StoreError> {
        self.workdir.clear_tuples()
    }

    fn append_updates(&self, bytes: &[u8]) -> Result<(), StoreError> {
        let path = self.updates_path();
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| StoreError::io(&path, e))?;
        file.write_all(bytes)
            .map_err(|e| StoreError::io(&path, e))?;
        self.stats.record_write(bytes.len() as u64);
        Ok(())
    }

    fn read_updates(&self) -> Result<Vec<u8>, StoreError> {
        let path = self.updates_path();
        match std::fs::read(&path) {
            Ok(bytes) => {
                // Log drains are metered as bytes only (no op count):
                // how many log files back one logical drain is a
                // deployment detail, the byte total is not — see
                // IoStats::record_log_drain.
                self.stats.record_log_drain(bytes.len() as u64);
                Ok(bytes)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // A never-written log reads as empty (zero bytes, no
                // meter movement — identically on every backend).
                Ok(Vec::new())
            }
            Err(e) => Err(StoreError::io(&path, e)),
        }
    }

    fn truncate_updates(&self) -> Result<(), StoreError> {
        let path = self.updates_path();
        std::fs::write(&path, []).map_err(|e| StoreError::io(&path, e))
    }

    fn storage_usage(&self) -> Result<u64, StoreError> {
        self.workdir.disk_usage()
    }

    fn describe(&self, stream: StreamId) -> PathBuf {
        stream.path_in(&self.workdir)
    }

    fn working_dir(&self) -> Option<&WorkingDir> {
        Some(&self.workdir)
    }
}

/// Parses a root-level file name back to its stream id; directories
/// (`parts`, `tuples`), the update log, and foreign names yield `None`.
fn parse_root_name(name: &str) -> Option<StreamId> {
    match name {
        "meta.bin" => return Some(StreamId::Meta),
        "assignment.bin" => return Some(StreamId::Assignment),
        "clusters.bin" => return Some(StreamId::Clusters),
        "commit.bin" => return Some(StreamId::Commit),
        _ => {}
    }
    let (base, epoch) = name.rsplit_once(".bak")?;
    let epoch: u64 = epoch.parse().ok()?;
    match base {
        "meta.bin" => Some(StreamId::Staged(CommitTarget::Meta, epoch)),
        "assignment.bin" => Some(StreamId::Staged(CommitTarget::Assignment, epoch)),
        _ => None,
    }
}

/// Parses a `parts/` file name (`p0042.profiles`, or a staged backup
/// `p0042.profiles.bak3`, …) back to its stream id; foreign names
/// yield `None`.
fn parse_part_name(name: &str) -> Option<StreamId> {
    if let Some((base, epoch)) = name.rsplit_once(".bak") {
        let epoch: u64 = epoch.parse().ok()?;
        return match parse_part_name(base)? {
            StreamId::Profiles(p) => Some(StreamId::Staged(CommitTarget::Profiles(p), epoch)),
            StreamId::KnnSlice(p) => Some(StreamId::Staged(CommitTarget::KnnSlice(p), epoch)),
            _ => None,
        };
    }
    let rest = name.strip_prefix('p')?;
    let (digits, ext) = rest.split_once('.')?;
    let p: u32 = digits.parse().ok()?;
    match ext {
        "in_edges" => Some(StreamId::InEdges(p)),
        "out_edges" => Some(StreamId::OutEdges(p)),
        "profiles" => Some(StreamId::Profiles(p)),
        "accum" => Some(StreamId::Accumulators(p)),
        "knn" => Some(StreamId::KnnSlice(p)),
        _ => None,
    }
}

/// Parses a `tuples/` file name (`t0001_0007.tuples` or `.runN`) back
/// to its stream id; foreign names yield `None`.
fn parse_tuple_name(name: &str) -> Option<StreamId> {
    let rest = name.strip_prefix('t')?;
    let (pair, ext) = rest.split_once('.')?;
    let (i, j) = pair.split_once('_')?;
    let i: u32 = i.parse().ok()?;
    let j: u32 = j.parse().ok()?;
    if ext == "tuples" {
        Some(StreamId::TupleBucket(i, j))
    } else if let Some(run) = ext.strip_prefix("run") {
        Some(StreamId::TupleRun(i, j, run.parse().ok()?))
    } else if let Some(run) = ext.strip_prefix('x') {
        Some(StreamId::ExchangeRun(i, j, run.parse().ok()?))
    } else {
        None
    }
}

// ---------------------------------------------------------------------
// MemBackend
// ---------------------------------------------------------------------

/// The in-memory backend: framed byte buffers in a hash map.
///
/// It runs the identical codec and CRC path as [`DiskBackend`] — the
/// stored bytes are what the disk backend would have written — so the
/// layout code keeps its coverage while the filesystem (serialization
/// aside) drops out of the iteration loop entirely. Useful whenever
/// the profile set fits in RAM: same engine, same results, no disk.
#[derive(Debug, Default)]
pub struct MemBackend {
    streams: Mutex<HashMap<StreamId, Vec<u8>>>,
    updates: Mutex<Vec<u8>>,
    stats: Arc<IoStats>,
}

impl MemBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn lock_streams(&self) -> std::sync::MutexGuard<'_, HashMap<StreamId, Vec<u8>>> {
        self.streams.lock().expect("mem backend poisoned")
    }
}

impl StorageBackend for MemBackend {
    fn name(&self) -> &'static str {
        "mem"
    }

    fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    fn read(&self, stream: StreamId) -> Result<Vec<u8>, StoreError> {
        let bytes = self.lock_streams().get(&stream).cloned().ok_or_else(|| {
            StoreError::io(
                self.describe(stream),
                std::io::Error::new(std::io::ErrorKind::NotFound, "no such stream"),
            )
        })?;
        self.stats.record_read(bytes.len() as u64);
        // The stored bytes are the full frame (identical to what the
        // disk backend persists). The checksum is re-verified on every
        // read even though RAM buffers don't rot: a torn raw write (a
        // crash mid-persist, injected or real) leaves a prefix whose
        // only tell is the frame, and corruption must surface as the
        // same Corrupt error on every backend.
        record_file::verify_unframe(bytes, &self.describe(stream))
    }

    fn read_chunk(&self, stream: StreamId, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        let streams = self.lock_streams();
        let Some(bytes) = streams.get(&stream) else {
            return Err(StoreError::io(
                self.describe(stream),
                std::io::Error::new(std::io::ErrorKind::NotFound, "no such stream"),
            ));
        };
        let start = (offset as usize).min(bytes.len());
        let end = start.saturating_add(len as usize).min(bytes.len());
        let out = bytes[start..end].to_vec();
        self.stats.record_read(out.len() as u64);
        Ok(out)
    }

    fn write(&self, stream: StreamId, payload: &[u8]) -> Result<(), StoreError> {
        let framed = record_file::frame(payload);
        self.stats.record_write(framed.len() as u64);
        self.lock_streams().insert(stream, framed);
        Ok(())
    }

    fn write_raw(&self, stream: StreamId, framed: &[u8]) -> Result<(), StoreError> {
        self.stats.record_write(framed.len() as u64);
        self.lock_streams().insert(stream, framed.to_vec());
        Ok(())
    }

    fn copy_stream(&self, from: StreamId, to: StreamId) -> Result<(), StoreError> {
        let mut streams = self.lock_streams();
        let bytes = streams.get(&from).cloned().ok_or_else(|| {
            StoreError::io(
                self.describe(from),
                std::io::Error::new(std::io::ErrorKind::NotFound, "no such stream"),
            )
        })?;
        let len = bytes.len() as u64;
        streams.insert(to, bytes);
        drop(streams);
        self.stats.record_read(len);
        self.stats.record_write(len);
        Ok(())
    }

    fn delete(&self, stream: StreamId) -> Result<(), StoreError> {
        self.lock_streams().remove(&stream);
        Ok(())
    }

    fn exists(&self, stream: StreamId) -> bool {
        self.lock_streams().contains_key(&stream)
    }

    fn list(&self) -> Result<Vec<StreamId>, StoreError> {
        Ok(self.lock_streams().keys().copied().collect())
    }

    fn append_updates(&self, bytes: &[u8]) -> Result<(), StoreError> {
        self.stats.record_write(bytes.len() as u64);
        self.updates
            .lock()
            .expect("mem backend poisoned")
            .extend_from_slice(bytes);
        Ok(())
    }

    fn read_updates(&self) -> Result<Vec<u8>, StoreError> {
        let bytes = self.updates.lock().expect("mem backend poisoned").clone();
        // Bytes-only log-drain meter, same as DiskBackend.
        self.stats.record_log_drain(bytes.len() as u64);
        Ok(bytes)
    }

    fn truncate_updates(&self) -> Result<(), StoreError> {
        self.updates.lock().expect("mem backend poisoned").clear();
        Ok(())
    }

    fn storage_usage(&self) -> Result<u64, StoreError> {
        let streams: u64 = self.lock_streams().values().map(|v| v.len() as u64).sum();
        let updates = self.updates.lock().expect("mem backend poisoned").len() as u64;
        Ok(streams + updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_graph::UserId;
    use knn_sim::ItemId;

    /// Both backends under one exercise via the trait object.
    fn backends() -> Vec<(Box<dyn StorageBackend>, Option<WorkingDir>)> {
        let disk = DiskBackend::temp("backend_tests").unwrap();
        let wd = disk.working_dir().unwrap().clone();
        vec![
            (Box::new(disk) as Box<dyn StorageBackend>, Some(wd)),
            (Box::new(MemBackend::new()), None),
        ]
    }

    fn destroy(wd: Option<WorkingDir>) {
        if let Some(wd) = wd {
            wd.destroy().unwrap();
        }
    }

    #[test]
    fn typed_round_trips_on_both_backends() {
        for (b, wd) in backends() {
            let b = b.as_ref();
            write_pairs(b, StreamId::InEdges(0), &[(1, 2), (3, 4)]).unwrap();
            assert_eq!(
                read_pairs(b, StreamId::InEdges(0)).unwrap(),
                vec![(1, 2), (3, 4)]
            );
            write_scored_pairs(b, StreamId::KnnSlice(1), &[(0, 1, 0.5)]).unwrap();
            assert_eq!(
                read_scored_pairs(b, StreamId::KnnSlice(1)).unwrap(),
                vec![(0, 1, 0.5)]
            );
            write_user_lists(b, StreamId::Profiles(2), &[(7, vec![(1, 1.0)])]).unwrap();
            assert_eq!(
                read_user_lists(b, StreamId::Profiles(2)).unwrap(),
                vec![(7, vec![(1, 1.0)])]
            );
            write_meta(b, &[(1, 99)]).unwrap();
            assert_eq!(read_meta(b).unwrap(), vec![(1, 99)]);
            destroy(wd);
        }
    }

    #[test]
    fn reading_a_stream_as_the_wrong_kind_fails() {
        for (b, wd) in backends() {
            let b = b.as_ref();
            write_pairs(b, StreamId::InEdges(0), &[(0, 1)]).unwrap();
            // Same partition number, different stream → different kind
            // on disk paths AND different key in memory: simulate the
            // mistake at the raw layer by copying bytes across streams.
            let raw = record_file::encode_pairs(RecordKind::InEdges, &[(0, 1)]);
            b.write(StreamId::OutEdges(0), &raw).unwrap();
            let err = read_pairs(b, StreamId::OutEdges(0)).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
            destroy(wd);
        }
    }

    #[test]
    fn missing_stream_is_an_io_error() {
        for (b, wd) in backends() {
            let err = read_pairs(b.as_ref(), StreamId::TupleBucket(9, 9)).unwrap_err();
            assert!(matches!(err, StoreError::Io { .. }), "{err}");
            destroy(wd);
        }
    }

    #[test]
    fn delete_is_idempotent_and_exists_tracks() {
        for (b, wd) in backends() {
            let b = b.as_ref();
            assert!(!b.exists(StreamId::Profiles(3)));
            write_user_lists(b, StreamId::Profiles(3), &[]).unwrap();
            assert!(b.exists(StreamId::Profiles(3)));
            b.delete(StreamId::Profiles(3)).unwrap();
            b.delete(StreamId::Profiles(3)).unwrap();
            assert!(!b.exists(StreamId::Profiles(3)));
            destroy(wd);
        }
    }

    #[test]
    fn list_and_clear_tuples_cover_buckets_and_runs() {
        for (b, wd) in backends() {
            let b = b.as_ref();
            write_pairs(b, StreamId::TupleBucket(0, 1), &[(0, 1)]).unwrap();
            write_pairs(b, StreamId::TupleRun(0, 1, 2), &[(0, 1)]).unwrap();
            write_pairs(b, StreamId::ExchangeRun(0, 1, 0), &[(0, 1)]).unwrap();
            write_user_lists(b, StreamId::Accumulators(0), &[]).unwrap();
            write_user_lists(b, StreamId::Profiles(0), &[]).unwrap();
            write_meta(b, &[]).unwrap();
            let mut listed = b.list().unwrap();
            listed.sort_unstable();
            assert_eq!(
                listed,
                vec![
                    StreamId::Meta,
                    StreamId::Profiles(0),
                    StreamId::Accumulators(0),
                    StreamId::TupleBucket(0, 1),
                    StreamId::TupleRun(0, 1, 2),
                    StreamId::ExchangeRun(0, 1, 0),
                ]
            );
            b.clear_tuples().unwrap();
            let mut listed = b.list().unwrap();
            listed.sort_unstable();
            assert_eq!(listed, vec![StreamId::Meta, StreamId::Profiles(0)]);
            destroy(wd);
        }
    }

    #[test]
    fn update_log_round_trips_and_truncates() {
        for (b, wd) in backends() {
            let b = b.as_ref();
            assert!(read_deltas(b).unwrap().is_empty(), "fresh log is empty");
            let deltas = vec![
                ProfileDelta::set(UserId::new(1), ItemId::new(10), 2.5),
                ProfileDelta::remove(UserId::new(2), ItemId::new(11)),
            ];
            for d in &deltas {
                append_delta(b, d).unwrap();
            }
            assert_eq!(read_deltas(b).unwrap(), deltas);
            b.truncate_updates().unwrap();
            assert!(read_deltas(b).unwrap().is_empty());
            destroy(wd);
        }
    }

    #[test]
    fn backends_store_identical_bytes() {
        // The acceptance bar for compatibility: the raw framed bytes a
        // MemBackend holds equal the file DiskBackend writes.
        let disk = DiskBackend::temp("backend_bytes").unwrap();
        let mem = MemBackend::new();
        let rows = vec![(3u32, vec![(9u32, 1.5f32), (4, -2.0)]), (5, vec![])];
        write_user_lists(&disk, StreamId::Profiles(0), &rows).unwrap();
        write_user_lists(&mem, StreamId::Profiles(0), &rows).unwrap();
        let on_disk =
            std::fs::read(StreamId::Profiles(0).path_in(disk.working_dir().unwrap())).unwrap();
        let in_mem = mem
            .lock_streams()
            .get(&StreamId::Profiles(0))
            .unwrap()
            .clone();
        assert_eq!(on_disk, in_mem);
        disk.working_dir().unwrap().clone().destroy().unwrap();
    }

    #[test]
    fn read_chunk_slices_the_frame_identically_on_both_backends() {
        let disk = DiskBackend::temp("backend_chunks").unwrap();
        let wd = disk.working_dir().unwrap().clone();
        let mem = MemBackend::new();
        let rows: Vec<(u32, u32)> = (0..100).map(|i| (i, i + 1)).collect();
        let mut frames = Vec::new();
        for b in [&disk as &dyn StorageBackend, &mem] {
            write_pairs(b, StreamId::TupleRun(0, 1, 0), &rows).unwrap();
            let total = b.storage_usage().unwrap();
            // Reassemble the frame from misaligned chunks.
            let mut assembled = Vec::new();
            let mut offset = 0u64;
            loop {
                let chunk = b
                    .read_chunk(StreamId::TupleRun(0, 1, 0), offset, 33)
                    .unwrap();
                if chunk.is_empty() {
                    break;
                }
                offset += chunk.len() as u64;
                assembled.extend_from_slice(&chunk);
            }
            assert_eq!(assembled.len() as u64, total);
            // Past-the-end and clamped reads behave.
            assert!(b
                .read_chunk(StreamId::TupleRun(0, 1, 0), total + 10, 8)
                .unwrap()
                .is_empty());
            assert_eq!(
                b.read_chunk(StreamId::TupleRun(0, 1, 0), total - 2, 100)
                    .unwrap()
                    .len(),
                2
            );
            assert!(matches!(
                b.read_chunk(StreamId::TupleRun(9, 9, 9), 0, 8),
                Err(StoreError::Io { .. })
            ));
            frames.push(assembled);
        }
        assert_eq!(frames[0], frames[1], "backends store identical frames");
        assert_eq!(
            disk.stats().snapshot(),
            mem.stats().snapshot(),
            "chunked reads must meter identically"
        );
        wd.destroy().unwrap();
    }

    #[test]
    fn io_stats_are_metered_uniformly() {
        let mut totals = Vec::new();
        for (b, wd) in backends() {
            let b = b.as_ref();
            write_pairs(b, StreamId::Assignment, &[(0, 0), (1, 1)]).unwrap();
            let _ = read_pairs(b, StreamId::Assignment).unwrap();
            append_delta(b, &ProfileDelta::set(UserId::new(0), ItemId::new(0), 1.0)).unwrap();
            let _ = read_deltas(b).unwrap();
            totals.push(b.stats().snapshot());
            destroy(wd);
        }
        assert_eq!(totals[0], totals[1], "disk and mem must meter alike");
    }

    #[test]
    fn stream_ids_display_and_parse_back() {
        let streams = [
            StreamId::InEdges(7),
            StreamId::OutEdges(7),
            StreamId::Profiles(12),
            StreamId::Accumulators(0),
            StreamId::KnnSlice(3),
        ];
        for s in streams {
            assert_eq!(parse_part_name(&s.to_string()), Some(s));
        }
        assert_eq!(
            parse_tuple_name(&StreamId::TupleBucket(1, 2).to_string()),
            Some(StreamId::TupleBucket(1, 2))
        );
        assert_eq!(
            parse_tuple_name(&StreamId::TupleRun(1, 2, 3).to_string()),
            Some(StreamId::TupleRun(1, 2, 3))
        );
        assert_eq!(
            parse_tuple_name(&StreamId::ExchangeRun(4, 5, 6).to_string()),
            Some(StreamId::ExchangeRun(4, 5, 6))
        );
        assert_eq!(parse_part_name("garbage"), None);
        assert_eq!(parse_tuple_name("t00_xx.nope"), None);
    }

    /// The CRC parity contract (regression for the PR-2 gap): a
    /// corrupted frame — here a torn prefix persisted via `write_raw`,
    /// exactly what a crash mid-write leaves — fails the read with
    /// `Corrupt` on **both** backends, not just disk.
    #[test]
    fn corrupt_frames_fail_reads_identically_on_both_backends() {
        for (b, wd) in backends() {
            let b = b.as_ref();
            let stream = StreamId::Profiles(0);
            let payload = record_file::encode_user_lists(
                RecordKind::Profiles,
                &[(7, vec![(1, 1.0)]), (8, vec![(2, -0.5)])],
            );
            let framed = record_file::frame(&payload);

            // A bit flip inside the stored frame.
            let mut flipped = framed.clone();
            flipped[18] ^= 0x40;
            b.write_raw(stream, &flipped).unwrap();
            let err = b.read(stream).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt { detail, .. } if detail.contains("checksum")),
                "{}: {err}",
                b.name()
            );

            // A torn prefix (write persisted only part of the frame).
            b.write_raw(stream, &framed[..framed.len() / 2]).unwrap();
            let err = b.read(stream).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt { .. }),
                "{}: {err}",
                b.name()
            );

            // The intact frame reads back fine.
            b.write_raw(stream, &framed).unwrap();
            assert_eq!(b.read(stream).unwrap(), payload.to_vec());
            destroy(wd);
        }
    }

    #[test]
    fn commit_and_staged_streams_round_trip_and_list() {
        for (b, wd) in backends() {
            let b = b.as_ref();
            b.write(StreamId::Commit, b"commit-payload").unwrap();
            let staged = [
                StreamId::Staged(CommitTarget::Meta, 3),
                StreamId::Staged(CommitTarget::Assignment, 3),
                StreamId::Staged(CommitTarget::Profiles(2), 3),
                StreamId::Staged(CommitTarget::KnnSlice(11), 4),
            ];
            for (i, s) in staged.iter().enumerate() {
                b.write(*s, &[i as u8; 8]).unwrap();
            }
            assert_eq!(b.read(StreamId::Commit).unwrap(), b"commit-payload");
            for (i, s) in staged.iter().enumerate() {
                assert_eq!(b.read(*s).unwrap(), vec![i as u8; 8]);
                assert!(b.exists(*s));
            }
            let mut listed = b.list().unwrap();
            listed.sort_unstable();
            let mut expected = vec![StreamId::Commit];
            expected.extend(staged);
            expected.sort_unstable();
            assert_eq!(listed, expected);
            // Backups sit outside the epoch they don't belong to:
            // deleting them is ordinary stream deletion.
            for s in staged {
                b.delete(s).unwrap();
                assert!(!b.exists(s));
            }
            destroy(wd);
        }
    }

    #[test]
    fn staged_names_parse_back_and_never_collide_with_bases() {
        for (target, epoch) in [
            (CommitTarget::Profiles(7), 0u64),
            (CommitTarget::KnnSlice(3), 12),
        ] {
            let s = StreamId::Staged(target, epoch);
            assert_eq!(parse_part_name(&s.to_string()), Some(s));
        }
        assert_eq!(
            parse_root_name("meta.bin.bak5"),
            Some(StreamId::Staged(CommitTarget::Meta, 5))
        );
        assert_eq!(
            parse_root_name("assignment.bin.bak0"),
            Some(StreamId::Staged(CommitTarget::Assignment, 0))
        );
        assert_eq!(parse_root_name("commit.bin"), Some(StreamId::Commit));
        assert_eq!(parse_root_name("updates.log"), None);
        assert_eq!(parse_root_name("parts"), None);
        assert_eq!(parse_part_name("p0001.accum.bak2"), None);
        assert_eq!(parse_part_name("p0001.profiles.bakx"), None);
    }
}
