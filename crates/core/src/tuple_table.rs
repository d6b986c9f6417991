//! Phase 2's tuple table `H`: columnar staging, radix sorting, and a
//! streaming k-way merge, bucketed by partition pair with spill to the
//! storage backend.
//!
//! The paper uses one hash table to deduplicate candidate tuples
//! `(s, d)` (the same two-hop pair arises once per bridge vertex, plus
//! cycles). This table goes two steps further:
//!
//! * **Symmetric canonicalization** — similarity kernels are
//!   symmetric, so the directed tuples `(s, d)` and `(d, s)` are
//!   stored **once** as the canonical pair `(min, max)` with
//!   [`meta_bits`] recording which directions exist; phase 4 then
//!   evaluates each unordered pair's kernel exactly once and offers
//!   the score along every recorded direction. Because a canonical
//!   tuple's bucket `(part(min), part(max))` is a pure function of
//!   the tuple, deduplicating *per bucket* is equivalent to one
//!   global table.
//! * **Columnar, sort-based dedup** — offers append to per-bucket
//!   struct-of-arrays blocks ([`TupleColumns`]: a `u32` src column, a
//!   `u32` dst column, a packed meta column) with **no per-tuple
//!   allocation and no per-offer hash probe**; duplicates are folded
//!   later by an LSD radix sort + adjacent-merge (meta bits OR), at
//!   spill time and at merge time. Dropping the per-offer dedup maps
//!   removes the one phase-2 structure whose residency grew with the
//!   *unique* tuple count instead of the spill threshold — staging
//!   memory is now strictly `O(buckets × spill_threshold)` rows (or
//!   the explicit byte budget below).
//!
//! Memory is bounded two ways: a bucket whose staging reaches
//! `spill_threshold` rows is flushed to a [`StreamId::TupleRun`] as a
//! sorted, deduplicated run in the varint-delta
//! [`knn_store::tuple_stream`] codec (runs carry the full meta nibble,
//! so old-path bits survive spills without any resident side table);
//! and an optional **byte budget** ([`TupleTable::with_memory_budget`])
//! spills the largest staged bucket whenever total staging exceeds it,
//! which is the knob `EngineConfig::tuple_table_memory` exposes.
//!
//! Finalization runs a **loser-tree k-way merge** per bucket
//! ([`merge_parts`]): the staged block and every spill run merge in
//! one streaming pass. Each run is pulled through a bounded refill
//! window ([`StorageBackend::read_chunk`] + [`knn_store::TupleDecoder`]
//! — never materialized), and the merged output encodes straight into
//! the final bucket stream the phase-4 bucket iteration then
//! consumes. Peak merge memory per bucket is `O(runs × chunk)` plus
//! the staged block — independent of how many tuples spilled, unlike
//! the old load-everything merge.
//!
//! For the partition-parallel phase 2, one table is created per
//! scanned partition (its **run namespace**), so each scan worker
//! spills into a disjoint range of run streams and never contends
//! with its siblings. Tuples generated by two different scans meet in
//! the same bucket merge, where the sort + adjacent-merge resolves
//! them. The merged output — bytes, [`PiGraph`], [`TupleTableStats`],
//! and [`BucketMeta`] — depends only on the offered `(tuple, bits)`
//! multiset, not on how many threads scanned or merged, which is the
//! phase-2 leg of the engine's determinism guarantee.
//! [`TupleTable::finalize`] is the single-table convenience wrapper
//! over the same merge.
//!
//! Final bucket streams persist the canonical pairs with their
//! **direction** bits inline (a pure function of `G(t)`, so bucket
//! bytes never depend on the suppression oracle); the iteration-scoped
//! old-path bits live in the returned [`BucketMeta`] only.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use knn_store::tuple_stream::TupleRow;
use knn_store::{StorageBackend, StreamId, TupleDecoder, TupleStreamWriter};

use crate::par;
use crate::partition::Partitioning;
use crate::{EngineError, PiGraph};

/// Spill runs of one table are numbered `namespace * RUN_STRIDE +
/// local_run`, giving every scan worker a disjoint, deterministic
/// range of [`StreamId::TupleRun`] streams per bucket.
const RUN_STRIDE: u32 = 1 << 16;

/// The largest partition count the run-stream numbering supports (one
/// namespace per scanned partition) — enforced at configuration time
/// by [`crate::EngineConfig`]'s builder.
pub const MAX_PARTITIONS: usize = (u32::MAX / RUN_STRIDE) as usize + 1;

/// Staged bytes per tuple row: two `u32` columns plus the meta byte —
/// what the [`TupleTable::with_memory_budget`] accounting charges.
pub const STAGED_TUPLE_BYTES: usize = 9;

/// Statistics of one phase-2 run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TupleTableStats {
    /// Tuples offered (before dedup).
    pub offered: u64,
    /// Unique tuples kept.
    pub unique: u64,
    /// Duplicates rejected.
    pub duplicates: u64,
    /// Spill runs written before finalize.
    pub spills: u64,
}

/// Per-tuple metadata bits of one **canonical** (undirected) tuple
/// `(u, v)` with `u < v`: which of the two directed candidate tuples
/// exist, and which of them arose through an all-old generating path
/// (i.e. were already evaluated last iteration).
pub mod meta_bits {
    /// The directed tuple `(u, v)` exists (`v` is a candidate for `u`).
    pub const FWD: u8 = 1;
    /// The directed tuple `(v, u)` exists (`u` is a candidate for `v`).
    pub const BWD: u8 = 2;
    /// `(u, v)` was generated by at least one all-old path.
    pub const OLD_FWD: u8 = 4;
    /// `(v, u)` was generated by at least one all-old path.
    pub const OLD_BWD: u8 = 8;

    /// The direction bits — the graph-derived, persisted subset of the
    /// nibble (old-path bits are iteration-relative and stay in
    /// memory).
    pub const DIRECTION_MASK: u8 = FWD | BWD;
}

/// Per-bucket tuple metadata, one byte of [`meta_bits`] per canonical
/// tuple, aligned with the **sorted** tuple order of each final
/// bucket stream. The direction bits are what lets phase 4 evaluate
/// each *unordered* pair's symmetric kernel exactly once and still
/// make exactly the offers the directed tuple set implies; the
/// old-path bits carry the cross-iteration suppression signal.
///
/// Memory posture: the tuple payloads stay on storage (direction bits
/// included, via the v2 tuple codec), but the full metadata byte —
/// old-path bits included — stays resident for the iteration, one
/// byte per unique tuple. That is deliberate at the current scale
/// (~10 MB per 10⁷ tuples); the old-path bits are iteration-relative
/// and meaningless at rest, so persisting them would only tie bucket
/// bytes to the suppression oracle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BucketMeta {
    bytes: HashMap<(u32, u32), Vec<u8>>,
}

impl BucketMeta {
    /// The metadata byte of tuple `idx` in bucket `(i, j)` (sorted
    /// order). Unknown buckets and out-of-range indices read as 0
    /// (no directions — phase 4 treats the tuple as inert).
    ///
    /// Hot loops should resolve the bucket once with
    /// [`BucketMeta::bucket_bytes`] and index the slice instead of
    /// paying a map lookup per tuple.
    pub fn bits(&self, bucket: (u32, u32), idx: usize) -> u8 {
        self.bytes
            .get(&bucket)
            .and_then(|bytes| bytes.get(idx).copied())
            .unwrap_or(0)
    }

    /// The whole metadata byte slice of one bucket, aligned with the
    /// bucket stream's sorted tuple order; `None` for unknown buckets.
    pub fn bucket_bytes(&self, bucket: (u32, u32)) -> Option<&[u8]> {
        self.bytes.get(&bucket).map(Vec::as_slice)
    }

    /// Number of tuples recorded for `bucket`, or `None` when the
    /// bucket is unknown — phase 4 uses this to reject metadata that
    /// does not belong to the bucket streams it is scoring.
    pub fn bucket_len(&self, bucket: (u32, u32)) -> Option<usize> {
        self.bytes.get(&bucket).map(Vec::len)
    }

    /// Total number of directed tuples represented (FWD and BWD bits).
    pub fn num_directed(&self) -> u64 {
        self.bytes
            .values()
            .flat_map(|bytes| bytes.iter())
            .map(|&b| ((b & meta_bits::FWD != 0) as u64) + ((b & meta_bits::BWD != 0) as u64))
            .sum()
    }

    fn insert(&mut self, bucket: (u32, u32), bytes: Vec<u8>) {
        self.bytes.insert(bucket, bytes);
    }

    /// Folds another meta set into this one. The two bucket sets must
    /// be disjoint — every bucket is merged by exactly one owner — so
    /// absorbing the per-shard outputs of a sharded phase 2 rebuilds
    /// the same map a single-process merge would have produced.
    ///
    /// # Panics
    ///
    /// Panics if `other` carries a bucket this set already holds.
    pub fn absorb(&mut self, other: BucketMeta) {
        for (bucket, bytes) in other.bytes {
            let clash = self.bytes.insert(bucket, bytes);
            assert!(
                clash.is_none(),
                "bucket ({}, {}) merged by two owners",
                bucket.0,
                bucket.1
            );
        }
    }
}

// ---------------------------------------------------------------------
// Columnar staging + LSD radix sort
// ---------------------------------------------------------------------

/// One bucket's staged tuples in struct-of-arrays form: parallel
/// `src`/`dst`/`meta` columns. Appends are three plain pushes; sorting
/// and deduplication are columnar passes with no comparator and no
/// per-tuple allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TupleColumns {
    src: Vec<u32>,
    dst: Vec<u32>,
    meta: Vec<u8>,
}

impl TupleColumns {
    /// An empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rows staged.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether no row is staged.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Appends one canonical row.
    pub fn push(&mut self, u: u32, v: u32, meta: u8) {
        self.src.push(u);
        self.dst.push(v);
        self.meta.push(meta);
    }

    /// The row at `idx`.
    pub fn row(&self, idx: usize) -> TupleRow {
        (self.src[idx], self.dst[idx], self.meta[idx])
    }

    /// Moves every row of `other` into `self` (concatenation).
    pub fn append(&mut self, other: &mut TupleColumns) {
        self.src.append(&mut other.src);
        self.dst.append(&mut other.dst);
        self.meta.append(&mut other.meta);
    }

    fn clear(&mut self) {
        self.src.clear();
        self.dst.clear();
        self.meta.clear();
    }

    fn truncate(&mut self, len: usize) {
        self.src.truncate(len);
        self.dst.truncate(len);
        self.meta.truncate(len);
    }

    /// Releases the columns' heap capacity (used after a
    /// budget-triggered spill, where high-water capacity would defeat
    /// the budget).
    fn release_capacity(&mut self) {
        self.src = Vec::new();
        self.dst = Vec::new();
        self.meta = Vec::new();
    }

    /// Sorts the rows by `(src, dst)` with an LSD radix sort (byte
    /// digits, low to high, dst column then src column; uniform digit
    /// passes are skipped) and folds duplicate pairs by OR-ing their
    /// meta bits. The result is the sorted unique canonical rows —
    /// exactly what a comparison sort + dedup would produce, without
    /// the branchy comparator.
    pub fn sort_dedup(&mut self) {
        let n = self.len();
        if n > 1 {
            self.radix_sort();
            self.dedup_or();
        }
    }

    fn radix_sort(&mut self) {
        let n = self.len();
        let mut scratch = TupleColumns {
            src: vec![0; n],
            dst: vec![0; n],
            meta: vec![0; n],
        };
        // LSD over the 64-bit key (src, dst): 4 byte-passes on dst
        // then 4 on src. Each pass is a stable counting sort; a pass
        // whose digit is uniform across all rows is a no-op and is
        // skipped (the common case for the high bytes of real ids).
        for (use_src, shift) in [
            (false, 0u32),
            (false, 8),
            (false, 16),
            (false, 24),
            (true, 0),
            (true, 8),
            (true, 16),
            (true, 24),
        ] {
            let mut hist = [0usize; 256];
            {
                let keys = if use_src { &self.src } else { &self.dst };
                for &k in keys {
                    hist[((k >> shift) & 0xFF) as usize] += 1;
                }
            }
            if hist.contains(&n) {
                continue;
            }
            let mut offsets = [0usize; 256];
            let mut sum = 0usize;
            for b in 0..256 {
                offsets[b] = sum;
                sum += hist[b];
            }
            for i in 0..n {
                let key = if use_src { self.src[i] } else { self.dst[i] };
                let digit = ((key >> shift) & 0xFF) as usize;
                let out = offsets[digit];
                offsets[digit] += 1;
                scratch.src[out] = self.src[i];
                scratch.dst[out] = self.dst[i];
                scratch.meta[out] = self.meta[i];
            }
            std::mem::swap(&mut self.src, &mut scratch.src);
            std::mem::swap(&mut self.dst, &mut scratch.dst);
            std::mem::swap(&mut self.meta, &mut scratch.meta);
        }
    }

    /// Folds adjacent equal pairs (input must be sorted), OR-ing meta.
    fn dedup_or(&mut self) {
        let n = self.len();
        if n == 0 {
            return;
        }
        let mut write = 0usize;
        for read in 1..n {
            if self.src[read] == self.src[write] && self.dst[read] == self.dst[write] {
                self.meta[write] |= self.meta[read];
            } else {
                write += 1;
                self.src[write] = self.src[read];
                self.dst[write] = self.dst[read];
                self.meta[write] = self.meta[read];
            }
        }
        self.truncate(write + 1);
    }
}

// ---------------------------------------------------------------------
// The columnar tuple table
// ---------------------------------------------------------------------

/// The bucketed, spilling columnar tuple table (see the module docs).
pub struct TupleTable<'a> {
    backend: &'a dyn StorageBackend,
    partitioning: &'a Partitioning,
    spill_threshold: usize,
    /// Optional staging byte budget across all buckets of this table;
    /// exceeding it spills the largest staged bucket.
    memory_budget: Option<usize>,
    /// Run-stream namespace of this table (the scanned partition).
    namespace: u32,
    /// In-memory columnar staging per bucket (canonical rows, offers
    /// appended verbatim — duplicates fold at sort time).
    staging: BTreeMap<(u32, u32), TupleColumns>,
    /// Total staged rows across buckets (budget accounting).
    staged_rows: usize,
    /// Buckets that have spilled runs on storage (run count).
    spilled: BTreeMap<(u32, u32), u32>,
    counters: TupleTableStats,
}

/// The detached output of one table: staged columns, spill-run counts,
/// and counters, ready for [`merge_parts`]. Produced by
/// [`TupleTable::into_parts`] on the scan worker, consumed on the
/// merge side.
pub struct TableParts {
    namespace: u32,
    staging: BTreeMap<(u32, u32), TupleColumns>,
    spilled: BTreeMap<(u32, u32), u32>,
    counters: TupleTableStats,
}

impl<'a> TupleTable<'a> {
    /// Creates a table writing buckets through `backend`, spilling any
    /// bucket whose staging reaches `spill_threshold` rows. The table
    /// uses run namespace 0 — the right choice whenever a single table
    /// processes the whole graph.
    ///
    /// # Panics
    ///
    /// Panics if `spill_threshold == 0`.
    pub fn new(
        backend: &'a dyn StorageBackend,
        partitioning: &'a Partitioning,
        spill_threshold: usize,
    ) -> Self {
        Self::with_namespace(backend, partitioning, spill_threshold, 0)
    }

    /// Creates a table whose spill runs live in `namespace` (one
    /// namespace per scanned partition in the parallel phase 2, so
    /// concurrent tables never write the same run stream).
    ///
    /// # Panics
    ///
    /// Panics if `spill_threshold == 0` or the namespace would
    /// overflow the run-stream numbering.
    pub fn with_namespace(
        backend: &'a dyn StorageBackend,
        partitioning: &'a Partitioning,
        spill_threshold: usize,
        namespace: u32,
    ) -> Self {
        assert!(spill_threshold > 0, "spill threshold must be positive");
        assert!(
            namespace <= u32::MAX / RUN_STRIDE,
            "run namespace {namespace} out of range"
        );
        TupleTable {
            backend,
            partitioning,
            spill_threshold,
            memory_budget: None,
            namespace,
            staging: BTreeMap::new(),
            staged_rows: 0,
            spilled: BTreeMap::new(),
            counters: TupleTableStats::default(),
        }
    }

    /// Caps this table's total staging at `bytes`
    /// ([`STAGED_TUPLE_BYTES`] per row): whenever the cap is exceeded,
    /// the largest staged bucket spills — deterministically (ties
    /// break on the smaller bucket key), so the spill pattern is a
    /// pure function of the offer sequence. `None` disables the cap
    /// (per-bucket `spill_threshold` still applies).
    pub fn with_memory_budget(mut self, bytes: Option<usize>) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Offers the directed tuple `(s, d)` — "`d` is a candidate for
    /// `s`"; self-tuples (`s == d`) are ignored. The tuple is tagged
    /// as *freshly generated* (its path contains a new edge) — use
    /// [`TupleTable::offer_flagged`] to tag old paths.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Store`] if a spill write fails.
    pub fn offer(&mut self, s: u32, d: u32) -> Result<(), EngineError> {
        self.offer_flagged(s, d, false)
    }

    /// Offers the directed tuple `(s, d)` with its path-age flag:
    /// `old_path` is `true` when every edge of the generating path
    /// already existed last iteration (so the pair was already
    /// evaluated then).
    ///
    /// Internally the table stages the **canonical** undirected tuple
    /// `(min, max)` with its [`meta_bits`] nibble; duplicate offers
    /// are appended as-is and folded (bits OR) by the sort at spill or
    /// merge time — a direction is suppressible if **any** of its
    /// generating paths is all-old, and OR over the offer multiset is
    /// order-independent, which keeps the output thread-invariant.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Store`] if a spill write fails.
    pub fn offer_flagged(&mut self, s: u32, d: u32, old_path: bool) -> Result<(), EngineError> {
        if s == d {
            return Ok(());
        }
        self.counters.offered += 1;
        let (u, v) = (s.min(d), s.max(d));
        let bits = if s < d {
            meta_bits::FWD | if old_path { meta_bits::OLD_FWD } else { 0 }
        } else {
            meta_bits::BWD | if old_path { meta_bits::OLD_BWD } else { 0 }
        };
        let key = (
            self.partitioning.partition_of(knn_graph::UserId::new(u)),
            self.partitioning.partition_of(knn_graph::UserId::new(v)),
        );
        let staged = self.staging.entry(key).or_default();
        staged.push(u, v, bits);
        self.staged_rows += 1;
        if staged.len() >= self.spill_threshold {
            self.spill(key)?;
        }
        if let Some(budget) = self.memory_budget {
            while self.staged_rows * STAGED_TUPLE_BYTES > budget {
                let Some(largest) = self.largest_staged_bucket() else {
                    break;
                };
                self.spill(largest)?;
            }
        }
        Ok(())
    }

    /// The non-empty staged bucket with the most rows; ties break on
    /// the smaller key (deterministic budget spilling).
    fn largest_staged_bucket(&self) -> Option<(u32, u32)> {
        self.staging
            .iter()
            .filter(|(_, cols)| !cols.is_empty())
            .max_by(|(ka, a), (kb, b)| a.len().cmp(&b.len()).then(kb.cmp(ka)))
            .map(|(&k, _)| k)
    }

    fn spill(&mut self, key: (u32, u32)) -> Result<(), EngineError> {
        let run_idx = *self.spilled.get(&key).unwrap_or(&0);
        if run_idx >= RUN_STRIDE {
            return Err(EngineError::input(format!(
                "bucket ({}, {}) exceeded {RUN_STRIDE} spill runs; raise spill_threshold",
                key.0, key.1
            )));
        }
        let budgeted = self.memory_budget.is_some();
        let staged = self.staging.get_mut(&key).expect("spill of unknown bucket");
        self.staged_rows -= staged.len();
        staged.sort_dedup();
        let mut writer = TupleStreamWriter::new();
        for i in 0..staged.len() {
            let (u, v, meta) = staged.row(i);
            writer.push(u, v, meta);
        }
        self.backend.write(
            StreamId::TupleRun(key.0, key.1, self.namespace * RUN_STRIDE + run_idx),
            &writer.finish(),
        )?;
        if budgeted {
            // Under a byte budget, high-water capacity must not
            // linger; without one, the bucket will refill to the
            // threshold anyway, so the capacity is kept.
            staged.release_capacity();
        } else {
            staged.clear();
        }
        self.spilled.insert(key, run_idx + 1);
        self.counters.spills += 1;
        Ok(())
    }

    /// Detaches the table from the backend, returning its staged
    /// columns, spill-run bookkeeping, and counters for
    /// [`merge_parts`]. Cross-table duplicates are resolved by the
    /// merge (metadata bits OR together).
    pub fn into_parts(self) -> TableParts {
        TableParts {
            namespace: self.namespace,
            staging: self.staging,
            spilled: self.spilled,
            counters: self.counters,
        }
    }

    /// Flushes and merges every bucket to its final stream, returning
    /// the PI graph (bucket → tuple count), the run statistics, and
    /// the per-bucket tuple metadata. Single-table shorthand for
    /// [`merge_parts`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Store`] on I/O failure.
    pub fn finalize(self) -> Result<(PiGraph, TupleTableStats, BucketMeta), EngineError> {
        let backend = self.backend;
        let num_partitions = self.partitioning.num_partitions();
        merge_parts(backend, num_partitions, vec![self.into_parts()], 1)
    }
}

// ---------------------------------------------------------------------
// The streaming k-way merge
// ---------------------------------------------------------------------

/// Refill window of one spill-run cursor during the k-way merge. Per
/// merging bucket the resident footprint is `sources × ~this` — the
/// issue's `O(runs × buffer)` bound — independent of how many tuples
/// were spilled.
const RUN_CHUNK_BYTES: u64 = 64 * 1024;

/// A bounded-buffer cursor over one spill run: fetches the framed
/// stream in [`RUN_CHUNK_BYTES`] windows through
/// [`StorageBackend::read_chunk`] and decodes rows incrementally with
/// a [`TupleDecoder`]; a row straddling a window boundary triggers a
/// refill, never a whole-run materialization.
struct ChunkedRunReader<'a> {
    backend: &'a dyn StorageBackend,
    stream: StreamId,
    path: std::path::PathBuf,
    decoder: TupleDecoder,
    buf: Vec<u8>,
    pos: usize,
    /// Offset of the next unfetched framed byte.
    next_offset: u64,
    /// The last fetch came back short: the stream has no more bytes.
    source_done: bool,
    chunk_bytes: u64,
}

impl<'a> ChunkedRunReader<'a> {
    fn open(
        backend: &'a dyn StorageBackend,
        stream: StreamId,
        chunk_bytes: u64,
    ) -> Result<Self, EngineError> {
        // The first window must cover the stream header; any sane
        // chunk size does, but tests shrink the window to stress
        // boundary straddling.
        let first_fetch = chunk_bytes.max(32);
        let path = backend.describe(stream);
        let buf = backend.read_chunk(stream, 0, first_fetch)?;
        let source_done = (buf.len() as u64) < first_fetch;
        let (decoder, pos) = TupleDecoder::from_stream_start(&buf, &path)?;
        Ok(ChunkedRunReader {
            backend,
            stream,
            path,
            decoder,
            next_offset: buf.len() as u64,
            buf,
            pos,
            source_done,
            chunk_bytes,
        })
    }

    fn next(&mut self) -> Result<Option<TupleRow>, EngineError> {
        loop {
            match self
                .decoder
                .try_next(&self.buf, &mut self.pos, &self.path)?
            {
                knn_store::DecodeStep::Row(row) => return Ok(Some(row)),
                knn_store::DecodeStep::Done => return Ok(None),
                knn_store::DecodeStep::NeedMore => {
                    if self.source_done {
                        return Err(EngineError::Store(knn_store::StoreError::corrupt(
                            &self.path,
                            "spill run ends mid-row",
                        )));
                    }
                    // Drop the consumed prefix, then refill one window.
                    self.buf.drain(..self.pos);
                    self.pos = 0;
                    let chunk =
                        self.backend
                            .read_chunk(self.stream, self.next_offset, self.chunk_bytes)?;
                    self.next_offset += chunk.len() as u64;
                    if (chunk.len() as u64) < self.chunk_bytes {
                        self.source_done = true;
                    }
                    self.buf.extend_from_slice(&chunk);
                }
            }
        }
    }
}

/// One input of a bucket merge: the bucket's concatenated staged
/// columns (sorted before merging) or one spill run streaming through
/// a bounded refill window.
enum MergeSource<'a> {
    Staged { cols: TupleColumns, pos: usize },
    Run(ChunkedRunReader<'a>),
}

impl MergeSource<'_> {
    fn next(&mut self) -> Result<Option<TupleRow>, EngineError> {
        match self {
            MergeSource::Staged { cols, pos } => {
                if *pos < cols.len() {
                    let row = cols.row(*pos);
                    *pos += 1;
                    Ok(Some(row))
                } else {
                    Ok(None)
                }
            }
            MergeSource::Run(reader) => reader.next(),
        }
    }
}

/// Whether head `a` wins the match against head `b` (strictly smaller
/// canonical key; exhausted sources lose to everything).
fn wins(a: &Option<TupleRow>, b: &Option<TupleRow>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => (x.0, x.1) < (y.0, y.1),
        (Some(_), None) => true,
        _ => false,
    }
}

/// A loser tree (tournament tree) over `k` sorted sources: `tree[0]`
/// holds the overall winner's source index, every internal node the
/// loser of its match. Selecting the next row after advancing a
/// source replays only that source's leaf-to-root path — O(log k)
/// comparisons per merged row instead of the O(k) of a linear scan.
struct LoserTree {
    k: usize,
    tree: Vec<usize>,
    heads: Vec<Option<TupleRow>>,
}

impl LoserTree {
    fn new(heads: Vec<Option<TupleRow>>) -> Self {
        let k = heads.len();
        let mut lt = LoserTree {
            k,
            tree: vec![usize::MAX; k.max(1)],
            heads,
        };
        // Build by playing leaves right to left; a path stops at the
        // first empty node (its opponent bracket has not played yet).
        for s in (0..k).rev() {
            lt.build_path(s);
        }
        lt
    }

    fn build_path(&mut self, mut winner: usize) {
        let mut node = (winner + self.k) / 2;
        while node > 0 {
            let loser = self.tree[node];
            if loser == usize::MAX {
                self.tree[node] = winner;
                return;
            }
            if wins(&self.heads[loser], &self.heads[winner]) {
                self.tree[node] = winner;
                winner = loser;
            }
            node /= 2;
        }
        self.tree[0] = winner;
    }

    /// Replays source `s`'s path after its head changed.
    fn replay(&mut self, mut winner: usize) {
        let mut node = (winner + self.k) / 2;
        while node > 0 {
            let loser = self.tree[node];
            if wins(&self.heads[loser], &self.heads[winner]) {
                self.tree[node] = winner;
                winner = loser;
            }
            node /= 2;
        }
        self.tree[0] = winner;
    }

    fn winner(&self) -> usize {
        self.tree[0]
    }
}

/// One bucket's pending merge input: staged blocks and spill runs from
/// every contributing table, in namespace order, plus any exchange
/// streams received from other shards.
struct BucketWork {
    key: (u32, u32),
    staged: TupleColumns,
    runs: Vec<(u32, u32)>,      // (namespace, run count)
    exchange: Vec<(u32, bool)>, // (arrival seq, originated as a spill run)
}

/// One canonical-pair payload extracted for cross-shard exchange: the
/// sorted unique rows of a staged block or a spill run whose bucket is
/// owned by another shard, encoded as a TuplesV2 stream payload (full
/// meta nibble, same codec as spill runs). Produced by
/// [`extract_foreign_payloads`], persisted by the owner as a
/// [`StreamId::ExchangeRun`], and merged via
/// [`merge_parts_with_exchange`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignPayload {
    /// The destination bucket `(i, j)`.
    pub bucket: (u32, u32),
    /// Whether the payload originated as a spill run rather than a
    /// staged block — the owner's merge-pass accounting depends on it
    /// (a bucket records a merge pass exactly when some contributing
    /// table spilled, local or not).
    pub from_spill: bool,
    /// Canonical rows carried (sorted, unique).
    pub rows: u64,
    /// The unframed TuplesV2 stream payload.
    pub bytes: Vec<u8>,
}

/// One received exchange stream feeding a bucket merge: the payload
/// was persisted as `StreamId::ExchangeRun(bucket.0, bucket.1, seq)`
/// by the owning shard before merging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeSource {
    /// The bucket the stream belongs to.
    pub bucket: (u32, u32),
    /// Arrival sequence number (the third `ExchangeRun` coordinate).
    pub seq: u32,
    /// See [`ForeignPayload::from_spill`].
    pub from_spill: bool,
}

/// Extracts every staged block and spill run whose bucket is **not**
/// local (per `is_local` over bucket keys) out of `parts`, returning
/// them as encoded [`ForeignPayload`]s for the exchange fabric. The
/// sharded phase 2 calls this between the partition scans and the
/// bucket merge; a single-process run never does (everything is
/// local).
///
/// Foreign staged blocks are sorted and deduplicated, then encoded
/// (empty blocks yield no payload); foreign spill runs are drained
/// through the same bounded [`StorageBackend::read_chunk`] window the
/// local merge would use — so the metered read traffic for a spilled
/// bucket is identical whether its owner is local or remote — then
/// re-encoded and deleted. Payload order is deterministic: parts in
/// namespace order, buckets in ascending key order, staged blocks
/// before runs.
///
/// # Errors
///
/// Returns [`EngineError::Store`] on I/O failure or a corrupt run.
pub fn extract_foreign_payloads(
    backend: &dyn StorageBackend,
    parts: &mut [TableParts],
    is_local: impl Fn((u32, u32)) -> bool,
) -> Result<Vec<ForeignPayload>, EngineError> {
    let mut order: Vec<usize> = (0..parts.len()).collect();
    order.sort_by_key(|&i| parts[i].namespace);
    let mut payloads = Vec::new();
    for idx in order {
        let part = &mut parts[idx];
        let foreign_staged: Vec<(u32, u32)> = part
            .staging
            .keys()
            .copied()
            .filter(|&key| !is_local(key))
            .collect();
        for key in foreign_staged {
            let mut staged = part.staging.remove(&key).expect("listed key present");
            staged.sort_dedup();
            if staged.is_empty() {
                continue;
            }
            let mut writer = TupleStreamWriter::new();
            for i in 0..staged.len() {
                let (u, v, meta) = staged.row(i);
                writer.push(u, v, meta);
            }
            payloads.push(ForeignPayload {
                bucket: key,
                from_spill: false,
                rows: staged.len() as u64,
                bytes: writer.finish().to_vec(),
            });
        }
        let foreign_runs: Vec<((u32, u32), u32)> = part
            .spilled
            .iter()
            .filter(|&(&key, _)| !is_local(key))
            .map(|(&key, &runs)| (key, runs))
            .collect();
        for (key, runs) in foreign_runs {
            part.spilled.remove(&key);
            for run in 0..runs {
                let stream = StreamId::TupleRun(key.0, key.1, part.namespace * RUN_STRIDE + run);
                let mut reader = ChunkedRunReader::open(backend, stream, RUN_CHUNK_BYTES)?;
                let mut writer = TupleStreamWriter::new();
                while let Some((u, v, meta)) = reader.next()? {
                    writer.push(u, v, meta);
                }
                backend.delete(stream)?;
                payloads.push(ForeignPayload {
                    bucket: key,
                    from_spill: true,
                    rows: writer.len(),
                    bytes: writer.finish().to_vec(),
                });
            }
        }
    }
    Ok(payloads)
}

/// Merges the parts of every scan table into the final bucket streams:
/// per bucket, radix-sort the concatenated staging, then stream a
/// loser-tree k-way merge over the staged block and every spill run,
/// OR-ing the meta bits of equal canonical pairs, encoding the output
/// straight into the bucket's v2 tuple stream (direction bits inline;
/// old-path bits into the returned [`BucketMeta`]). Runs are deleted
/// as soon as their bucket merges. Buckets are processed across
/// `threads` workers — each bucket is a disjoint stream whose content
/// is a pure function of the offered `(tuple, bits)` multiset, so the
/// persisted bytes, [`PiGraph`], and [`BucketMeta`] are identical at
/// every thread count.
///
/// Statistics: `offered` and `spills` sum over the parts; `unique`
/// counts the merged **canonical** tuples; `duplicates = offered -
/// unique` (exactly the count a single global hash table would have
/// folded at offer time). Each bucket that merges at least one spill
/// run records one merge pass in the backend's
/// [`knn_store::IoStats`].
///
/// # Errors
///
/// Returns [`EngineError::Store`] on I/O failure.
pub fn merge_parts(
    backend: &dyn StorageBackend,
    num_partitions: usize,
    parts: Vec<TableParts>,
    threads: usize,
) -> Result<(PiGraph, TupleTableStats, BucketMeta), EngineError> {
    merge_parts_with_exchange(backend, num_partitions, parts, threads, Vec::new())
}

/// [`merge_parts`] extended with received exchange streams: each
/// [`ExchangeSource`] is one foreign run persisted as a
/// [`StreamId::ExchangeRun`], opened as an additional loser-tree input
/// of its bucket's merge — exactly like a local spill run, through the
/// same bounded refill window. Exchange streams are deleted once their
/// bucket merges, like runs.
///
/// A bucket records a merge pass when it merges local spill runs **or**
/// an exchange stream that originated as one (`from_spill`) — the same
/// "some contributing table spilled" predicate a single-process merge
/// applies, so summed merge-pass counts are shard-count-invariant.
///
/// With exchange sources present, a shard's `offered` counts only its
/// own scans while `unique` counts the buckets it owns, so the
/// per-shard `duplicates` field is meaningless in isolation (it
/// saturates at 0); callers aggregate `offered` and `unique` across
/// shards and derive the global `duplicates` from the sums.
///
/// # Errors
///
/// Returns [`EngineError::Store`] on I/O failure.
pub fn merge_parts_with_exchange(
    backend: &dyn StorageBackend,
    num_partitions: usize,
    mut parts: Vec<TableParts>,
    threads: usize,
    exchange: Vec<ExchangeSource>,
) -> Result<(PiGraph, TupleTableStats, BucketMeta), EngineError> {
    parts.sort_by_key(|p| p.namespace);
    let mut counters = TupleTableStats::default();
    let mut work: BTreeMap<(u32, u32), BucketWork> = BTreeMap::new();
    let new_bucket = |key: (u32, u32)| BucketWork {
        key,
        staged: TupleColumns::new(),
        runs: Vec::new(),
        exchange: Vec::new(),
    };
    for part in parts {
        counters.offered += part.counters.offered;
        counters.spills += part.counters.spills;
        let keys: BTreeSet<(u32, u32)> = part
            .staging
            .keys()
            .chain(part.spilled.keys())
            .copied()
            .collect();
        let mut staging = part.staging;
        for key in keys {
            let entry = work.entry(key).or_insert_with(|| new_bucket(key));
            if let Some(mut staged) = staging.remove(&key) {
                entry.staged.append(&mut staged);
            }
            if let Some(&runs) = part.spilled.get(&key) {
                entry.runs.push((part.namespace, runs));
            }
        }
    }
    for source in exchange {
        // Foreign-only buckets have no local part entry; they still
        // merge (and count) at their owner.
        let entry = work
            .entry(source.bucket)
            .or_insert_with(|| new_bucket(source.bucket));
        entry.exchange.push((source.seq, source.from_spill));
    }

    let keys: Vec<(u32, u32)> = work.keys().copied().collect();
    let buckets: Vec<BucketWork> = work.into_values().collect();
    let merged = par::run_indexed_owned(buckets, threads, |_, work| merge_bucket(backend, work))?;

    let mut pi = PiGraph::new(num_partitions);
    let mut meta = BucketMeta::default();
    for (key, (unique, meta_bytes)) in keys.into_iter().zip(merged) {
        if unique == 0 {
            continue;
        }
        counters.unique += unique;
        pi.add_bucket(key.0, key.1, unique);
        meta.insert(key, meta_bytes);
    }
    counters.duplicates = counters.offered.saturating_sub(counters.unique);
    Ok((pi, counters, meta))
}

/// Merges one bucket (see [`merge_parts`]), returning its unique-tuple
/// count and full metadata bytes.
fn merge_bucket(
    backend: &dyn StorageBackend,
    work: BucketWork,
) -> Result<(u64, Vec<u8>), EngineError> {
    let mut staged = work.staged;
    staged.sort_dedup();
    let run_streams: Vec<StreamId> = work
        .runs
        .iter()
        .flat_map(|&(namespace, runs)| {
            (0..runs).map(move |run| {
                StreamId::TupleRun(work.key.0, work.key.1, namespace * RUN_STRIDE + run)
            })
        })
        .collect();
    let exchange_streams: Vec<StreamId> = work
        .exchange
        .iter()
        .map(|&(seq, _)| StreamId::ExchangeRun(work.key.0, work.key.1, seq))
        .collect();

    let mut sources: Vec<MergeSource> =
        Vec::with_capacity(run_streams.len() + exchange_streams.len() + 1);
    if !staged.is_empty() {
        sources.push(MergeSource::Staged {
            cols: staged,
            pos: 0,
        });
    }
    for &stream in run_streams.iter().chain(&exchange_streams) {
        // Each run streams through a bounded refill window — the
        // merge never materializes a run's payload, so its peak
        // memory is O(runs × RUN_CHUNK_BYTES) plus the staged block.
        sources.push(MergeSource::Run(ChunkedRunReader::open(
            backend,
            stream,
            RUN_CHUNK_BYTES,
        )?));
    }
    // Merge-pass accounting must match the single-process run: a pass
    // is charged when some contributing table spilled this bucket,
    // whether the run arrived locally or as a `from_spill` exchange
    // stream. Staged-only exchange streams don't count — in one
    // process those rows would have sat in the staging map.
    if !run_streams.is_empty() || work.exchange.iter().any(|&(_, from_spill)| from_spill) {
        backend.stats().record_merge_pass();
    }

    let mut writer = TupleStreamWriter::new();
    let mut meta_bytes: Vec<u8> = Vec::new();
    if !sources.is_empty() {
        let mut heads = Vec::with_capacity(sources.len());
        for source in sources.iter_mut() {
            heads.push(source.next()?);
        }
        let mut tree = LoserTree::new(heads);
        loop {
            let w = tree.winner();
            let Some(mut row) = tree.heads[w] else {
                break; // champion exhausted: all sources drained
            };
            tree.heads[w] = sources[w].next()?;
            tree.replay(w);
            // Absorb equal canonical pairs from the other sources,
            // OR-ing their meta bits (order-independent).
            loop {
                let w2 = tree.winner();
                match tree.heads[w2] {
                    Some(peer) if (peer.0, peer.1) == (row.0, row.1) => {
                        row.2 |= peer.2;
                        tree.heads[w2] = sources[w2].next()?;
                        tree.replay(w2);
                    }
                    _ => break,
                }
            }
            // Direction bits persist with the bucket; old-path bits
            // are iteration-scoped and ride in BucketMeta only.
            writer.push(row.0, row.1, row.2 & meta_bits::DIRECTION_MASK);
            meta_bytes.push(row.2);
        }
    }

    let unique = writer.len();
    if unique > 0 {
        backend.write(
            StreamId::TupleBucket(work.key.0, work.key.1),
            &writer.finish(),
        )?;
    }
    for stream in run_streams.into_iter().chain(exchange_streams) {
        backend.delete(stream)?;
    }
    Ok((unique, meta_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_store::backend::read_tuples;
    use knn_store::MemBackend;

    fn setup(n: usize, m: usize) -> (MemBackend, Partitioning) {
        let assignment: Vec<u32> = (0..n).map(|u| (u % m) as u32).collect();
        let p = Partitioning::from_assignment(assignment, m).unwrap();
        (MemBackend::new(), p)
    }

    fn read_bucket(b: &dyn StorageBackend, i: u32, j: u32) -> Vec<(u32, u32)> {
        read_tuples(b, StreamId::TupleBucket(i, j))
            .unwrap()
            .into_iter()
            .map(|(u, v, _)| (u, v))
            .collect()
    }

    /// Expands a merged world back into the directed tuple set the
    /// offers described (the view the reference engine scores).
    fn directed_set(
        b: &dyn StorageBackend,
        pi: &PiGraph,
        meta: &BucketMeta,
    ) -> std::collections::HashSet<(u32, u32)> {
        let mut set = std::collections::HashSet::new();
        for ((i, j), _) in pi.iter_buckets() {
            for (idx, (u, v, inline)) in read_tuples(b, StreamId::TupleBucket(i, j))
                .unwrap()
                .into_iter()
                .enumerate()
            {
                let bits = meta.bits((i, j), idx);
                assert_ne!(bits & meta_bits::DIRECTION_MASK, 0, "inert tuple stored");
                assert_eq!(
                    inline,
                    bits & meta_bits::DIRECTION_MASK,
                    "bucket stream must carry exactly the direction bits"
                );
                if bits & meta_bits::FWD != 0 {
                    set.insert((u, v));
                }
                if bits & meta_bits::BWD != 0 {
                    set.insert((v, u));
                }
            }
        }
        set
    }

    #[test]
    fn columns_radix_sort_matches_comparison_sort() {
        // Keys exercising every digit position, with duplicates whose
        // meta bits must OR together.
        let rows: Vec<TupleRow> = vec![
            (0x01020304, 0x01020305, 1),
            (7, 9, 2),
            (0xFFFF_0000, 0xFFFF_0001, 4),
            (7, 9, 8),
            (7, 8, 1),
            (0x01020304, 0x01020305, 2),
            (0, u32::MAX, 1),
        ];
        let mut cols = TupleColumns::new();
        for &(u, v, m) in &rows {
            cols.push(u, v, m);
        }
        cols.sort_dedup();
        let mut expected: BTreeMap<(u32, u32), u8> = BTreeMap::new();
        for &(u, v, m) in &rows {
            *expected.entry((u, v)).or_insert(0) |= m;
        }
        let got: Vec<TupleRow> = (0..cols.len()).map(|i| cols.row(i)).collect();
        let want: Vec<TupleRow> = expected.into_iter().map(|((u, v), m)| (u, v, m)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn loser_tree_merges_any_source_count() {
        for k in 1usize..8 {
            // Source s holds rows (s, s + k, ...), interleaved keys.
            let sources: Vec<Vec<TupleRow>> = (0..k)
                .map(|s| {
                    (0..10u32)
                        .map(|i| (i * k as u32 + s as u32, u32::MAX, 1u8 << (s % 4)))
                        .collect()
                })
                .collect();
            let mut all: Vec<TupleRow> = sources.iter().flatten().copied().collect();
            all.sort_unstable_by_key(|&(u, v, _)| (u, v));
            let mut cursors: Vec<std::vec::IntoIter<TupleRow>> =
                sources.into_iter().map(Vec::into_iter).collect();
            let heads: Vec<Option<TupleRow>> = cursors.iter_mut().map(Iterator::next).collect();
            let mut tree = LoserTree::new(heads);
            let mut merged = Vec::new();
            loop {
                let w = tree.winner();
                let Some(row) = tree.heads[w] else { break };
                merged.push(row);
                tree.heads[w] = cursors[w].next();
                tree.replay(w);
            }
            assert_eq!(merged, all, "k={k}");
        }
    }

    /// The bounded run cursor yields exactly the run's rows for any
    /// refill window — including windows small enough that every row
    /// straddles a chunk boundary.
    #[test]
    fn chunked_run_reader_matches_whole_stream_decode_at_any_window() {
        let (b, _) = setup(4, 2);
        let rows: Vec<TupleRow> = (0..400u32)
            .flat_map(|u| {
                (u + 1..u + 3).map(move |v| (u * 7, u * 7 + (v - u), ((u + v) % 16) as u8))
            })
            .collect();
        let stream = StreamId::TupleRun(0, 1, 0);
        knn_store::backend::write_tuples(&b, stream, &rows).unwrap();
        for chunk in [1u64, 2, 5, 33, 64 * 1024] {
            let mut reader = ChunkedRunReader::open(&b, stream, chunk).unwrap();
            let mut got = Vec::new();
            while let Some(row) = reader.next().unwrap() {
                got.push(row);
            }
            assert_eq!(got, rows, "chunk={chunk}");
        }
        // A truncated run surfaces as corruption, not a hang or panic.
        let full = b.read(stream).unwrap();
        b.write(stream, &full[..full.len() - 6]).unwrap();
        let mut reader = ChunkedRunReader::open(&b, stream, 16).unwrap();
        let err = loop {
            match reader.next() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("truncated run decoded cleanly"),
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("mid-row"), "{err}");
    }

    #[test]
    fn dedups_within_bucket() {
        let (b, p) = setup(4, 2);
        let mut t = TupleTable::new(&b, &p, 1000);
        for _ in 0..3 {
            t.offer(0, 1).unwrap(); // bucket (0, 1): users 0→p0, 1→p1
        }
        t.offer(0, 3).unwrap(); // also bucket (0, 1)
        let (pi, st, meta) = t.finalize().unwrap();
        assert_eq!(st.offered, 4);
        assert_eq!(st.duplicates, 2);
        assert_eq!(st.unique, 2);
        assert_eq!(pi.bucket_weight(0, 1), 2);
        assert_eq!(read_bucket(&b, 0, 1), vec![(0, 1), (0, 3)]);
        assert_eq!(meta.bits((0, 1), 0), meta_bits::FWD);
        assert_eq!(meta.bits((0, 1), 1), meta_bits::FWD);
    }

    /// The symmetric-dedup contract: (s, d) and (d, s) collapse to one
    /// canonical tuple carrying both direction bits, landing in the
    /// canonical pair's bucket.
    #[test]
    fn opposite_directions_collapse_to_one_canonical_tuple() {
        let (b, p) = setup(4, 2);
        let mut t = TupleTable::new(&b, &p, 1000);
        t.offer(0, 1).unwrap(); // forward
        t.offer(1, 0).unwrap(); // backward: same canonical tuple
        t.offer_flagged(3, 2, true).unwrap(); // backward-only, old path
        let (pi, st, meta) = t.finalize().unwrap();
        assert_eq!(st.offered, 3);
        assert_eq!(st.unique, 2, "two canonical tuples");
        assert_eq!(st.duplicates, 1, "the reverse offer folds in");
        // (0, 1) carries both directions; (2, 3) only the backward one.
        assert_eq!(pi.bucket_weight(0, 1), 2);
        assert_eq!(read_bucket(&b, 0, 1), vec![(0, 1), (2, 3)]);
        assert_eq!(meta.bits((0, 1), 0), meta_bits::FWD | meta_bits::BWD);
        assert_eq!(meta.bits((0, 1), 1), meta_bits::BWD | meta_bits::OLD_BWD);
        assert_eq!(meta.num_directed(), 3);
        let directed = directed_set(&b, &pi, &meta);
        let expected: std::collections::HashSet<(u32, u32)> =
            [(0, 1), (1, 0), (3, 2)].into_iter().collect();
        assert_eq!(directed, expected);
    }

    #[test]
    fn self_tuples_ignored() {
        let (b, p) = setup(4, 2);
        let mut t = TupleTable::new(&b, &p, 1000);
        t.offer(2, 2).unwrap();
        let (pi, st, _) = t.finalize().unwrap();
        assert_eq!(st.offered, 0);
        assert_eq!(pi.total_tuples(), 0);
    }

    #[test]
    fn spill_and_merge_preserves_exact_tuple_set() {
        let (b, p) = setup(100, 4);
        // Tiny threshold forces many spills.
        let mut t = TupleTable::new(&b, &p, 3);
        let mut expected: Vec<(u32, u32)> = Vec::new();
        for s in 0..50u32 {
            for d in 50..60u32 {
                t.offer(s, d).unwrap();
                // Offer every tuple twice: dedup must hold across spills.
                t.offer(s, d).unwrap();
                expected.push((s, d));
            }
        }
        let (pi, st, meta) = t.finalize().unwrap();
        assert!(st.spills > 0, "threshold should have forced spills");
        assert_eq!(st.unique as usize, expected.len());
        assert_eq!(st.duplicates as usize, expected.len());
        // Re-read all buckets and compare with the expected set.
        let directed = directed_set(&b, &pi, &meta);
        let expected: std::collections::HashSet<(u32, u32)> = expected.into_iter().collect();
        assert_eq!(directed, expected);
    }

    /// Old-path bits survive spills (the full nibble rides in the run
    /// streams) and OR across duplicate offers.
    #[test]
    fn meta_bits_survive_spills_and_or_across_offers() {
        for spill_threshold in [1usize, 2, 100] {
            let (b, p) = setup(20, 2);
            let mut t = TupleTable::new(&b, &p, spill_threshold);
            t.offer_flagged(0, 1, true).unwrap(); // old fwd
            t.offer_flagged(2, 3, false).unwrap();
            t.offer_flagged(2, 3, true).unwrap(); // later offer upgrades to old
            t.offer_flagged(5, 4, false).unwrap(); // fresh bwd
            t.offer_flagged(4, 5, true).unwrap(); // old fwd, same canonical
            let (pi, _, meta) = t.finalize().unwrap();
            assert_eq!(pi.bucket_weight(0, 1), 3);
            assert_eq!(read_bucket(&b, 0, 1), vec![(0, 1), (2, 3), (4, 5)]);
            let label = format!("spill={spill_threshold}");
            assert_eq!(
                meta.bits((0, 1), 0),
                meta_bits::FWD | meta_bits::OLD_FWD,
                "{label}"
            );
            assert_eq!(
                meta.bits((0, 1), 1),
                meta_bits::FWD | meta_bits::OLD_FWD,
                "{label}"
            );
            assert_eq!(
                meta.bits((0, 1), 2),
                meta_bits::FWD | meta_bits::BWD | meta_bits::OLD_FWD,
                "{label}: old applies to the offered direction only"
            );
            let old = meta.bucket_bytes((0, 1)).unwrap().iter();
            let old = old.filter(|&&b| b & (meta_bits::OLD_FWD | meta_bits::OLD_BWD) != 0);
            assert_eq!(old.count(), 3, "{label}");
            // Unknown buckets/indices read inert.
            assert_eq!(meta.bits((0, 1), 3), 0);
            assert_eq!(meta.bits((9, 9), 0), 0);
        }
    }

    #[test]
    fn buckets_key_by_canonical_partition_pair() {
        let (b, p) = setup(6, 3); // user u → partition u % 3
        let mut t = TupleTable::new(&b, &p, 100);
        t.offer(0, 1).unwrap(); // canonical (0, 1): p0 → p1
        t.offer(1, 0).unwrap(); // same canonical tuple
        t.offer(3, 4).unwrap(); // canonical (3, 4): p0 → p1 again
        t.offer(2, 5).unwrap(); // p2 → p2 (users 2 and 5 share partition 2)
        t.offer(4, 0).unwrap(); // canonical (0, 4): p0 → p1, backward
        let (pi, _, _) = t.finalize().unwrap();
        assert_eq!(pi.bucket_weight(0, 1), 3);
        assert_eq!(pi.bucket_weight(1, 0), 0, "reverse bucket folded away");
        assert_eq!(pi.bucket_weight(2, 2), 1);
        assert_eq!(pi.num_pairs(), 1);
        assert_eq!(pi.self_pairs(), vec![2]);
    }

    #[test]
    fn run_files_are_cleaned_up() {
        let (b, p) = setup(20, 2);
        let mut t = TupleTable::new(&b, &p, 2);
        for s in 0..10u32 {
            t.offer(s, (s + 1) % 20).unwrap();
        }
        let (_, st, _) = t.finalize().unwrap();
        assert!(st.spills > 0);
        // Only final bucket streams remain.
        assert!(b
            .list()
            .unwrap()
            .iter()
            .all(|s| matches!(s, StreamId::TupleBucket(..))));
    }

    #[test]
    fn empty_table_finalizes_to_empty_pi() {
        let (b, p) = setup(4, 2);
        let t = TupleTable::new(&b, &p, 10);
        let (pi, st, meta) = t.finalize().unwrap();
        assert_eq!(pi.total_tuples(), 0);
        assert_eq!(st.offered, 0);
        assert_eq!(meta.num_directed(), 0);
    }

    /// The parallel-phase-2 contract: tables with distinct namespaces
    /// spill to disjoint run streams, and the merge resolves
    /// cross-table duplicates — including opposite directions seen by
    /// different scans — with the same stats a global table would
    /// report.
    #[test]
    fn namespaced_tables_merge_with_cross_table_dedup() {
        for threads in [1, 2, 4] {
            let (b, p) = setup(20, 2);
            // Table 0 and table 1 both offer (0, 1) and (2, 3); table 1
            // additionally sees (1, 0) — the same canonical tuple from
            // the other side. The tiny threshold forces both copies
            // onto storage as runs.
            let mut parts = Vec::new();
            for ns in 0..2u32 {
                let mut t = TupleTable::with_namespace(&b, &p, 1, ns);
                t.offer(0, 1).unwrap();
                t.offer(2, 3).unwrap();
                if ns == 1 {
                    t.offer_flagged(1, 0, true).unwrap();
                }
                t.offer(ns * 4 + 4, 1).unwrap(); // unique per table
                parts.push(t.into_parts());
            }
            let (pi, st, meta) = merge_parts(&b, 2, parts, threads).unwrap();
            assert_eq!(st.offered, 7);
            assert_eq!(st.unique, 4, "threads={threads}");
            assert_eq!(st.duplicates, 3, "threads={threads}");
            assert_eq!(pi.total_tuples(), 4);
            // Canonical tuples land in the bucket of their (min, max)
            // endpoints: (4, 1) and (8, 1) become backward tuples of
            // the (p1, p0) bucket.
            assert_eq!(read_bucket(&b, 0, 1), vec![(0, 1), (2, 3)]);
            assert_eq!(read_bucket(&b, 1, 0), vec![(1, 4), (1, 8)]);
            // The cross-table reverse offer merged its bits in.
            assert_eq!(
                meta.bits((0, 1), 0),
                meta_bits::FWD | meta_bits::BWD | meta_bits::OLD_BWD,
                "threads={threads}"
            );
            assert_eq!(meta.bits((1, 0), 0), meta_bits::BWD, "threads={threads}");
            assert_eq!(meta.bits((1, 0), 1), meta_bits::BWD, "threads={threads}");
            // Runs from both namespaces are gone.
            assert!(b
                .list()
                .unwrap()
                .iter()
                .all(|s| matches!(s, StreamId::TupleBucket(..))));
        }
    }

    /// The byte budget spills the largest bucket deterministically and
    /// never changes the merged output.
    #[test]
    fn memory_budget_bounds_staging_without_changing_output() {
        let offers: Vec<(u32, u32)> = (0..60u32)
            .flat_map(|s| (0..4u32).map(move |k| (s, (s + 7 * k + 1) % 100)))
            .collect();
        let run = |budget: Option<usize>| {
            let (b, p) = setup(100, 4);
            let mut t = TupleTable::new(&b, &p, 1 << 16).with_memory_budget(budget);
            let mut max_staged = 0usize;
            for &(s, d) in &offers {
                t.offer(s, d).unwrap();
                max_staged = max_staged.max(t.staged_rows);
            }
            let (pi, st, meta) = t.finalize().unwrap();
            let directed = directed_set(&b, &pi, &meta);
            (st.unique, st.duplicates, directed, max_staged, st.spills)
        };
        let unbounded = run(None);
        assert_eq!(unbounded.4, 0, "no budget, huge threshold: no spills");
        let budget_bytes = 40 * STAGED_TUPLE_BYTES;
        let bounded = run(Some(budget_bytes));
        assert!(bounded.4 > 0, "budget must force spills");
        assert!(
            bounded.3 * STAGED_TUPLE_BYTES <= budget_bytes + STAGED_TUPLE_BYTES,
            "staging exceeded the budget: {} rows",
            bounded.3
        );
        assert_eq!(
            (unbounded.0, unbounded.1, &unbounded.2),
            (bounded.0, bounded.1, &bounded.2),
            "budget changed the merged output"
        );
    }

    /// The merge agrees with a plain fold of the offer multiset — a
    /// `BTreeMap` keyed by canonical pair, meta bits OR-combined — on
    /// everything it returns and persists, at every spill threshold.
    #[test]
    fn merge_matches_a_btreemap_fold_of_the_offers() {
        let offers: Vec<(u32, u32, bool)> = (0..40u32)
            .flat_map(|s| {
                [
                    (s, (s + 1) % 40, s % 3 == 0),
                    ((s + 1) % 40, s, false),
                    (s, (s + 13) % 40, true),
                ]
            })
            .collect();
        for spill_threshold in [1usize, 3, 1 << 16] {
            let (b, p) = setup(40, 3);
            let mut t = TupleTable::new(&b, &p, spill_threshold);
            for &(s, d, old) in &offers {
                t.offer_flagged(s, d, old).unwrap();
            }
            let (pi, stats, meta) = t.finalize().unwrap();

            // bucket → canonical pair → OR of the offered bits.
            let mut fold: BTreeMap<(u32, u32), BTreeMap<(u32, u32), u8>> = BTreeMap::new();
            for &(s, d, old) in &offers {
                let (u, v) = (s.min(d), s.max(d));
                let bits = match (s < d, old) {
                    (true, false) => meta_bits::FWD,
                    (true, true) => meta_bits::FWD | meta_bits::OLD_FWD,
                    (false, false) => meta_bits::BWD,
                    (false, true) => meta_bits::BWD | meta_bits::OLD_BWD,
                };
                let part = |x: u32| p.partition_of(knn_graph::UserId::new(x));
                *fold
                    .entry((part(u), part(v)))
                    .or_default()
                    .entry((u, v))
                    .or_insert(0) |= bits;
            }
            let mut want_pi = PiGraph::new(3);
            let mut want_meta = BucketMeta::default();
            let mut want_streams = Vec::new();
            for (&(i, j), rows) in &fold {
                want_pi.add_bucket(i, j, rows.len() as u64);
                want_meta.insert((i, j), rows.values().copied().collect());
                let decoded: Vec<TupleRow> = rows
                    .iter()
                    .map(|(&(u, v), &bits)| (u, v, bits & meta_bits::DIRECTION_MASK))
                    .collect();
                want_streams.push((StreamId::TupleBucket(i, j), decoded));
            }
            let unique: u64 = fold.values().map(|rows| rows.len() as u64).sum();

            assert_eq!(pi, want_pi, "spill={spill_threshold}");
            assert_eq!(meta, want_meta, "spill={spill_threshold}");
            assert_eq!(
                (stats.offered, stats.unique, stats.duplicates),
                (offers.len() as u64, unique, offers.len() as u64 - unique),
                "spill={spill_threshold}"
            );
            // Every stream left behind is a final bucket (spill runs
            // are consumed) and decodes to the fold's rows.
            let mut streams: Vec<(StreamId, Vec<TupleRow>)> = b
                .list()
                .unwrap()
                .into_iter()
                .map(|s| (s, read_tuples(&b, s).unwrap()))
                .collect();
            streams.sort_by_key(|&(s, _)| s);
            want_streams.sort_by_key(|&(s, _)| s);
            assert_eq!(streams, want_streams, "spill={spill_threshold}");
        }
    }
}
