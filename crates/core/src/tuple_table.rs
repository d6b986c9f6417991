//! Phase 2's tuple table `H`: columnar staging, a per-source dedup, and
//! a streaming k-way merge, bucketed by partition pair with spill to
//! the storage backend.
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
//! * **Columnar staging, per-source dedup** — offers append to
//!   struct-of-arrays blocks (a `u32` src column, a `u32` dst column,
//!   a packed meta column), one block per touched bucket, found
//!   through [`Partitioning::assignment`] and one multiplicative-hash
//!   probe, with **no per-tuple allocation and no hash of the tuple
//!   itself**.
//!   Duplicates fold later, at spill time and at merge time, in three
//!   steps: a counting sort of the rows by source, a per-source pass
//!   over each source's destinations with a stamp array (per
//!   destination, the output slot the current source gave it — a
//!   repeat ORs its meta bits into that slot), and a small sort of
//!   each source's unique destinations. Both arrays are indexed by an
//!   endpoint's **row in its partition** ([`Partitioning::users_of`]
//!   is ascending, so row order is id order within a bucket), so the
//!   dedup's scratch is `O(block rows + users of the bucket's two
//!   partitions)` — never `O(n)` or `O(id span)`. Staging memory is
//!   `O(buckets × spill_threshold)` rows (or the explicit byte budget
//!   below), independent of the unique tuple count, plus about 100 B
//!   of bookkeeping per bucket the table touched — never `O(m²)`, so
//!   every partition count up to [`MAX_PARTITIONS`] stays usable.
//!
//! Memory is bounded two ways: a bucket whose staging reaches
//! `spill_threshold` rows is flushed to a [`StreamId::TupleRun`] as a
//! sorted, deduplicated run in the varint-delta
//! [`knn_store::tuple_stream`] codec (direction bits inline); and an
//! optional **byte budget** ([`TupleTable::with_memory_budget`])
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
//! the same bucket merge, whose worker dedups every table's staged
//! block of the bucket in one pass. The merged output — bytes,
//! [`PiGraph`] and [`TupleTableStats`] — depends only on the offered
//! directed-tuple multiset, not on how many threads scanned or merged,
//! which is the phase-2 leg of the engine's determinism guarantee.
//! [`TupleTable::finalize`] is the single-table convenience wrapper
//! over the same merge.
//!
//! Final bucket streams persist the canonical pairs with their
//! direction bits inline, so phase 4 reads everything it needs from
//! the bucket rows themselves.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

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

/// The direction bits of one **canonical** (undirected) tuple `(u, v)`
/// with `u < v`: which of the two directed candidate tuples exist. They
/// are what lets phase 4 evaluate each unordered pair's symmetric
/// kernel once and still make exactly the offers the directed tuple
/// set implies.
pub mod meta_bits {
    /// The directed tuple `(u, v)` exists (`v` is a candidate for `u`).
    pub const FWD: u8 = 1;
    /// The directed tuple `(v, u)` exists (`u` is a candidate for `v`).
    pub const BWD: u8 = 2;
}

// ---------------------------------------------------------------------
// Columnar staging + per-source dedup
// ---------------------------------------------------------------------

/// One bucket's staged tuples in struct-of-arrays form: parallel
/// `src`/`dst`/`meta` columns. Appends are three plain pushes;
/// deduplication is a counting sort plus one stamp-array pass, with
/// no per-tuple allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct TupleColumns {
    src: Vec<u32>,
    dst: Vec<u32>,
    meta: Vec<u8>,
}

impl TupleColumns {
    /// Rows staged.
    fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether no row is staged.
    fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Appends one canonical row.
    fn push(&mut self, u: u32, v: u32, meta: u8) {
        self.src.push(u);
        self.dst.push(v);
        self.meta.push(meta);
    }

    /// The row at `idx`.
    fn row(&self, idx: usize) -> TupleRow {
        (self.src[idx], self.dst[idx], self.meta[idx])
    }

    /// The rows encoded as one tuple stream.
    fn encode(&self) -> TupleStreamWriter {
        let mut writer = TupleStreamWriter::new();
        for i in 0..self.len() {
            let (u, v, meta) = self.row(i);
            writer.push(u, v, meta);
        }
        writer
    }

    fn clear(&mut self) {
        self.src.clear();
        self.dst.clear();
        self.meta.clear();
    }

    /// Releases the columns' heap capacity (used after a
    /// budget-triggered spill, where high-water capacity would defeat
    /// the budget).
    fn release_capacity(&mut self) {
        self.src = Vec::new();
        self.dst = Vec::new();
        self.meta = Vec::new();
    }

    /// Folds the rows of `blocks` into one block of the sorted
    /// (`(src, dst)`) unique rows, OR-ing the meta bits of equal pairs —
    /// what a comparison sort plus adjacent merge of the concatenation
    /// would produce.
    ///
    /// `row` maps an endpoint id to its dense row: every source to a
    /// distinct row below `src_rows`, **increasing with the id**, and
    /// every destination to a distinct row below `dst_rows`. For a
    /// bucket these are the endpoints' rows in their partitions (see
    /// [`dedup_bucket`]), so the scratch — the output block, one count
    /// per source row, one stamp per destination row, and one source's
    /// unique destinations — is `O(rows + src_rows + dst_rows)`.
    ///
    /// # Panics
    ///
    /// Panics if the blocks hold `u32::MAX` rows or more, or if `row`
    /// maps past its bound.
    fn dedup(
        blocks: &[TupleColumns],
        src_rows: usize,
        dst_rows: usize,
        row: impl Fn(u32) -> usize,
    ) -> TupleColumns {
        let n: usize = blocks.iter().map(TupleColumns::len).sum();
        if n == 0 {
            return TupleColumns::default();
        }
        assert!(n < u32::MAX as usize, "tuple block too large to dedup");
        // 1. Counting sort by source row. After the scatter, `ends[r]`
        //    is where source row r's run ends.
        let mut ends = vec![0u32; src_rows + 1];
        for block in blocks {
            for &s in &block.src {
                ends[row(s) + 1] += 1;
            }
        }
        for r in 1..=src_rows {
            ends[r] += ends[r - 1];
        }
        let mut out = TupleColumns {
            src: vec![0; n],
            dst: vec![0; n],
            meta: vec![0; n],
        };
        for block in blocks {
            for (i, &s) in block.src.iter().enumerate() {
                let slot = &mut ends[row(s)];
                let at = *slot as usize;
                *slot += 1;
                out.src[at] = s;
                out.dst[at] = block.dst[i];
                out.meta[at] = block.meta[i];
            }
        }

        // 2. Per source, fold repeated destinations. `stamp[row(d)]` is
        //    1 + the output slot the current source gave `d`; a slot
        //    below the source's first one was set by an earlier source
        //    and reads as untouched, so the array is never reset.
        // 3. Sort the source's unique destinations (packed with their
        //    meta byte) and compact them in place: output rows never
        //    overtake the run being read.
        let mut stamp = vec![0u32; dst_rows];
        let mut unique: Vec<u64> = Vec::new();
        let (mut begin, mut written) = (0usize, 0usize);
        for &end in &ends[..src_rows] {
            let end = end as usize;
            if begin == end {
                continue;
            }
            let s = out.src[begin];
            unique.clear();
            for i in begin..end {
                let d = out.dst[i];
                let mark = &mut stamp[row(d)];
                let at = *mark as usize;
                if at > written {
                    unique[at - 1 - written] |= u64::from(out.meta[i]);
                } else {
                    unique.push(u64::from(d) << 8 | u64::from(out.meta[i]));
                    *mark = (written + unique.len()) as u32;
                }
            }
            unique.sort_unstable();
            for &packed in &unique {
                out.src[written] = s;
                out.dst[written] = (packed >> 8) as u32;
                out.meta[written] = packed as u8;
                written += 1;
            }
            begin = end;
        }
        out.src.truncate(written);
        out.dst.truncate(written);
        out.meta.truncate(written);
        out
    }
}

/// Folds a bucket's staged blocks into its sorted unique rows (see
/// [`TupleColumns::dedup`]), keyed by each endpoint's row in its
/// partition: the bucket's sources all live in partition `i`, its
/// destinations in partition `j`.
fn dedup_bucket(
    partitioning: &Partitioning,
    (i, j): (u32, u32),
    blocks: &[TupleColumns],
) -> TupleColumns {
    let rows = partitioning.rows();
    TupleColumns::dedup(
        blocks,
        partitioning.users_of(i).len(),
        partitioning.users_of(j).len(),
        |id| rows[id as usize] as usize,
    )
}

// ---------------------------------------------------------------------
// The columnar tuple table
// ---------------------------------------------------------------------

/// Hashes the staging index's `(i, j)` bucket keys with one multiply
/// per word (the Fx scheme): at 12 k users on a 2-core host, the
/// default SipHash made phase 2 ~13 % slower than an `O(m²)` dense
/// bucket vector, this ~5 %. Keys are partition ids, so no flooding
/// resistance is needed.
#[derive(Default)]
struct BucketHasher(u64);

impl Hasher for BucketHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u32(u32::from(byte));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(word)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        // The table indexes by the low bits; the well-mixed high bits
        // of the product belong there.
        self.0.rotate_left(26)
    }
}

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
    /// In-memory columnar staging, one block per touched bucket in
    /// first-touch order (canonical rows, offers appended verbatim —
    /// duplicates fold at spill or merge time).
    staging: Vec<((u32, u32), TupleColumns)>,
    /// Each touched bucket's index in `staging`.
    slots: HashMap<(u32, u32), usize, BuildHasherDefault<BucketHasher>>,
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
    /// The non-empty staged blocks, in bucket order.
    staging: Vec<((u32, u32), TupleColumns)>,
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
            staging: Vec::new(),
            slots: HashMap::default(),
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
    /// `s`"; self-tuples (`s == d`) are ignored.
    ///
    /// Internally the table stages the **canonical** undirected tuple
    /// `(min, max)` with its [`meta_bits`] direction bit; duplicate
    /// offers are appended as-is and folded (bits OR) by the dedup at
    /// spill or merge time. OR over the offer multiset is
    /// order-independent, which keeps the output thread-invariant.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Store`] if a spill write fails.
    pub fn offer(&mut self, s: u32, d: u32) -> Result<(), EngineError> {
        if s == d {
            return Ok(());
        }
        self.counters.offered += 1;
        let (u, v) = (s.min(d), s.max(d));
        let bits = if s < d {
            meta_bits::FWD
        } else {
            meta_bits::BWD
        };
        let assignment = self.partitioning.assignment();
        let key = (assignment[u as usize], assignment[v as usize]);
        let slot = *self.slots.entry(key).or_insert_with(|| {
            self.staging.push((key, TupleColumns::default()));
            self.staging.len() - 1
        });
        let staged = &mut self.staging[slot].1;
        staged.push(u, v, bits);
        self.staged_rows += 1;
        if staged.len() >= self.spill_threshold {
            self.spill(slot)?;
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

    /// The staging slot of the non-empty bucket with the most rows;
    /// ties break on the smaller key (deterministic budget spilling).
    fn largest_staged_bucket(&self) -> Option<usize> {
        self.staging
            .iter()
            .enumerate()
            .filter(|(_, (_, cols))| !cols.is_empty())
            .max_by(|(_, (ka, a)), (_, (kb, b))| a.len().cmp(&b.len()).then(kb.cmp(ka)))
            .map(|(slot, _)| slot)
    }

    fn spill(&mut self, slot: usize) -> Result<(), EngineError> {
        let key = self.staging[slot].0;
        let run_idx = *self.spilled.get(&key).unwrap_or(&0);
        if run_idx >= RUN_STRIDE {
            return Err(EngineError::input(format!(
                "bucket ({}, {}) exceeded {RUN_STRIDE} spill runs; raise spill_threshold",
                key.0, key.1
            )));
        }
        let budgeted = self.memory_budget.is_some();
        let staged = &mut self.staging[slot].1;
        self.staged_rows -= staged.len();
        let run = dedup_bucket(self.partitioning, key, std::slice::from_ref(staged));
        self.backend.write(
            StreamId::TupleRun(key.0, key.1, self.namespace * RUN_STRIDE + run_idx),
            &run.encode().finish(),
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
        let mut staging: Vec<((u32, u32), TupleColumns)> = self
            .staging
            .into_iter()
            .filter(|(_, cols)| !cols.is_empty())
            .collect();
        staging.sort_unstable_by_key(|&(key, _)| key);
        TableParts {
            namespace: self.namespace,
            staging,
            spilled: self.spilled,
            counters: self.counters,
        }
    }

    /// Flushes and merges every bucket to its final stream, returning
    /// the PI graph (bucket → tuple count) and the run statistics.
    /// Single-table shorthand for [`merge_parts`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Store`] on I/O failure.
    pub fn finalize(self) -> Result<(PiGraph, TupleTableStats), EngineError> {
        let (backend, partitioning) = (self.backend, self.partitioning);
        merge_parts(backend, partitioning, vec![self.into_parts()], 1)
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
/// every contributing table, in namespace order.
struct BucketWork {
    key: (u32, u32),
    staged: Vec<TupleColumns>,
    runs: Vec<(u32, u32)>, // (namespace, run count)
}

/// Merges the parts of every scan table into the final bucket streams:
/// per bucket, dedup every table's staged block in one pass (keyed
/// through `partitioning`, on the bucket's merge worker), then stream
/// a loser-tree k-way merge over the result and every spill run,
/// OR-ing the direction bits of equal canonical pairs, encoding the
/// output straight into the bucket's v2 tuple stream. Runs are deleted
/// as soon as their bucket merges. Buckets are processed across
/// `threads` workers — each bucket is a disjoint stream whose content
/// is a pure function of the offered `(tuple, bits)` multiset, so the
/// persisted bytes and [`PiGraph`] are identical at every thread
/// count.
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
    partitioning: &Partitioning,
    mut parts: Vec<TableParts>,
    threads: usize,
) -> Result<(PiGraph, TupleTableStats), EngineError> {
    parts.sort_by_key(|p| p.namespace);
    let mut counters = TupleTableStats::default();
    let mut work: BTreeMap<(u32, u32), BucketWork> = BTreeMap::new();
    let new_bucket = |key: (u32, u32)| BucketWork {
        key,
        staged: Vec::new(),
        runs: Vec::new(),
    };
    for part in parts {
        counters.offered += part.counters.offered;
        counters.spills += part.counters.spills;
        for (key, staged) in part.staging {
            let entry = work.entry(key).or_insert_with(|| new_bucket(key));
            entry.staged.push(staged);
        }
        for (key, runs) in part.spilled {
            let entry = work.entry(key).or_insert_with(|| new_bucket(key));
            entry.runs.push((part.namespace, runs));
        }
    }

    let keys: Vec<(u32, u32)> = work.keys().copied().collect();
    let buckets: Vec<BucketWork> = work.into_values().collect();
    let merged = par::run_indexed_owned(buckets, threads, |_, work| {
        merge_bucket(backend, partitioning, work)
    })?;

    let mut pi = PiGraph::new(partitioning.num_partitions());
    for (key, unique) in keys.into_iter().zip(merged) {
        if unique == 0 {
            continue;
        }
        counters.unique += unique;
        pi.add_bucket(key.0, key.1, unique);
    }
    counters.duplicates = counters.offered.saturating_sub(counters.unique);
    Ok((pi, counters))
}

/// Merges one bucket (see [`merge_parts`]), returning its unique-tuple
/// count.
fn merge_bucket(
    backend: &dyn StorageBackend,
    partitioning: &Partitioning,
    work: BucketWork,
) -> Result<u64, EngineError> {
    let staged = dedup_bucket(partitioning, work.key, &work.staged);
    drop(work.staged);
    let run_streams: Vec<StreamId> = work
        .runs
        .iter()
        .flat_map(|&(namespace, runs)| {
            (0..runs).map(move |run| {
                StreamId::TupleRun(work.key.0, work.key.1, namespace * RUN_STRIDE + run)
            })
        })
        .collect();

    let mut sources: Vec<MergeSource> = Vec::with_capacity(run_streams.len() + 1);
    if !staged.is_empty() {
        sources.push(MergeSource::Staged {
            cols: staged,
            pos: 0,
        });
    }
    for &stream in &run_streams {
        // Each run streams through a bounded refill window — the
        // merge never materializes a run's payload, so its peak
        // memory is O(runs × RUN_CHUNK_BYTES) plus the staged block.
        sources.push(MergeSource::Run(ChunkedRunReader::open(
            backend,
            stream,
            RUN_CHUNK_BYTES,
        )?));
    }
    // A pass is charged when some contributing table spilled this
    // bucket.
    if !run_streams.is_empty() {
        backend.stats().record_merge_pass();
    }

    let mut writer = TupleStreamWriter::new();
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
            // OR-ing their direction bits (order-independent).
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
            writer.push(row.0, row.1, row.2);
        }
    }

    let unique = writer.len();
    if unique > 0 {
        backend.write(
            StreamId::TupleBucket(work.key.0, work.key.1),
            &writer.finish(),
        )?;
    }
    for stream in run_streams {
        backend.delete(stream)?;
    }
    Ok(unique)
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

    /// The direction bits of bucket `(i, j)`, in its sorted tuple order.
    fn bucket_bits(b: &dyn StorageBackend, i: u32, j: u32) -> Vec<u8> {
        read_tuples(b, StreamId::TupleBucket(i, j))
            .unwrap()
            .into_iter()
            .map(|(_, _, bits)| bits)
            .collect()
    }

    /// Expands a merged world back into the directed tuple set the
    /// offers described (the view the reference engine scores).
    fn directed_set(b: &dyn StorageBackend, pi: &PiGraph) -> std::collections::HashSet<(u32, u32)> {
        let mut set = std::collections::HashSet::new();
        for ((i, j), _) in pi.iter_buckets() {
            for (u, v, bits) in read_tuples(b, StreamId::TupleBucket(i, j)).unwrap() {
                assert!(
                    bits != 0 && bits & !(meta_bits::FWD | meta_bits::BWD) == 0,
                    "a stored tuple carries direction bits only, at least one"
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

    /// The per-source dedup equals a `BTreeMap` fold of the same rows
    /// with meta bits OR-ed: on standalone blocks (ids at both ends of
    /// `u32`, all-duplicate blocks, a single source, any block split),
    /// and on one bucket whose offers are split across 1, 2 and 8
    /// scan tables.
    #[test]
    fn columns_source_dedup_matches_a_btreemap_fold() {
        fn fold(rows: &[TupleRow]) -> Vec<TupleRow> {
            let mut want: BTreeMap<(u32, u32), u8> = BTreeMap::new();
            for &(u, v, m) in rows {
                *want.entry((u, v)).or_insert(0) |= m;
            }
            want.into_iter().map(|((u, v), m)| (u, v, m)).collect()
        }
        let cases: Vec<(&str, Vec<TupleRow>)> = vec![
            (
                "id extremes",
                vec![
                    (0x01020304, 0x01020305, 1),
                    (7, 9, 2),
                    (0xFFFF_0000, 0xFFFF_0001, 3),
                    (7, 9, 1),
                    (7, 8, 1),
                    (0x01020304, 0x01020305, 2),
                    (0, u32::MAX, 1),
                    (u32::MAX - 1, u32::MAX, 2),
                    (0, u32::MAX, 2),
                    (0, 1, 3),
                ],
            ),
            (
                "all duplicates",
                (0..50).map(|i| (5, 6, 1 << (i % 2))).collect(),
            ),
            (
                "single source",
                (0..40u32)
                    .map(|i| (3, 1000 - (i * 7) % 25, (i % 3 + 1) as u8))
                    .collect(),
            ),
        ];
        for (label, rows) in &cases {
            // Rows are ranks among the block's distinct ids, so the
            // scratch stays O(rows) however far apart the ids sit.
            let mut ids: Vec<u32> = rows.iter().flat_map(|&(u, v, _)| [u, v]).collect();
            ids.sort_unstable();
            ids.dedup();
            let rank = |id: u32| ids.binary_search(&id).unwrap();
            for split in [1usize, 2, 3] {
                let mut blocks = vec![TupleColumns::default(); split];
                for (i, &(u, v, m)) in rows.iter().enumerate() {
                    blocks[i % split].push(u, v, m);
                }
                let got = TupleColumns::dedup(&blocks, ids.len(), ids.len(), rank);
                let got: Vec<TupleRow> = (0..got.len()).map(|i| got.row(i)).collect();
                assert_eq!(got, fold(rows), "{label}, {split} blocks");
            }
        }

        // One bucket, (0, 1), fed by several scan tables at once.
        let offers: Vec<TupleRow> = (0..120u32)
            .map(|i| {
                // Even ids sit in partition 0, odd ones in partition 1.
                let (u, v) = (2 * (i % 7), 13 + 2 * ((i * 5) % 11));
                (u, v, [1, 2, 3][(i % 3) as usize])
            })
            .collect();
        for tables in [1u32, 2, 8] {
            for spill_threshold in [3usize, 1 << 16] {
                let (b, p) = setup(40, 2);
                let mut parts = Vec::new();
                for ns in 0..tables {
                    let mut t = TupleTable::with_namespace(&b, &p, spill_threshold, ns);
                    for &(u, v, m) in offers.iter().skip(ns as usize).step_by(tables as usize) {
                        if m & meta_bits::FWD != 0 {
                            t.offer(u, v).unwrap();
                        }
                        if m & meta_bits::BWD != 0 {
                            t.offer(v, u).unwrap();
                        }
                    }
                    parts.push(t.into_parts());
                }
                let (pi, _) = merge_parts(&b, &p, parts, 2).unwrap();
                assert_eq!(pi.num_pairs(), 1);
                let got = read_tuples(&b, StreamId::TupleBucket(0, 1)).unwrap();
                assert_eq!(
                    got,
                    fold(&offers),
                    "{tables} tables, spill={spill_threshold}"
                );
            }
        }
    }

    #[test]
    fn loser_tree_merges_any_source_count() {
        for k in 1usize..8 {
            // Source s holds rows (s, s + k, ...), interleaved keys.
            let sources: Vec<Vec<TupleRow>> = (0..k)
                .map(|s| {
                    (0..10u32)
                        .map(|i| (i * k as u32 + s as u32, u32::MAX, 1u8 << (s % 2)))
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
                (u + 1..u + 3).map(move |v| (u * 7, u * 7 + (v - u), ((u + v) % 3 + 1) as u8))
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
        let (pi, st) = t.finalize().unwrap();
        assert_eq!(st.offered, 4);
        assert_eq!(st.duplicates, 2);
        assert_eq!(st.unique, 2);
        assert_eq!(pi.bucket_weight(0, 1), 2);
        assert_eq!(read_bucket(&b, 0, 1), vec![(0, 1), (0, 3)]);
        assert_eq!(bucket_bits(&b, 0, 1), vec![meta_bits::FWD; 2]);
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
        t.offer(3, 2).unwrap(); // backward-only
        let (pi, st) = t.finalize().unwrap();
        assert_eq!(st.offered, 3);
        assert_eq!(st.unique, 2, "two canonical tuples");
        assert_eq!(st.duplicates, 1, "the reverse offer folds in");
        // (0, 1) carries both directions; (2, 3) only the backward one.
        assert_eq!(pi.bucket_weight(0, 1), 2);
        assert_eq!(read_bucket(&b, 0, 1), vec![(0, 1), (2, 3)]);
        assert_eq!(
            bucket_bits(&b, 0, 1),
            vec![meta_bits::FWD | meta_bits::BWD, meta_bits::BWD]
        );
        let directed = directed_set(&b, &pi);
        let expected: std::collections::HashSet<(u32, u32)> =
            [(0, 1), (1, 0), (3, 2)].into_iter().collect();
        assert_eq!(directed, expected);
    }

    #[test]
    fn self_tuples_ignored() {
        let (b, p) = setup(4, 2);
        let mut t = TupleTable::new(&b, &p, 1000);
        t.offer(2, 2).unwrap();
        let (pi, st) = t.finalize().unwrap();
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
        let (pi, st) = t.finalize().unwrap();
        assert!(st.spills > 0, "threshold should have forced spills");
        assert_eq!(st.unique as usize, expected.len());
        assert_eq!(st.duplicates as usize, expected.len());
        // Re-read all buckets and compare with the expected set.
        let directed = directed_set(&b, &pi);
        let expected: std::collections::HashSet<(u32, u32)> = expected.into_iter().collect();
        assert_eq!(directed, expected);
    }

    /// Direction bits survive spills (they ride in the run streams)
    /// and OR across duplicate offers.
    #[test]
    fn meta_bits_survive_spills_and_or_across_offers() {
        for spill_threshold in [1usize, 2, 100] {
            let (b, p) = setup(20, 2);
            let mut t = TupleTable::new(&b, &p, spill_threshold);
            t.offer(0, 1).unwrap(); // fwd
            t.offer(2, 3).unwrap();
            t.offer(2, 3).unwrap(); // a repeat adds nothing
            t.offer(5, 4).unwrap(); // bwd
            t.offer(4, 5).unwrap(); // fwd, same canonical tuple
            let (pi, _) = t.finalize().unwrap();
            assert_eq!(pi.bucket_weight(0, 1), 3);
            assert_eq!(read_bucket(&b, 0, 1), vec![(0, 1), (2, 3), (4, 5)]);
            assert_eq!(
                bucket_bits(&b, 0, 1),
                vec![
                    meta_bits::FWD,
                    meta_bits::FWD,
                    meta_bits::FWD | meta_bits::BWD
                ],
                "spill={spill_threshold}"
            );
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
        let (pi, _) = t.finalize().unwrap();
        assert_eq!(pi.bucket_weight(0, 1), 3);
        assert_eq!(pi.bucket_weight(1, 0), 0, "reverse bucket folded away");
        assert_eq!(pi.bucket_weight(2, 2), 1);
        assert_eq!(pi.num_pairs(), 1);
        assert_eq!(pi.self_pairs(), vec![2]);
    }

    /// Staging grows with the buckets a table touches, not with m²: at
    /// the largest accepted partition count (one user per partition),
    /// several live tables — the last run namespace included — stage,
    /// spill and merge a handful of tuples.
    #[test]
    fn staging_is_sparse_at_max_partitions() {
        let m = MAX_PARTITIONS;
        let (b, p) = setup(m, m);
        let top = (m - 1) as u32;
        let tables: Vec<TupleTable> = [0, 1, top]
            .into_iter()
            .map(|ns| TupleTable::with_namespace(&b, &p, 2, ns))
            .collect();
        let mut parts = Vec::new();
        for mut t in tables {
            for (s, d) in [(0, top), (top, 0), (top - 1, top), (7, 3), (7, 3)] {
                t.offer(s, d).unwrap();
            }
            parts.push(t.into_parts());
        }
        let (pi, st) = merge_parts(&b, &p, parts, 2).unwrap();
        assert_eq!((st.offered, st.unique), (15, 3));
        assert!(st.spills > 0, "threshold 2 must spill");
        assert_eq!(pi.total_tuples(), 3);
        assert_eq!(read_bucket(&b, 0, top), vec![(0, top)]);
        assert_eq!(
            bucket_bits(&b, 0, top),
            vec![meta_bits::FWD | meta_bits::BWD]
        );
        assert_eq!(read_bucket(&b, top - 1, top), vec![(top - 1, top)]);
        assert_eq!(read_bucket(&b, 3, 7), vec![(3, 7)]);
    }

    #[test]
    fn run_files_are_cleaned_up() {
        let (b, p) = setup(20, 2);
        let mut t = TupleTable::new(&b, &p, 2);
        for s in 0..10u32 {
            t.offer(s, (s + 1) % 20).unwrap();
        }
        let (_, st) = t.finalize().unwrap();
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
        let (pi, st) = t.finalize().unwrap();
        assert_eq!(pi.total_tuples(), 0);
        assert_eq!(st.offered, 0);
        assert!(b.list().unwrap().is_empty());
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
                    t.offer(1, 0).unwrap();
                }
                t.offer(ns * 4 + 4, 1).unwrap(); // unique per table
                parts.push(t.into_parts());
            }
            let (pi, st) = merge_parts(&b, &p, parts, threads).unwrap();
            assert_eq!(st.offered, 7);
            assert_eq!(st.unique, 4, "threads={threads}");
            assert_eq!(st.duplicates, 3, "threads={threads}");
            assert_eq!(pi.total_tuples(), 4);
            // Canonical tuples land in the bucket of their (min, max)
            // endpoints: (4, 1) and (8, 1) become backward tuples of
            // the (p1, p0) bucket.
            assert_eq!(read_bucket(&b, 0, 1), vec![(0, 1), (2, 3)]);
            assert_eq!(read_bucket(&b, 1, 0), vec![(1, 4), (1, 8)]);
            // The cross-table reverse offer merged its bit in.
            assert_eq!(
                bucket_bits(&b, 0, 1),
                vec![meta_bits::FWD | meta_bits::BWD, meta_bits::FWD],
                "threads={threads}"
            );
            assert_eq!(
                bucket_bits(&b, 1, 0),
                vec![meta_bits::BWD; 2],
                "threads={threads}"
            );
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
            let (pi, st) = t.finalize().unwrap();
            let directed = directed_set(&b, &pi);
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
    /// `BTreeMap` keyed by canonical pair, direction bits OR-combined —
    /// on everything it returns and persists, at every spill threshold.
    #[test]
    fn merge_matches_a_btreemap_fold_of_the_offers() {
        let offers: Vec<(u32, u32)> = (0..40u32)
            .flat_map(|s| [(s, (s + 1) % 40), ((s + 1) % 40, s), (s, (s + 13) % 40)])
            .collect();
        for spill_threshold in [1usize, 3, 1 << 16] {
            let (b, p) = setup(40, 3);
            let mut t = TupleTable::new(&b, &p, spill_threshold);
            for &(s, d) in &offers {
                t.offer(s, d).unwrap();
            }
            let (pi, stats) = t.finalize().unwrap();

            // bucket → canonical pair → OR of the offered bits.
            let mut fold: BTreeMap<(u32, u32), BTreeMap<(u32, u32), u8>> = BTreeMap::new();
            for &(s, d) in &offers {
                let (u, v) = (s.min(d), s.max(d));
                let bits = if s < d {
                    meta_bits::FWD
                } else {
                    meta_bits::BWD
                };
                let part = |x: u32| p.partition_of(knn_graph::UserId::new(x));
                *fold
                    .entry((part(u), part(v)))
                    .or_default()
                    .entry((u, v))
                    .or_insert(0) |= bits;
            }
            let mut want_pi = PiGraph::new(3);
            let mut want_streams = Vec::new();
            for (&(i, j), rows) in &fold {
                want_pi.add_bucket(i, j, rows.len() as u64);
                let decoded: Vec<TupleRow> =
                    rows.iter().map(|(&(u, v), &bits)| (u, v, bits)).collect();
                want_streams.push((StreamId::TupleBucket(i, j), decoded));
            }
            let unique: u64 = fold.values().map(|rows| rows.len() as u64).sum();

            assert_eq!(pi, want_pi, "spill={spill_threshold}");
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
