//! Properties of the cross-shard exchange streams: a tuple multiset
//! split between a scanning shard and an owning shard — staged blocks
//! and spill runs shipped as re-encoded `ExchangeRun` streams — merges
//! to exactly the bucket bytes, `PiGraph`, and meta nibbles a single
//! process produces from the same offers. Covers foreign-only buckets,
//! empty (fully deduplicated) foreign blocks, and runs large enough to
//! straddle several `read_chunk` windows on both the extract and the
//! merge side.

use std::sync::Arc;

use ooc_knn::core::tuple_table::{
    extract_foreign_payloads, merge_parts, merge_parts_with_exchange, meta_bits, BucketMeta,
    ExchangeSource, ForeignPayload, TupleTable,
};
use ooc_knn::core::{Partitioning, PiGraph};
use ooc_knn::store::backend::StreamId;
use ooc_knn::{MemBackend, StorageBackend};
use proptest::prelude::*;

/// Round-robin assignment of `n` users over `m` partitions.
fn partitioning(n: usize, m: usize) -> Partitioning {
    Partitioning::from_assignment((0..n as u32).map(|u| u % m as u32).collect(), m)
        .expect("assignment")
}

/// Offers every directed `(s, d, old_path)` tuple into a fresh table
/// on `backend` and returns its parts.
fn scan(
    backend: &dyn StorageBackend,
    partitioning: &Partitioning,
    spill_threshold: usize,
    tuples: &[(u32, u32, bool)],
) -> ooc_knn::core::tuple_table::TableParts {
    let mut table = TupleTable::new(backend, partitioning, spill_threshold);
    for &(s, d, old) in tuples {
        table.offer_flagged(s, d, old).expect("offer");
    }
    table.into_parts()
}

/// Every persisted tuple-bucket stream on `backend`, with its bytes.
fn bucket_streams(backend: &dyn StorageBackend) -> Vec<((u32, u32), Vec<u8>)> {
    let mut buckets: Vec<((u32, u32), Vec<u8>)> = backend
        .list()
        .expect("list")
        .into_iter()
        .filter_map(|s| match s {
            StreamId::TupleBucket(i, j) => Some(((i, j), backend.read(s).expect("read"))),
            _ => None,
        })
        .collect();
    buckets.sort_by_key(|&(k, _)| k);
    buckets
}

/// Ships `payloads` to `owner` as persisted `ExchangeRun` streams and
/// returns the merge's source descriptors — what the sharded phase-2
/// driver does after draining the fabric.
fn persist_exchange(
    owner: &dyn StorageBackend,
    payloads: &[ForeignPayload],
) -> Vec<ExchangeSource> {
    payloads
        .iter()
        .enumerate()
        .map(|(seq, p)| {
            let seq = seq as u32;
            owner
                .write(StreamId::ExchangeRun(p.bucket.0, p.bucket.1, seq), &p.bytes)
                .expect("persist exchange run");
            ExchangeSource {
                bucket: p.bucket,
                seq,
                from_spill: p.from_spill,
            }
        })
        .collect()
}

/// Runs the two-shard split (scanner + owner) against the single-table
/// reference and asserts byte/value identity of everything persisted
/// and returned. `is_local` decides which buckets stay on the scanner.
fn assert_split_matches_reference(
    n: usize,
    m: usize,
    spill_threshold: usize,
    tuples: &[(u32, u32, bool)],
    is_local: impl Fn((u32, u32)) -> bool + Copy,
) -> (PiGraph, BucketMeta, u64) {
    let partitioning = partitioning(n, m);

    // Reference: one process, one table, one backend.
    let reference: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let ref_parts = scan(reference.as_ref(), &partitioning, spill_threshold, tuples);
    let (ref_pi, ref_stats, ref_meta) =
        merge_parts(reference.as_ref(), &partitioning, vec![ref_parts], 1)
            .expect("reference merge");

    // Split: the scanner extracts foreign buckets, the owner persists
    // and merges them as exchange streams.
    let scanner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let owner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
    let mut parts = vec![scan(
        scanner.as_ref(),
        &partitioning,
        spill_threshold,
        tuples,
    )];
    let payloads = extract_foreign_payloads(scanner.as_ref(), &partitioning, &mut parts, is_local)
        .expect("extract");
    for p in &payloads {
        assert!(!is_local(p.bucket), "a local bucket left the scanner");
        assert!(p.rows > 0 && !p.bytes.is_empty(), "empty payload shipped");
    }
    let sources = persist_exchange(owner.as_ref(), &payloads);
    let (local_pi, local_stats, local_meta) =
        merge_parts_with_exchange(scanner.as_ref(), &partitioning, parts, 1, Vec::new())
            .expect("local merge");
    let (foreign_pi, foreign_stats, foreign_meta) =
        merge_parts_with_exchange(owner.as_ref(), &partitioning, Vec::new(), 1, sources)
            .expect("foreign merge");

    // Stitch the halves like the sharded driver does.
    let mut pi = PiGraph::new(m);
    for ((i, j), w) in local_pi.iter_buckets().chain(foreign_pi.iter_buckets()) {
        pi.add_bucket(i, j, w);
    }
    let mut meta = local_meta;
    meta.absorb(foreign_meta);
    let unique = local_stats.unique + foreign_stats.unique;

    assert_eq!(ref_pi, pi, "stitched PiGraph diverged");
    assert_eq!(ref_meta, meta, "stitched meta nibbles diverged");
    assert_eq!(ref_stats.unique, unique, "unique totals diverged");
    assert_eq!(
        ref_stats.offered, local_stats.offered,
        "offers are counted at scan time, on the scanner"
    );

    // Persisted bucket bytes: the union of the two shards equals the
    // reference set, and every bucket lives only with its owner.
    let ref_buckets = bucket_streams(reference.as_ref());
    let local_buckets = bucket_streams(scanner.as_ref());
    let foreign_buckets = bucket_streams(owner.as_ref());
    for (key, _) in &local_buckets {
        assert!(is_local(*key), "foreign bucket persisted on the scanner");
    }
    for (key, _) in &foreign_buckets {
        assert!(!is_local(*key), "local bucket persisted on the owner");
    }
    let mut union = local_buckets;
    union.extend(foreign_buckets);
    union.sort_by_key(|&(k, _)| k);
    assert_eq!(ref_buckets, union, "persisted bucket bytes diverged");

    // Exchange streams are consumed by the merge: none survive, on
    // either side.
    for backend in [&scanner, &owner] {
        assert!(
            !backend
                .list()
                .expect("list")
                .iter()
                .any(|s| matches!(s, StreamId::ExchangeRun(..) | StreamId::TupleRun(..))),
            "merge left run streams behind"
        );
    }
    (pi, meta, unique)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Random tuple multisets (duplicates, both directions, mixed
    /// old-path flags) split across a random bucket-ownership
    /// predicate round-trip through the exchange encoding with meta
    /// nibbles intact.
    #[test]
    fn foreign_runs_round_trip_losslessly(
        n in 16usize..80,
        m in 2usize..6,
        spill_threshold in 4usize..40,
        parity in 0u32..2,
        raw in proptest::collection::vec((0u32..80, 0u32..80, proptest::bool::ANY), 10..300),
    ) {
        let tuples: Vec<(u32, u32, bool)> = raw
            .into_iter()
            .map(|(s, d, old)| (s % n as u32, d % n as u32, old))
            .filter(|&(s, d, _)| s != d)
            .collect();
        prop_assume!(!tuples.is_empty());
        let (pi, meta, unique) = assert_split_matches_reference(
            n,
            m,
            spill_threshold,
            &tuples,
            |key| (key.0 + key.1) % 2 == parity,
        );
        // The multiset survived: every canonical pair is accounted in
        // the PI graph, and old-path nibbles never leak into the
        // persisted direction bits.
        prop_assert_eq!(
            pi.iter_buckets().map(|(_, w)| w).sum::<u64>(),
            unique
        );
        for ((i, j), w) in pi.iter_buckets() {
            let len = meta.bucket_len((i, j)).expect("merged bucket has meta");
            prop_assert_eq!(len as u64, w);
            for idx in 0..len {
                let bits = meta.bits((i, j), idx);
                prop_assert!(bits & meta_bits::DIRECTION_MASK != 0, "tuple without direction");
            }
        }
    }
}

/// Every bucket is foreign: the scanner keeps nothing, the owner
/// builds every bucket purely from exchange streams (the foreign-only
/// bucket path), and the result still matches the reference bytes.
#[test]
fn foreign_only_buckets_merge_cleanly() {
    let n = 48;
    let tuples: Vec<(u32, u32, bool)> = (0..600u32)
        .map(|i| ((i * 7) % n, (i * 13 + 1) % n, i % 3 == 0))
        .filter(|&(s, d, _)| s != d)
        .collect();
    assert_split_matches_reference(n as usize, 4, 8, &tuples, |_| false);
}

/// A spill run far larger than one `read_chunk` window (64 KiB): the
/// extract side drains it chunk by chunk, the owner re-merges it chunk
/// by chunk, and the persisted bucket still matches the single-process
/// bytes row for row.
#[test]
fn exchange_runs_straddle_read_chunk_windows() {
    let n = 100_000u32;
    let m = 2;
    // ~50k distinct canonical pairs inside one bucket: every pair
    // (2u, 2u+1) has both endpoints even/odd adjacent, all landing in
    // bucket (0, 1) under the round-robin assignment. A 40k spill
    // threshold forces one giant run plus a staged remainder.
    let tuples: Vec<(u32, u32, bool)> = (0..50_000u32)
        .map(|i| {
            let u = 2 * i;
            (u, u + 1, i % 2 == 0)
        })
        .collect();
    let (pi, _, unique) = assert_split_matches_reference(n as usize, m, 40_000, &tuples, |_| false);
    assert_eq!(unique, 50_000);
    assert_eq!(pi.iter_buckets().count(), 1);
}
