//! Property-based tests for the storage substrate: arbitrary data
//! round-trips exactly, and arbitrary corruption yields typed errors —
//! never panics, never silently wrong data.

use knn_store::record_file::{
    read_meta, read_pairs, read_scored_pairs, read_user_lists, write_meta, write_pairs,
    write_scored_pairs, write_user_lists,
};
use knn_store::{IoStats, RecordKind, StoreError, WorkingDir};
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    (-1.0e6f32..1.0e6).prop_filter("finite", |v| v.is_finite())
}

proptest! {
    #[test]
    fn pair_files_round_trip(rows in proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX), 0..200)) {
        let wd = WorkingDir::temp("store_prop_pairs").unwrap();
        let stats = IoStats::new();
        let path = wd.tuples_path(0, 0);
        write_pairs(&path, RecordKind::Tuples, &rows, &stats).unwrap();
        prop_assert_eq!(read_pairs(&path, RecordKind::Tuples, &stats).unwrap(), rows);
        wd.destroy().unwrap();
    }

    #[test]
    fn scored_pair_files_round_trip(
        rows in proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX, -1.0e6f32..1.0e6), 0..200),
    ) {
        let wd = WorkingDir::temp("store_prop_scored").unwrap();
        let stats = IoStats::new();
        let path = wd.knn_path(0);
        write_scored_pairs(&path, &rows, &stats).unwrap();
        let back = read_scored_pairs(&path, &stats).unwrap();
        prop_assert_eq!(back.len(), rows.len());
        for (a, b) in back.iter().zip(rows.iter()) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1, b.1);
            prop_assert_eq!(a.2.to_bits(), b.2.to_bits(), "f32 must round-trip bit-exactly");
        }
        wd.destroy().unwrap();
    }

    #[test]
    fn user_list_files_round_trip(
        rows in proptest::collection::vec(
            (0u32..100_000, proptest::collection::vec((0u32..100_000, finite_f32()), 0..20)),
            0..40,
        ),
    ) {
        let wd = WorkingDir::temp("store_prop_lists").unwrap();
        let stats = IoStats::new();
        let path = wd.profiles_path(3);
        write_user_lists(&path, RecordKind::Profiles, &rows, &stats).unwrap();
        prop_assert_eq!(read_user_lists(&path, RecordKind::Profiles, &stats).unwrap(), rows);
        wd.destroy().unwrap();
    }

    #[test]
    fn meta_files_round_trip(entries in proptest::collection::vec((0u32..u32::MAX, 0u64..u64::MAX), 0..50)) {
        let wd = WorkingDir::temp("store_prop_meta").unwrap();
        let stats = IoStats::new();
        let path = wd.meta_path();
        write_meta(&path, &entries, &stats).unwrap();
        prop_assert_eq!(read_meta(&path, &stats).unwrap(), entries);
        wd.destroy().unwrap();
    }

    #[test]
    fn truncation_at_any_point_is_a_typed_error(
        rows in proptest::collection::vec((0u32..1000, 0u32..1000), 1..50),
        cut_fraction in 0.0f64..1.0,
    ) {
        let wd = WorkingDir::temp("store_prop_trunc").unwrap();
        let stats = IoStats::new();
        let path = wd.tuples_path(1, 2);
        write_pairs(&path, RecordKind::Tuples, &rows, &stats).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let keep = ((bytes.len() as f64) * cut_fraction) as usize;
        prop_assume!(keep < bytes.len());
        std::fs::write(&path, &bytes[..keep]).unwrap();
        match read_pairs(&path, RecordKind::Tuples, &stats) {
            Err(StoreError::Corrupt { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
            Ok(_) => prop_assert!(false, "truncated file parsed successfully"),
        }
        wd.destroy().unwrap();
    }

    #[test]
    fn any_single_bit_flip_is_detected(
        rows in proptest::collection::vec((0u32..1000, 0u32..1000), 1..50),
        byte_seed in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let wd = WorkingDir::temp("store_prop_flip").unwrap();
        let stats = IoStats::new();
        let path = wd.tuples_path(4, 4);
        write_pairs(&path, RecordKind::Tuples, &rows, &stats).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = byte_seed % bytes.len();
        bytes[idx] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        // Either the CRC catches it or (if the flip hits the header)
        // the header validation does — silent acceptance is the bug.
        match read_pairs(&path, RecordKind::Tuples, &stats) {
            Err(_) => {}
            Ok(back) => prop_assert!(
                false,
                "bit flip at byte {idx} bit {bit} went undetected ({} rows read)",
                back.len()
            ),
        }
        wd.destroy().unwrap();
    }
}

/// Canonicalizes arbitrary generated rows into what the tuple table
/// feeds the codec: strictly ascending canonical pairs (`u < v`) with
/// meta nibbles OR-combined across duplicates.
fn canonical_rows(raw: Vec<(u32, u32, u8)>) -> Vec<(u32, u32, u8)> {
    let mut map = std::collections::BTreeMap::new();
    for (a, b, meta) in raw {
        if a == b {
            continue;
        }
        *map.entry((a.min(b), a.max(b))).or_insert(0u8) |= meta & 0x0F;
    }
    map.into_iter().map(|((u, v), m)| (u, v, m)).collect()
}

proptest! {
    /// The varint-delta tuple codec round-trips every sorted canonical
    /// row set — empty and single-row runs included, ids across the
    /// full u32 range (0 and u32::MAX reachable), every meta nibble.
    #[test]
    fn tuple_streams_round_trip(
        mut raw in proptest::collection::vec(
            (0u32..u32::MAX, 0u32..u32::MAX, 0u8..16),
            0..120,
        ),
        extremes in proptest::bool::ANY,
    ) {
        use knn_store::tuple_stream::{decode_tuples, encode_tuples};
        if extremes {
            // Pin the id-space corners (0 and u32::MAX) and the full
            // meta nibble into the generated set.
            raw.push((0, u32::MAX, 15));
            raw.push((u32::MAX - 1, u32::MAX, 15));
            raw.push((0, 1, 0));
        }
        let rows = canonical_rows(raw);
        let encoded = encode_tuples(&rows);
        let path = std::path::PathBuf::from("/prop/tuples");
        prop_assert_eq!(decode_tuples(encoded.to_vec(), &path).unwrap(), rows);
    }

    /// Incremental reads see exactly the same rows as the whole-buffer
    /// decode, from any split point.
    #[test]
    fn tuple_stream_reader_is_cursor_equivalent(
        raw in proptest::collection::vec((0u32..5000, 0u32..5000, 0u8..16), 0..80),
    ) {
        use knn_store::tuple_stream::encode_tuples;
        use knn_store::TupleStreamReader;
        let rows = canonical_rows(raw);
        let encoded = encode_tuples(&rows).to_vec();
        let path = std::path::PathBuf::from("/prop/reader");
        let mut reader = TupleStreamReader::new(encoded, &path).unwrap();
        prop_assert_eq!(reader.remaining(), rows.len() as u64);
        let mut streamed = Vec::new();
        while let Some(row) = reader.next().unwrap() {
            streamed.push(row);
        }
        prop_assert_eq!(streamed, rows);
    }

    /// Both backends round-trip tuple streams through the typed
    /// helpers, and spill-run writes feed the spill meter identically.
    #[test]
    fn tuple_streams_round_trip_through_backends(
        raw in proptest::collection::vec((0u32..10_000, 0u32..10_000, 0u8..16), 0..60),
    ) {
        use knn_store::backend::{read_tuples, write_tuples};
        use knn_store::{DiskBackend, MemBackend, StorageBackend, StreamId};
        let rows = canonical_rows(raw);
        let disk = DiskBackend::temp("store_prop_tuple_backend").unwrap();
        let wd = disk.working_dir().unwrap().clone();
        let mem = MemBackend::new();
        for b in [&disk as &dyn StorageBackend, &mem] {
            write_tuples(b, StreamId::TupleBucket(0, 1), &rows).unwrap();
            write_tuples(b, StreamId::TupleRun(0, 1, 7), &rows).unwrap();
            prop_assert_eq!(read_tuples(b, StreamId::TupleBucket(0, 1)).unwrap(), rows.clone());
            prop_assert_eq!(read_tuples(b, StreamId::TupleRun(0, 1, 7)).unwrap(), rows.clone());
            let snap = b.stats().snapshot();
            prop_assert_eq!(snap.spill_runs, 1, "only the TupleRun write is a spill");
            prop_assert!(snap.spill_bytes > 0);
            prop_assert!(snap.spill_bytes < snap.bytes_written);
        }
        prop_assert_eq!(disk.stats().snapshot(), mem.stats().snapshot());
        wd.destroy().unwrap();
    }

    /// A fixed-width pair stream is not a tuple stream: whatever pairs
    /// it holds, reading it back as tuples is a typed corruption error.
    #[test]
    fn legacy_pair_streams_are_rejected(
        raw in proptest::collection::vec((0u32..50_000, 0u32..50_000, 0u8..1), 0..80),
    ) {
        use knn_store::backend::{read_tuples, write_pairs as backend_write_pairs};
        use knn_store::{MemBackend, StreamId};
        let rows = canonical_rows(raw);
        let pairs: Vec<(u32, u32)> = rows.iter().map(|&(u, v, _)| (u, v)).collect();
        let b = MemBackend::new();
        backend_write_pairs(&b, StreamId::TupleRun(2, 3, 0), &pairs).unwrap();
        let decoded = read_tuples(&b, StreamId::TupleRun(2, 3, 0));
        prop_assert!(matches!(decoded, Err(StoreError::Corrupt { .. })), "{:?}", decoded);
    }
}
