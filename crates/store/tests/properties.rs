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
