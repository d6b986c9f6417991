//! Typed, kind-tagged record files.
//!
//! Every on-disk artifact is one of three record shapes, each wrapped
//! in the standard [`crate::codec`] header and tagged with a
//! [`RecordKind`] so that reading a file as the wrong type fails loudly
//! instead of mis-parsing:
//!
//! * **pair files** — `(u32, u32)` rows: raw edges and `(s, d)` tuples;
//! * **scored-pair files** — `(u32, u32, f32)` rows: KNN edges;
//! * **user-list files** — `user → [(u32, f32)]` rows: profiles and
//!   top-K accumulator states.
//!
//! Files are partition-sized by construction, so reads slurp the whole
//! file (that *is* the engine's "load partition" operation) and writes
//! build the buffer in memory then write once. Every byte is counted in
//! the supplied [`IoStats`].

use bytes::{Buf, BufMut, BytesMut};
use std::path::Path;

use crate::codec::{need, need_rows, put_header, row_capacity, take_header};
use crate::crc32::crc32;
use crate::{IoStats, StoreError};

/// The record type tag stored in each file's header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
#[non_exhaustive]
pub enum RecordKind {
    /// Directed in-edges of a partition, sorted by bridge vertex.
    InEdges = 1,
    /// Directed out-edges of a partition, sorted by bridge vertex.
    OutEdges = 2,
    /// Fixed-width `(s, d)` pairs. The tuple-stream readers reject
    /// this kind; phase 2 writes [`RecordKind::TuplesV2`].
    Tuples = 3,
    /// Scored KNN edges `(s, d, sim)`.
    ScoredEdges = 4,
    /// User profiles `user → [(item, weight)]`.
    Profiles = 5,
    /// Top-K accumulators `user → [(candidate, sim)]`.
    Accumulators = 6,
    /// Engine metadata (small key-value integers).
    Meta = 7,
    /// Profile-update log entries.
    Updates = 8,
    /// User → partition assignment rows.
    Assignment = 9,
    /// Canonical similarity tuples with packed meta nibbles, in the
    /// varint-delta format of [`crate::tuple_stream`] (format v2), the
    /// only tuple stream kind its readers accept.
    TuplesV2 = 10,
    /// User → cluster-label rows (the locality pre-pass artifact).
    Clusters = 11,
    /// The generation commit record (see `crate::commit`).
    Commit = 12,
}

/// Appends the trailing CRC-32 frame to a codec payload, producing the
/// exact byte sequence stored at rest (on disk or in a memory backend).
pub fn frame(bytes: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(bytes.len() + 4);
    framed.extend_from_slice(bytes);
    framed.extend_from_slice(&crc32(bytes).to_le_bytes());
    framed
}

/// Verifies the trailing CRC-32 of a framed record, returning the
/// payload without the checksum. `path` only labels errors.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] on truncation or checksum mismatch.
pub fn verify_unframe(mut bytes: Vec<u8>, path: &Path) -> Result<Vec<u8>, StoreError> {
    if bytes.len() < 4 {
        return Err(StoreError::corrupt(
            path,
            "record shorter than its checksum",
        ));
    }
    let payload_len = bytes.len() - 4;
    let stored = u32::from_le_bytes(bytes[payload_len..].try_into().expect("4 bytes"));
    let actual = crc32(&bytes[..payload_len]);
    if stored != actual {
        return Err(StoreError::corrupt(
            path,
            format!("checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"),
        ));
    }
    bytes.truncate(payload_len);
    Ok(bytes)
}

/// Reads a record file and verifies its trailing CRC-32, returning the
/// payload without the checksum. Shared with `DiskBackend` so the
/// path-based API and the backend meter and fail identically.
pub(crate) fn read_file(path: &Path, stats: &IoStats) -> Result<Vec<u8>, StoreError> {
    let bytes = std::fs::read(path).map_err(|e| StoreError::io(path, e))?;
    stats.record_read(bytes.len() as u64);
    verify_unframe(bytes, path)
}

/// Writes a record file with a trailing CRC-32 of the payload. Shared
/// with `DiskBackend` (see [`read_file`]).
pub(crate) fn write_file(path: &Path, bytes: &[u8], stats: &IoStats) -> Result<(), StoreError> {
    let framed = frame(bytes);
    std::fs::write(path, &framed).map_err(|e| StoreError::io(path, e))?;
    stats.record_write(framed.len() as u64);
    Ok(())
}

/// Encodes a pair record (`(u32, u32)` rows) into its unframed codec
/// payload (header + rows, no CRC).
pub fn encode_pairs(kind: RecordKind, rows: &[(u32, u32)]) -> BytesMut {
    let mut buf = BytesMut::with_capacity(16 + rows.len() * 8);
    put_header(&mut buf, kind as u16, rows.len() as u64);
    for &(a, b) in rows {
        buf.put_u32_le(a);
        buf.put_u32_le(b);
    }
    buf
}

/// Decodes a pair record payload written by [`encode_pairs`]. `path`
/// only labels errors.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] / [`StoreError::VersionMismatch`] on
/// malformed content.
pub fn decode_pairs(
    bytes: &[u8],
    kind: RecordKind,
    path: &Path,
) -> Result<Vec<(u32, u32)>, StoreError> {
    let mut buf = bytes;
    let count = take_header(&mut buf, kind as u16, path)?;
    let mut rows = Vec::with_capacity(need_rows(&buf, count, 8, "pair rows", path)?);
    for _ in 0..count {
        rows.push((buf.get_u32_le(), buf.get_u32_le()));
    }
    Ok(rows)
}

/// Writes a pair file (`(u32, u32)` rows).
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failure.
pub fn write_pairs(
    path: &Path,
    kind: RecordKind,
    rows: &[(u32, u32)],
    stats: &IoStats,
) -> Result<(), StoreError> {
    write_file(path, &encode_pairs(kind, rows), stats)
}

/// Reads a pair file written by [`write_pairs`].
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] / [`StoreError::VersionMismatch`] on
/// malformed content and [`StoreError::Io`] on filesystem failure.
pub fn read_pairs(
    path: &Path,
    kind: RecordKind,
    stats: &IoStats,
) -> Result<Vec<(u32, u32)>, StoreError> {
    let bytes = read_file(path, stats)?;
    decode_pairs(&bytes, kind, path)
}

/// Encodes a scored-pair record (`(u32, u32, f32)` rows) into its
/// unframed codec payload.
pub fn encode_scored_pairs(rows: &[(u32, u32, f32)]) -> BytesMut {
    let mut buf = BytesMut::with_capacity(16 + rows.len() * 12);
    put_header(&mut buf, RecordKind::ScoredEdges as u16, rows.len() as u64);
    for &(a, b, s) in rows {
        buf.put_u32_le(a);
        buf.put_u32_le(b);
        buf.put_f32_le(s);
    }
    buf
}

/// Decodes a scored-pair record payload written by
/// [`encode_scored_pairs`]. `path` only labels errors.
///
/// # Errors
///
/// Same as [`decode_pairs`].
pub fn decode_scored_pairs(bytes: &[u8], path: &Path) -> Result<Vec<(u32, u32, f32)>, StoreError> {
    let mut buf = bytes;
    let count = take_header(&mut buf, RecordKind::ScoredEdges as u16, path)?;
    let mut rows = Vec::with_capacity(need_rows(&buf, count, 12, "scored rows", path)?);
    for _ in 0..count {
        rows.push((buf.get_u32_le(), buf.get_u32_le(), buf.get_f32_le()));
    }
    Ok(rows)
}

/// Writes a scored-pair file (`(u32, u32, f32)` rows).
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failure.
pub fn write_scored_pairs(
    path: &Path,
    rows: &[(u32, u32, f32)],
    stats: &IoStats,
) -> Result<(), StoreError> {
    write_file(path, &encode_scored_pairs(rows), stats)
}

/// Reads a scored-pair file written by [`write_scored_pairs`].
///
/// # Errors
///
/// Same as [`read_pairs`].
pub fn read_scored_pairs(path: &Path, stats: &IoStats) -> Result<Vec<(u32, u32, f32)>, StoreError> {
    let bytes = read_file(path, stats)?;
    decode_scored_pairs(&bytes, path)
}

/// One row of a user-list file: a user id and its `(key, value)`
/// entries — `(item, weight)` for profiles, `(candidate, sim)` for
/// accumulators.
pub type UserListRow = (u32, Vec<(u32, f32)>);

/// Writes a user-list file (`user → [(u32, f32)]` rows): profiles
/// (`RecordKind::Profiles`) or accumulators (`RecordKind::Accumulators`).
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failure.
pub fn write_user_lists(
    path: &Path,
    kind: RecordKind,
    rows: &[UserListRow],
    stats: &IoStats,
) -> Result<(), StoreError> {
    write_file(path, &encode_user_lists(kind, rows), stats)
}

/// Encodes a user-list record into its unframed codec payload.
pub fn encode_user_lists(kind: RecordKind, rows: &[UserListRow]) -> BytesMut {
    let payload: usize = rows.iter().map(|(_, l)| 8 + l.len() * 8).sum();
    let mut buf = BytesMut::with_capacity(16 + payload);
    put_header(&mut buf, kind as u16, rows.len() as u64);
    for (user, list) in rows {
        buf.put_u32_le(*user);
        buf.put_u32_le(list.len() as u32);
        for &(k, v) in list {
            buf.put_u32_le(k);
            buf.put_f32_le(v);
        }
    }
    buf
}

/// Decodes a user-list record payload written by [`encode_user_lists`].
/// `path` only labels errors.
///
/// # Errors
///
/// Same as [`decode_pairs`].
pub fn decode_user_lists(
    bytes: &[u8],
    kind: RecordKind,
    path: &Path,
) -> Result<Vec<UserListRow>, StoreError> {
    let mut buf = bytes;
    let count = take_header(&mut buf, kind as u16, path)?;
    // Each row is at least its 8-byte (user, len) header.
    let mut rows = Vec::with_capacity(row_capacity(count, buf.remaining(), 8));
    for _ in 0..count {
        need(&buf, 8, "user-list row header", path)?;
        let user = buf.get_u32_le();
        let len = u64::from(buf.get_u32_le());
        let len = need_rows(&buf, len, 8, "user-list entries", path)?;
        let mut list = Vec::with_capacity(len);
        for _ in 0..len {
            list.push((buf.get_u32_le(), buf.get_f32_le()));
        }
        rows.push((user, list));
    }
    Ok(rows)
}

/// Reads a user-list file written by [`write_user_lists`].
///
/// # Errors
///
/// Same as [`read_pairs`].
pub fn read_user_lists(
    path: &Path,
    kind: RecordKind,
    stats: &IoStats,
) -> Result<Vec<UserListRow>, StoreError> {
    let bytes = read_file(path, stats)?;
    decode_user_lists(&bytes, kind, path)
}

/// Writes a small metadata map of `(key, value)` integers.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failure.
pub fn write_meta(path: &Path, entries: &[(u32, u64)], stats: &IoStats) -> Result<(), StoreError> {
    write_file(path, &encode_meta(entries), stats)
}

/// Encodes a metadata map into its unframed codec payload.
pub fn encode_meta(entries: &[(u32, u64)]) -> BytesMut {
    let mut buf = BytesMut::with_capacity(16 + entries.len() * 12);
    put_header(&mut buf, RecordKind::Meta as u16, entries.len() as u64);
    for &(k, v) in entries {
        buf.put_u32_le(k);
        buf.put_u64_le(v);
    }
    buf
}

/// Decodes a metadata map payload written by [`encode_meta`]. `path`
/// only labels errors.
///
/// # Errors
///
/// Same as [`decode_pairs`].
pub fn decode_meta(bytes: &[u8], path: &Path) -> Result<Vec<(u32, u64)>, StoreError> {
    let mut buf = bytes;
    let count = take_header(&mut buf, RecordKind::Meta as u16, path)?;
    let mut rows = Vec::with_capacity(need_rows(&buf, count, 12, "meta rows", path)?);
    for _ in 0..count {
        rows.push((buf.get_u32_le(), buf.get_u64_le()));
    }
    Ok(rows)
}

/// Reads a metadata map written by [`write_meta`].
///
/// # Errors
///
/// Same as [`read_pairs`].
pub fn read_meta(path: &Path, stats: &IoStats) -> Result<Vec<(u32, u64)>, StoreError> {
    let bytes = read_file(path, stats)?;
    decode_meta(&bytes, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkingDir;

    fn setup() -> (WorkingDir, IoStats) {
        (WorkingDir::temp("record_file").unwrap(), IoStats::new())
    }

    #[test]
    fn pairs_round_trip_and_count_io() {
        let (wd, stats) = setup();
        let path = wd.tuples_path(0, 1);
        let rows = vec![(1, 2), (3, 4), (5, 6)];
        write_pairs(&path, RecordKind::Tuples, &rows, &stats).unwrap();
        let back = read_pairs(&path, RecordKind::Tuples, &stats).unwrap();
        assert_eq!(back, rows);
        let snap = stats.snapshot();
        // header (16) + 3 pair rows (24) + trailing CRC-32 (4).
        assert_eq!(snap.bytes_written, 16 + 24 + 4);
        assert_eq!(snap.bytes_read, snap.bytes_written);
        wd.destroy().unwrap();
    }

    #[test]
    fn reading_with_wrong_kind_fails() {
        let (wd, stats) = setup();
        let path = wd.in_edges_path(0);
        write_pairs(&path, RecordKind::InEdges, &[(0, 1)], &stats).unwrap();
        let err = read_pairs(&path, RecordKind::OutEdges, &stats).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        wd.destroy().unwrap();
    }

    #[test]
    fn scored_pairs_round_trip() {
        let (wd, stats) = setup();
        let path = wd.out_edges_path(3);
        let rows = vec![(0, 1, 0.5f32), (2, 7, -0.25)];
        write_scored_pairs(&path, &rows, &stats).unwrap();
        assert_eq!(read_scored_pairs(&path, &stats).unwrap(), rows);
        wd.destroy().unwrap();
    }

    #[test]
    fn user_lists_round_trip() {
        let (wd, stats) = setup();
        let path = wd.profiles_path(0);
        let rows = vec![
            (7u32, vec![(1u32, 0.5f32), (9, 2.0)]),
            (8, vec![]),
            (12, vec![(0, -1.0)]),
        ];
        write_user_lists(&path, RecordKind::Profiles, &rows, &stats).unwrap();
        assert_eq!(
            read_user_lists(&path, RecordKind::Profiles, &stats).unwrap(),
            rows
        );
        wd.destroy().unwrap();
    }

    #[test]
    fn truncated_user_list_is_corrupt_not_panic() {
        let (wd, stats) = setup();
        let path = wd.accum_path(0);
        let rows = vec![(1u32, vec![(2u32, 1.0f32); 10])];
        write_user_lists(&path, RecordKind::Accumulators, &rows, &stats).unwrap();
        // Chop off the tail.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 6]).unwrap();
        let err = read_user_lists(&path, RecordKind::Accumulators, &stats).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        wd.destroy().unwrap();
    }

    #[test]
    fn truncated_pair_file_is_corrupt() {
        let (wd, stats) = setup();
        let path = wd.tuples_path(1, 1);
        write_pairs(&path, RecordKind::Tuples, &[(1, 2), (3, 4)], &stats).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            read_pairs(&path, RecordKind::Tuples, &stats),
            Err(StoreError::Corrupt { .. })
        ));
        wd.destroy().unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let (wd, stats) = setup();
        let err = read_pairs(&wd.tuples_path(9, 9), RecordKind::Tuples, &stats).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        wd.destroy().unwrap();
    }

    #[test]
    fn meta_round_trips() {
        let (wd, stats) = setup();
        let path = wd.meta_path();
        let entries = vec![(1u32, 100u64), (2, 8), (3, u64::MAX)];
        write_meta(&path, &entries, &stats).unwrap();
        assert_eq!(read_meta(&path, &stats).unwrap(), entries);
        wd.destroy().unwrap();
    }

    #[test]
    fn bit_flip_inside_payload_is_detected_by_crc() {
        let (wd, stats) = setup();
        let path = wd.tuples_path(2, 2);
        write_pairs(&path, RecordKind::Tuples, &[(7, 8), (9, 10)], &stats).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0x01; // flip one payload bit
        std::fs::write(&path, &bytes).unwrap();
        let err = read_pairs(&path, RecordKind::Tuples, &stats).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt { detail, .. } if detail.contains("checksum")),
            "{err}"
        );
        wd.destroy().unwrap();
    }

    /// A bare header declaring `count` rows, with no row bytes behind it.
    fn bare_header(kind: RecordKind, count: u64) -> Vec<u8> {
        let mut buf = BytesMut::new();
        put_header(&mut buf, kind as u16, count);
        buf.to_vec()
    }

    fn assert_corrupt<T: std::fmt::Debug>(result: Result<T, StoreError>) {
        assert!(
            matches!(result, Err(StoreError::Corrupt { .. })),
            "{result:?}"
        );
    }

    #[test]
    fn hostile_pair_header_is_corrupt_not_panic() {
        let path = Path::new("/hostile/pairs");
        for count in [1u64 << 61, u64::MAX] {
            let bytes = bare_header(RecordKind::Tuples, count);
            assert_corrupt(decode_pairs(&bytes, RecordKind::Tuples, path));
        }
    }

    #[test]
    fn hostile_scored_pair_header_is_corrupt_not_panic() {
        let path = Path::new("/hostile/scored");
        for count in [1u64 << 61, u64::MAX] {
            let bytes = bare_header(RecordKind::ScoredEdges, count);
            assert_corrupt(decode_scored_pairs(&bytes, path));
        }
    }

    #[test]
    fn hostile_meta_header_is_corrupt_not_panic() {
        let path = Path::new("/hostile/meta");
        for count in [1u64 << 61, u64::MAX] {
            assert_corrupt(decode_meta(&bare_header(RecordKind::Meta, count), path));
        }
    }

    #[test]
    fn hostile_user_list_header_is_corrupt_not_panic() {
        let path = Path::new("/hostile/lists");
        for count in [1u64 << 61, u64::MAX] {
            let bytes = bare_header(RecordKind::Profiles, count);
            assert_corrupt(decode_user_lists(&bytes, RecordKind::Profiles, path));
        }
    }

    #[test]
    fn empty_files_round_trip() {
        let (wd, stats) = setup();
        let path = wd.tuples_path(0, 0);
        write_pairs(&path, RecordKind::Tuples, &[], &stats).unwrap();
        assert!(read_pairs(&path, RecordKind::Tuples, &stats)
            .unwrap()
            .is_empty());
        wd.destroy().unwrap();
    }
}
