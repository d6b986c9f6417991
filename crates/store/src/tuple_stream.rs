//! The varint-delta tuple stream codec (format v2).
//!
//! Phase 2 moves more bytes than any other phase: every spill run and
//! every final bucket is a sorted list of canonical tuples `(u, v)`
//! with `u < v`, each carrying a 4-bit metadata nibble. The engine uses
//! its low two bits for the tuple's directions; bits 2–3 are reserved
//! and written as zero. A fixed-width pair encoding costs 8 bytes per
//! tuple and cannot carry the nibble at all; this codec exploits the
//! sortedness instead:
//!
//! * tuples are **delta-encoded** over the canonical order — the
//!   first varint of a row packs `(u - prev_u) << 4 | meta`, the
//!   second holds `v - prev_v - 1` within a `u`-group (strictly
//!   ascending) or `v - u - 1` when the group changes (`v > u`
//!   always, by canonicality);
//! * the meta nibble is **bit-packed** into the low bits of the head
//!   varint, so the direction bits travel with the tuple instead of in
//!   a resident side table.
//!
//! Dense buckets encode in ~2 bytes per tuple versus a fixed-width 8 —
//! spilled traffic shrinks by well over half, which is exactly the
//! lever the paper's PC-class I/O budget needs.
//!
//! # Stream versioning
//!
//! Every tuple stream starts with the standard [`crate::codec`] header
//! of kind [`RecordKind::TuplesV2`], followed by one **format byte**
//! ([`TUPLE_STREAM_FORMAT`], `2`) reserved for future in-kind
//! evolution, then the varint rows. Any other record kind — the
//! fixed-width [`RecordKind::Tuples`] pair encoding included — reads
//! as [`StoreError::Corrupt`]. Tuple streams are per-iteration scratch
//! (cleared before every phase 2, never read by `resume`), so no
//! older encoding needs to stay readable.

use std::path::Path;

use bytes::{BufMut, BytesMut};

use crate::codec::{put_header, row_capacity, HEADER_LEN, MAGIC, VERSION};
use crate::record_file::RecordKind;
use crate::StoreError;

/// One row of a tuple stream: the canonical pair (`u < v`) plus its
/// meta nibble (the engine's `meta_bits` direction bits).
pub type TupleRow = (u32, u32, u8);

/// The in-kind format byte of [`RecordKind::TuplesV2`] streams.
pub const TUPLE_STREAM_FORMAT: u8 = 2;

/// Largest meta value the packed head varint can carry (one nibble).
pub const TUPLE_META_MAX: u8 = 0x0F;

fn put_varint(buf: &mut BytesMut, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Decodes one varint at `pos`, advancing it. `Ok(None)` means the
/// buffer ended mid-varint (the caller may have more bytes to feed);
/// `pos` is left where it was.
fn try_varint(bytes: &[u8], pos: &mut usize, path: &Path) -> Result<Option<u64>, StoreError> {
    let start = *pos;
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            *pos = start;
            return Ok(None);
        };
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(StoreError::corrupt(path, "varint overflows u64"));
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(Some(value));
        }
        shift += 7;
    }
}

/// Incremental encoder for a sorted tuple stream. Rows must arrive in
/// strictly ascending `(u, v)` order with `u < v` and `meta <=`
/// [`TUPLE_META_MAX`] — exactly what the tuple table's sorted,
/// deduplicated buckets provide. The encoder appends each row to its
/// output buffer as it arrives, so a k-way merge can stream straight
/// into it without materializing the merged row vector.
#[derive(Debug)]
pub struct TupleStreamWriter {
    rows: BytesMut,
    count: u64,
    prev: Option<(u32, u32)>,
}

impl Default for TupleStreamWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl TupleStreamWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        TupleStreamWriter {
            rows: BytesMut::new(),
            count: 0,
            prev: None,
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the row is out of order, not canonical
    /// (`u >= v`), or carries meta bits outside the nibble — all
    /// internal-contract violations of the tuple table.
    pub fn push(&mut self, u: u32, v: u32, meta: u8) {
        debug_assert!(u < v, "tuple ({u}, {v}) is not canonical");
        debug_assert!(meta <= TUPLE_META_MAX, "meta {meta:#x} exceeds the nibble");
        let (du, dv) = match self.prev {
            Some((pu, pv)) => {
                debug_assert!(
                    (pu, pv) < (u, v),
                    "tuple ({u}, {v}) out of order after ({pu}, {pv})"
                );
                if pu == u {
                    (0u64, u64::from(v - pv - 1))
                } else {
                    (u64::from(u - pu), u64::from(v - u - 1))
                }
            }
            None => (u64::from(u), u64::from(v - u - 1)),
        };
        put_varint(&mut self.rows, (du << 4) | u64::from(meta & TUPLE_META_MAX));
        put_varint(&mut self.rows, dv);
        self.prev = Some((u, v));
        self.count += 1;
    }

    /// Rows pushed so far.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether no row has been pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Finishes the stream, producing the full unframed codec payload
    /// (header + format byte + rows).
    pub fn finish(self) -> BytesMut {
        let mut buf = BytesMut::with_capacity(HEADER_LEN + 1 + self.rows.len());
        put_header(&mut buf, RecordKind::TuplesV2 as u16, self.count);
        buf.put_u8(TUPLE_STREAM_FORMAT);
        buf.put_slice(&self.rows);
        buf
    }
}

/// Encodes a sorted tuple slice into its unframed codec payload
/// (convenience over [`TupleStreamWriter`]; same bytes).
pub fn encode_tuples(rows: &[TupleRow]) -> BytesMut {
    let mut w = TupleStreamWriter::new();
    for &(u, v, meta) in rows {
        w.push(u, v, meta);
    }
    w.finish()
}

/// Parses the header of a tuple stream payload and returns the
/// declared row count and the offset of the first row byte.
fn take_tuple_header(bytes: &[u8], path: &Path) -> Result<(u64, usize), StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::corrupt(
            path,
            format!(
                "file shorter than header ({} < {HEADER_LEN} bytes)",
                bytes.len()
            ),
        ));
    }
    if bytes[0..4] != MAGIC {
        return Err(StoreError::corrupt(
            path,
            format!("bad magic {:?}", &bytes[0..4]),
        ));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(StoreError::VersionMismatch {
            path: path.to_path_buf(),
            found: version,
            expected: VERSION,
        });
    }
    let kind = u16::from_le_bytes([bytes[6], bytes[7]]);
    let count = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    if kind != RecordKind::TuplesV2 as u16 {
        return Err(StoreError::corrupt(
            path,
            format!(
                "record kind {kind} found, expected a tuple stream ({})",
                RecordKind::TuplesV2 as u16
            ),
        ));
    }
    let Some(&format_byte) = bytes.get(HEADER_LEN) else {
        return Err(StoreError::corrupt(
            path,
            "tuple stream missing format byte",
        ));
    };
    if format_byte != TUPLE_STREAM_FORMAT {
        return Err(StoreError::corrupt(
            path,
            format!(
                "unsupported tuple stream format {format_byte}, expected {TUPLE_STREAM_FORMAT}"
            ),
        ));
    }
    Ok((count, HEADER_LEN + 1))
}

/// Outcome of one [`TupleDecoder::try_next`] step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeStep {
    /// One row decoded; the cursor advanced past it.
    Row(TupleRow),
    /// The buffer ends mid-row; the cursor did not move. Feed more
    /// bytes (or report truncation if the source is exhausted).
    NeedMore,
    /// Every declared row has been decoded.
    Done,
}

/// The chunk-fed tuple decode state machine: O(1) state (row count,
/// previous key), pulled over any byte window the caller manages. This
/// is what lets a k-way merge stream a spill run through a **bounded**
/// refill buffer — the decoder never requires the whole payload at
/// once, and a row straddling a chunk boundary simply reports
/// [`DecodeStep::NeedMore`] without consuming bytes.
#[derive(Debug, Clone)]
pub struct TupleDecoder {
    remaining: u64,
    prev: Option<(u32, u32)>,
}

impl TupleDecoder {
    /// Parses the stream header from the first bytes of a tuple
    /// stream, returning the decoder and the number of header bytes
    /// consumed. The slice must cover the whole header
    /// ([`HEADER_LEN`]` + 1` bytes) — any sane refill chunk does.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for a malformed header, a record kind
    /// other than [`RecordKind::TuplesV2`] or an unknown format byte,
    /// [`StoreError::VersionMismatch`] for a foreign codec version.
    pub fn from_stream_start(bytes: &[u8], path: &Path) -> Result<(Self, usize), StoreError> {
        let (remaining, pos) = take_tuple_header(bytes, path)?;
        Ok((
            TupleDecoder {
                remaining,
                prev: None,
            },
            pos,
        ))
    }

    /// Rows not yet decoded.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Attempts to decode one row from `buf[*pos..]`, advancing `pos`
    /// past it on success. The buffer may end anywhere; trailing bytes
    /// after the last row (e.g. a frame checksum the caller chunked
    /// over) are simply never consumed.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] on varint overflow or an id
    /// overflowing `u32`.
    pub fn try_next(
        &mut self,
        buf: &[u8],
        pos: &mut usize,
        path: &Path,
    ) -> Result<DecodeStep, StoreError> {
        if self.remaining == 0 {
            return Ok(DecodeStep::Done);
        }
        let start = *pos;
        let Some(head) = try_varint(buf, pos, path)? else {
            return Ok(DecodeStep::NeedMore);
        };
        let Some(dv) = try_varint(buf, pos, path)? else {
            *pos = start;
            return Ok(DecodeStep::NeedMore);
        };
        let meta = (head & u64::from(TUPLE_META_MAX)) as u8;
        let du = head >> 4;
        // Corrupt deltas must surface as errors, never wrap:
        // all id reconstruction is checked arithmetic.
        let overflow = || StoreError::corrupt(path, "tuple delta overflows the id space");
        let add1 = |base: u64, delta: u64| {
            base.checked_add(1)
                .and_then(|x| x.checked_add(delta))
                .ok_or_else(overflow)
        };
        let (u, v) = match self.prev {
            Some((pu, pv)) => {
                let u = u64::from(pu).checked_add(du).ok_or_else(overflow)?;
                let v = if du == 0 {
                    add1(u64::from(pv), dv)?
                } else {
                    add1(u, dv)?
                };
                (u, v)
            }
            None => {
                let u = du;
                (u, add1(u, dv)?)
            }
        };
        // v > u by construction, so this bounds u as well.
        if v > u64::from(u32::MAX) {
            return Err(StoreError::corrupt(
                path,
                format!("tuple id {v} overflows u32"),
            ));
        }
        let row = (u as u32, v as u32, meta);
        self.prev = Some((row.0, row.1));
        self.remaining -= 1;
        Ok(DecodeStep::Row(row))
    }
}

/// Incremental decoder over one **complete** tuple stream payload:
/// yields rows one at a time with O(1) decode state (a
/// [`TupleDecoder`] plus a cursor). For bounded-buffer streaming over
/// partial payloads, drive the [`TupleDecoder`] directly.
#[derive(Debug)]
pub struct TupleStreamReader {
    bytes: Vec<u8>,
    pos: usize,
    decoder: TupleDecoder,
    path: std::path::PathBuf,
}

impl TupleStreamReader {
    /// Wraps a tuple stream payload (as returned by a backend read).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] for a malformed header or an
    /// unknown format, [`StoreError::VersionMismatch`] for a foreign
    /// codec version.
    pub fn new(bytes: Vec<u8>, path: &Path) -> Result<Self, StoreError> {
        let (decoder, pos) = TupleDecoder::from_stream_start(&bytes, path)?;
        Ok(TupleStreamReader {
            bytes,
            pos,
            decoder,
            path: path.to_path_buf(),
        })
    }

    /// Rows not yet yielded.
    pub fn remaining(&self) -> u64 {
        self.decoder.remaining()
    }

    /// Yields the next row, or `None` at end of stream.
    ///
    /// Named like — but deliberately not implementing — the iterator
    /// protocol: decode errors must surface per row, so the signature
    /// is `Result<Option<...>>` rather than `Option<Result<...>>`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] on truncation, trailing
    /// garbage, varint overflow, or an id overflowing `u32`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<TupleRow>, StoreError> {
        match self
            .decoder
            .try_next(&self.bytes, &mut self.pos, &self.path)?
        {
            DecodeStep::Row(row) => Ok(Some(row)),
            DecodeStep::NeedMore => {
                // The payload is complete by contract, so running out
                // of bytes mid-row is corruption, not back-pressure.
                Err(StoreError::corrupt(&self.path, "truncated tuple row"))
            }
            DecodeStep::Done => {
                if self.pos != self.bytes.len() {
                    return Err(StoreError::corrupt(
                        &self.path,
                        format!(
                            "{} trailing bytes after the last row",
                            self.bytes.len() - self.pos
                        ),
                    ));
                }
                Ok(None)
            }
        }
    }
}

/// Decodes a whole tuple stream payload into rows.
/// Takes the payload by value (backend reads already hand over an
/// owned buffer; no copy is made).
///
/// # Errors
///
/// Same as [`TupleStreamReader::next`].
pub fn decode_tuples(bytes: Vec<u8>, path: &Path) -> Result<Vec<TupleRow>, StoreError> {
    let mut reader = TupleStreamReader::new(bytes, path)?;
    // A v2 row is at least two one-byte varints.
    let payload = reader.bytes.len() - reader.pos;
    let mut rows = Vec::with_capacity(row_capacity(reader.remaining(), payload, 2));
    while let Some(row) = reader.next()? {
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record_file::encode_pairs;
    use std::path::PathBuf;

    fn p() -> PathBuf {
        PathBuf::from("/test/tuples")
    }

    #[test]
    fn round_trips_and_is_compact() {
        let rows: Vec<TupleRow> = (0..500u32)
            .flat_map(|u| (u + 1..u + 4).map(move |v| (u, v, ((u + v) % 16) as u8)))
            .collect();
        let encoded = encode_tuples(&rows);
        assert_eq!(decode_tuples(encoded.to_vec(), &p()).unwrap(), rows);
        // Dense rows must beat the fixed-width 8 B/pair by a wide margin.
        let fixed = HEADER_LEN + rows.len() * 8;
        assert!(
            encoded.len() * 2 < fixed,
            "v2 stream ({} B) not compact vs fixed ({fixed} B)",
            encoded.len()
        );
    }

    #[test]
    fn empty_and_singleton_round_trip() {
        assert!(decode_tuples(encode_tuples(&[]).to_vec(), &p())
            .unwrap()
            .is_empty());
        let one = vec![(7u32, 9u32, 0x0Fu8)];
        assert_eq!(
            decode_tuples(encode_tuples(&one).to_vec(), &p()).unwrap(),
            one
        );
    }

    #[test]
    fn extreme_ids_round_trip() {
        let rows = vec![
            (0u32, 1u32, 0u8),
            (0, u32::MAX, 5),
            (1, 2, 15),
            (u32::MAX - 1, u32::MAX, 3),
        ];
        assert_eq!(
            decode_tuples(encode_tuples(&rows).to_vec(), &p()).unwrap(),
            rows
        );
    }

    #[test]
    fn reader_streams_incrementally() {
        let rows = vec![(1u32, 2u32, 1u8), (1, 5, 2), (3, 4, 12)];
        let mut r = TupleStreamReader::new(encode_tuples(&rows).to_vec(), &p()).unwrap();
        assert_eq!(r.remaining(), 3);
        for &row in &rows {
            assert_eq!(r.next().unwrap(), Some(row));
        }
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.next().unwrap(), None);
    }

    /// The fixed-width pair encoding is not a tuple stream: every entry
    /// point rejects it as corrupt.
    #[test]
    fn legacy_pair_streams_are_rejected() {
        let pairs = vec![(0u32, 3u32), (2, 9), (7, 8)];
        let legacy = encode_pairs(RecordKind::Tuples, &pairs).to_vec();
        let corrupt = |r: Result<(), StoreError>| matches!(r, Err(StoreError::Corrupt { .. }));
        assert!(corrupt(decode_tuples(legacy.clone(), &p()).map(drop)));
        assert!(corrupt(
            TupleStreamReader::new(legacy.clone(), &p()).map(drop)
        ));
        assert!(corrupt(
            TupleDecoder::from_stream_start(&legacy, &p()).map(drop)
        ));
    }

    #[test]
    fn truncation_and_trailing_garbage_are_corrupt() {
        let rows = vec![(1u32, 2u32, 1u8), (3, 4, 2)];
        let encoded = encode_tuples(&rows).to_vec();
        assert!(matches!(
            decode_tuples(encoded[..encoded.len() - 1].to_vec(), &p()),
            Err(StoreError::Corrupt { .. })
        ));
        let mut padded = encoded.clone();
        padded.push(0);
        assert!(matches!(
            decode_tuples(padded, &p()),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn unknown_format_byte_is_rejected() {
        let mut encoded = encode_tuples(&[(1, 2, 0)]).to_vec();
        encoded[HEADER_LEN] = 9;
        let err = decode_tuples(encoded, &p()).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt { detail, .. } if detail.contains("format")),
            "{err}"
        );
    }

    /// Corrupt streams with astronomically large deltas error instead
    /// of wrapping (release) or panicking (debug).
    #[test]
    fn oversized_deltas_are_corrupt_not_overflow() {
        // Header declaring 2 rows; first row normal, second row's
        // deltas push the reconstructed ids past u64.
        let mut buf = BytesMut::new();
        put_header(&mut buf, RecordKind::TuplesV2 as u16, 2);
        buf.put_u8(TUPLE_STREAM_FORMAT);
        put_varint(&mut buf, 0 << 4); // row 1: u = 0
        put_varint(&mut buf, 0); // v = 1
        put_varint(&mut buf, u64::MAX); // row 2: du = u64::MAX >> 4
        put_varint(&mut buf, u64::MAX); // dv pushes v past u64
        let err = decode_tuples(buf.to_vec(), &p()).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt { detail, .. } if detail.contains("id space")),
            "{err}"
        );
        // A delta landing just past u32 still errors via the id check.
        let mut buf = BytesMut::new();
        put_header(&mut buf, RecordKind::TuplesV2 as u16, 1);
        buf.put_u8(TUPLE_STREAM_FORMAT);
        put_varint(&mut buf, u64::from(u32::MAX) << 4); // u = u32::MAX
        put_varint(&mut buf, 0); // v = u32::MAX + 1
        let err = decode_tuples(buf.to_vec(), &p()).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt { detail, .. } if detail.contains("overflows u32")),
            "{err}"
        );
    }

    /// A bare header declaring an absurd row count is corrupt; it
    /// neither reserves capacity for the count nor wraps a length. A
    /// fixed-width pair header is rejected before its count is read.
    #[test]
    fn hostile_row_count_is_corrupt_not_panic() {
        for count in [1u64 << 61, u64::MAX] {
            let mut v2 = BytesMut::new();
            put_header(&mut v2, RecordKind::TuplesV2 as u16, count);
            v2.put_u8(TUPLE_STREAM_FORMAT);
            let mut legacy = BytesMut::new();
            put_header(&mut legacy, RecordKind::Tuples as u16, count);
            for bytes in [v2, legacy] {
                assert!(matches!(
                    decode_tuples(bytes.to_vec(), &p()),
                    Err(StoreError::Corrupt { .. })
                ));
            }
        }
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let foreign = encode_pairs(RecordKind::InEdges, &[(1, 2)]);
        assert!(matches!(
            decode_tuples(foreign.to_vec(), &p()),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn varint_boundaries_round_trip() {
        // Deltas straddling the 1/2/3-byte varint boundaries.
        let rows = vec![
            (0u32, 128u32, 0u8),
            (0, 129, 0),
            (127, 16384, 1),
            (128, 16385, 2),
            (16384, 2097152, 3),
        ];
        assert_eq!(
            decode_tuples(encode_tuples(&rows).to_vec(), &p()).unwrap(),
            rows
        );
    }
}
