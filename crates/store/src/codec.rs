//! Low-level binary encoding primitives.
//!
//! All on-disk files share a 12-byte header (`magic`, codec version,
//! record kind, record count follows as `u64`) and little-endian
//! fixed-width fields. The codec is deliberately explicit: no serde
//! format crate is available in this environment, and the engine needs
//! byte-exact control anyway for its I/O accounting.

use bytes::{Buf, BufMut};
use std::path::Path;

use crate::StoreError;

/// File magic: "OKNN" (out-of-core KNN).
pub const MAGIC: [u8; 4] = *b"OKNN";

/// Current codec version. Bump on any layout change.
pub const VERSION: u16 = 1;

/// Size of the fixed header in bytes: magic(4) + version(2) + kind(2)
/// + record count(8).
pub const HEADER_LEN: usize = 16;

/// Writes the standard header into `buf`.
pub fn put_header(buf: &mut impl BufMut, kind: u16, record_count: u64) {
    buf.put_slice(&MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u16_le(kind);
    buf.put_u64_le(record_count);
}

/// Reads and validates the standard header, returning the record count.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] on bad magic/kind/truncation and
/// [`StoreError::VersionMismatch`] on a version difference.
pub fn take_header(buf: &mut impl Buf, expected_kind: u16, path: &Path) -> Result<u64, StoreError> {
    if buf.remaining() < HEADER_LEN {
        return Err(StoreError::corrupt(
            path,
            format!(
                "file shorter than header ({} < {HEADER_LEN} bytes)",
                buf.remaining()
            ),
        ));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(StoreError::corrupt(path, format!("bad magic {magic:?}")));
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(StoreError::VersionMismatch {
            path: path.to_path_buf(),
            found: version,
            expected: VERSION,
        });
    }
    let kind = buf.get_u16_le();
    if kind != expected_kind {
        return Err(StoreError::corrupt(
            path,
            format!("record kind {kind} found, expected {expected_kind}"),
        ));
    }
    Ok(buf.get_u64_le())
}

/// Ensures at least `needed` readable bytes remain, else a corruption
/// error naming `what`.
pub fn need(buf: &impl Buf, needed: usize, what: &str, path: &Path) -> Result<(), StoreError> {
    if buf.remaining() < needed {
        Err(StoreError::corrupt(
            path,
            format!(
                "truncated {what}: need {needed} bytes, have {}",
                buf.remaining()
            ),
        ))
    } else {
        Ok(())
    }
}

/// Ensures `count` fixed-width rows of `row_bytes` each remain
/// readable and returns `count` as a `usize`. The byte total is
/// checked arithmetic, so a hostile header count is a corruption error
/// rather than a wrapped length.
pub fn need_rows(
    buf: &impl Buf,
    count: u64,
    row_bytes: usize,
    what: &str,
    path: &Path,
) -> Result<usize, StoreError> {
    let sized = usize::try_from(count)
        .ok()
        .and_then(|rows| Some((rows, rows.checked_mul(row_bytes)?)));
    let Some((rows, needed)) = sized else {
        return Err(StoreError::corrupt(
            path,
            format!("{what}: {count} rows overflow the address space"),
        ));
    };
    need(buf, needed, what, path)?;
    Ok(rows)
}

/// Rows to pre-allocate for a header declaring `count` rows of at
/// least `min_row_bytes` each: never more than `remaining` payload
/// bytes could hold, whatever the header claims.
pub fn row_capacity(count: u64, remaining: usize, min_row_bytes: usize) -> usize {
    (remaining / min_row_bytes).min(usize::try_from(count).unwrap_or(usize::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use std::path::PathBuf;

    fn p() -> PathBuf {
        PathBuf::from("/test/file")
    }

    #[test]
    fn header_round_trips() {
        let mut buf = BytesMut::new();
        put_header(&mut buf, 7, 123);
        assert_eq!(buf.len(), HEADER_LEN);
        let mut rd = buf.freeze();
        let count = take_header(&mut rd, 7, &p()).unwrap();
        assert_eq!(count, 123);
        assert_eq!(rd.remaining(), 0);
    }

    #[test]
    fn detects_bad_magic() {
        let mut buf = BytesMut::new();
        put_header(&mut buf, 1, 0);
        let mut bytes = buf.to_vec();
        bytes[0] = b'X';
        let err = take_header(&mut &bytes[..], 1, &p()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn detects_version_mismatch() {
        let mut buf = BytesMut::new();
        put_header(&mut buf, 1, 0);
        let mut bytes = buf.to_vec();
        bytes[4] = 99; // version low byte
        let err = take_header(&mut &bytes[..], 1, &p()).unwrap_err();
        assert!(
            matches!(err, StoreError::VersionMismatch { found: 99, .. }),
            "{err}"
        );
    }

    #[test]
    fn detects_wrong_kind() {
        let mut buf = BytesMut::new();
        put_header(&mut buf, 3, 0);
        let bytes = buf.to_vec();
        let err = take_header(&mut &bytes[..], 4, &p()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn detects_truncated_header() {
        let bytes = [b'O', b'K'];
        let err = take_header(&mut &bytes[..], 1, &p()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn need_guards_reads() {
        let bytes = [0u8; 3];
        assert!(need(&&bytes[..], 3, "x", &p()).is_ok());
        assert!(need(&&bytes[..], 4, "x", &p()).is_err());
    }
}
