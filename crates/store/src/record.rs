//! Record framing of the WAL/segment files.
//!
//! Every file starts with an 8-byte header (`HOMS`, format version,
//! reserved), followed by self-delimiting records:
//!
//! ```text
//! "HOMR" | kind u8 | stream u64 LE | seq u64 LE | len u32 LE | payload | fnv1a u64 LE
//! ```
//!
//! Records are written and read with `hom_data::codec`'s `Writer` and
//! `Reader` (re-exported as `hom_core::codec`), and the trailer is the
//! codec's one FNV-1a seal — the same one that seals the HOMF snapshot
//! inside a snapshot record's payload.
//! A snapshot record's payload is the HOMF-encoded `FilterState`
//! verbatim; tombstones and commit markers carry no payload.

use hom_core::codec::{unseal, ReadError, Reader, Writer};

/// Magic of every store file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"HOMS";

/// Store file format version.
pub const SEGMENT_VERSION: u16 = 1;

/// File header: magic + version u16 LE + reserved u16.
pub const SEGMENT_HEADER_LEN: usize = 8;

/// Per-record magic (frame resynchronization is never attempted — this
/// exists so a decode failure can say *what* went wrong).
const RECORD_MAGIC: [u8; 4] = *b"HOMR";

/// magic + kind + stream + seq + len.
const RECORD_HEADER_LEN: usize = 4 + 1 + 8 + 8 + 4;

/// Bytes a record adds on top of its payload.
pub const RECORD_OVERHEAD: usize = RECORD_HEADER_LEN + 8;

/// The file header bytes.
pub fn segment_header() -> [u8; SEGMENT_HEADER_LEN] {
    let mut h = [0u8; SEGMENT_HEADER_LEN];
    h[..4].copy_from_slice(&SEGMENT_MAGIC);
    h[4..6].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    h
}

/// What a record is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A parked stream's HOMF snapshot (the payload).
    Snapshot = 1,
    /// The stream was removed; its earlier snapshots are dead.
    Tombstone = 2,
    /// Group-commit marker: every record before it (since the previous
    /// marker) is durable once this marker is on disk.
    Commit = 3,
}

impl RecordKind {
    fn from_u8(b: u8) -> Option<RecordKind> {
        match b {
            1 => Some(RecordKind::Snapshot),
            2 => Some(RecordKind::Tombstone),
            3 => Some(RecordKind::Commit),
            _ => None,
        }
    }
}

/// A decoded record borrowing its payload from the file buffer.
#[derive(Debug, Clone, Copy)]
pub struct Record<'a> {
    /// What the record is.
    pub kind: RecordKind,
    /// The stream it concerns (0 for commit markers).
    pub stream: u64,
    /// Global append sequence — strictly increasing in write order, the
    /// newest-version tiebreak the recovery merge keys on.
    pub seq: u64,
    /// The HOMF snapshot bytes (empty for tombstones and markers).
    pub payload: &'a [u8],
}

/// Why a record failed to decode. All variants end the scan of a file:
/// frames are never resynchronized, because nothing after a lost frame
/// boundary can be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeFailure {
    /// The buffer ends before the record does (a torn tail).
    Incomplete,
    /// The bytes at the frame boundary are not a record header.
    BadMagic,
    /// The kind byte is not a known [`RecordKind`].
    BadKind,
    /// The checksum does not match the record bytes.
    BadChecksum,
}

/// A codec failure: a bad trailer, or a record that runs past the
/// buffer.
impl From<ReadError> for DecodeFailure {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::ChecksumMismatch => DecodeFailure::BadChecksum,
            _ => DecodeFailure::Incomplete,
        }
    }
}

/// Whether `bytes` start with the current store file header.
pub(crate) fn is_segment_header(bytes: &[u8]) -> bool {
    let mut r = Reader::new(bytes);
    bytes.len() >= SEGMENT_HEADER_LEN
        && r.take_array() == Ok(SEGMENT_MAGIC)
        && r.take_u16() == Ok(SEGMENT_VERSION)
}

/// Append one encoded record to `out`, returning its encoded length.
pub fn encode_into(
    out: &mut Vec<u8>,
    kind: RecordKind,
    stream: u64,
    seq: u64,
    payload: &[u8],
) -> usize {
    let mut w = Writer::new(out);
    w.put_bytes(&RECORD_MAGIC);
    w.put_u8(kind as u8);
    w.put_u64(stream);
    w.put_u64(seq);
    w.put_u32(payload.len() as u32);
    w.put_bytes(payload);
    w.seal()
}

/// Encoded length of a record with an `n`-byte payload.
pub fn encoded_len(payload_len: usize) -> usize {
    RECORD_OVERHEAD + payload_len
}

/// Decode the record starting at `at` in `buf`, returning it and its
/// encoded length. Never panics: any malformed byte is a typed
/// [`DecodeFailure`].
pub fn decode_at(buf: &[u8], at: usize) -> Result<(Record<'_>, usize), DecodeFailure> {
    let rest = &buf[at.min(buf.len())..];
    if rest.len() < RECORD_HEADER_LEN {
        return Err(DecodeFailure::Incomplete);
    }
    let mut r = Reader::new(rest);
    if r.take_array()? != RECORD_MAGIC {
        return Err(DecodeFailure::BadMagic);
    }
    let kind = RecordKind::from_u8(r.take_u8()?).ok_or(DecodeFailure::BadKind)?;
    let stream = r.take_u64()?;
    let seq = r.take_u64()?;
    let len = r.count(1)?;
    let sealed = rest
        .get(..RECORD_OVERHEAD + len)
        .ok_or(DecodeFailure::Incomplete)?;
    Ok((
        Record {
            kind,
            stream,
            seq,
            payload: &unseal(sealed)?[RECORD_HEADER_LEN..],
        },
        sealed.len(),
    ))
}

/// Decode a buffer that must hold exactly one record (a read of an
/// indexed record at its indexed length) and keep only the payload, in
/// the record's own buffer: no second allocation. `None` when the record
/// fails to decode or does not fill the buffer exactly.
pub(crate) fn into_payload(mut buf: Vec<u8>) -> Option<Vec<u8>> {
    match decode_at(&buf, 0) {
        Ok((_, len)) if len == buf.len() => {}
        _ => return None,
    }
    buf.truncate(buf.len() - 8);
    buf.drain(..RECORD_HEADER_LEN);
    Some(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = segment_header().to_vec();
        let n = encode_into(&mut buf, RecordKind::Snapshot, 42, 7, b"payload");
        assert_eq!(n, encoded_len(7));
        let m = encode_into(&mut buf, RecordKind::Commit, 0, 8, b"");
        let (r, len) = decode_at(&buf, SEGMENT_HEADER_LEN).expect("valid record");
        assert_eq!(len, n);
        assert_eq!(r.kind, RecordKind::Snapshot);
        assert_eq!((r.stream, r.seq), (42, 7));
        assert_eq!(r.payload, b"payload");
        let (r2, len2) = decode_at(&buf, SEGMENT_HEADER_LEN + n).expect("valid marker");
        assert_eq!(len2, m);
        assert_eq!(r2.kind, RecordKind::Commit);
        assert!(r2.payload.is_empty());
    }

    #[test]
    fn into_payload_needs_exactly_one_record() {
        let mut rec = Vec::new();
        encode_into(&mut rec, RecordKind::Snapshot, 3, 4, b"state");
        assert_eq!(into_payload(rec.clone()).as_deref(), Some(&b"state"[..]));
        // A short read, trailing bytes and a flipped bit are all rejected.
        assert_eq!(into_payload(rec[..rec.len() - 1].to_vec()), None);
        let mut long = rec.clone();
        long.push(0);
        assert_eq!(into_payload(long), None);
        rec[RECORD_HEADER_LEN] ^= 1;
        assert_eq!(into_payload(rec), None);
    }

    #[test]
    fn every_flip_and_truncation_is_detected() {
        let mut buf = Vec::new();
        encode_into(&mut buf, RecordKind::Snapshot, 1, 2, &[9u8; 33]);
        for cut in 0..buf.len() {
            assert!(decode_at(&buf[..cut], 0).is_err(), "cut at {cut}");
        }
        for at in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[at] ^= 1 << bit;
                assert!(decode_at(&bad, 0).is_err(), "flip at {at}.{bit}");
            }
        }
    }
}
