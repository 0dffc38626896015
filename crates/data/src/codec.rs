//! Little-endian byte codec primitives: a [`Writer`] that appends
//! fixed-width fields to a caller's buffer and a [`Reader`] that takes
//! them back with every read checked, plus the one FNV-1a checksum
//! ([`fnv1a`]) every sealed format ends with.
//!
//! Every binary format in the workspace is built on the pair: the HOMF
//! filter snapshot, the HOMM model, the classifier blobs inside it, the
//! HOMR store records and the HOMQ/HOMP router↔worker frames. Each gets
//! three properties by construction:
//!
//! * **Total decoding.** Every `take_*` is bounds-checked and answers
//!   [`ReadError::Truncated`] instead of panicking; [`Reader::finish`]
//!   rejects bytes left over after the last field.
//! * **Allocation bounded by the input.** [`Reader::count`] accepts a
//!   declared element count only when that many elements, each at least
//!   `min_elem_bytes` long, fit in the bytes that remain. A decoder that
//!   sizes its buffers from `count` therefore never reserves more than a
//!   constant times the input length, whatever count a hostile body
//!   declares.
//! * **One seal.** [`Writer::seal`] appends the FNV-1a of everything the
//!   writer wrote; [`unseal`] splits that trailer off again and checks
//!   it.
//!
//! `f64` values travel as their raw bits ([`f64::to_bits`]), so a value
//! decodes to exactly the bits it was encoded from — negative zero,
//! subnormals and NaN payloads included.

use std::fmt;

/// Why a [`Reader`] could not take the next field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// The input ended inside a field, or a declared count needs more
    /// bytes than remain.
    Truncated,
    /// Bytes remain after the last field ([`Reader::finish`]).
    TrailingBytes,
    /// The FNV-1a trailer does not match the bytes it seals ([`unseal`]).
    ChecksumMismatch,
    /// A length-prefixed string is not UTF-8 ([`Reader::take_str`]).
    InvalidUtf8,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str((*self).into())
    }
}

impl std::error::Error for ReadError {}

/// The reason as a static string, for formats whose errors carry one.
impl From<ReadError> for &'static str {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Truncated => "truncated",
            ReadError::TrailingBytes => "trailing bytes",
            ReadError::ChecksumMismatch => "checksum mismatch",
            ReadError::InvalidUtf8 => "invalid UTF-8 string",
        }
    }
}

/// FNV-1a over `bytes`: the checksum that seals HOMF, HOMM and HOMR,
/// and the hash the cluster's consistent-hash ring places keys with. It
/// rejects bit flips and splices; it is an integrity check, not an
/// authenticity one.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Split a sealed encoding into the bytes before its 8-byte FNV-1a
/// trailer, checking the trailer against them.
#[inline]
pub fn unseal(sealed: &[u8]) -> Result<&[u8], ReadError> {
    let cut = sealed.len().checked_sub(8).ok_or(ReadError::Truncated)?;
    let (body, trailer) = sealed.split_at(cut);
    if fnv1a(body).to_le_bytes() == trailer {
        Ok(body)
    } else {
        Err(ReadError::ChecksumMismatch)
    }
}

/// Appends little-endian fields to the end of a caller's buffer.
#[derive(Debug)]
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
    /// Where this writer's bytes begin: what [`Self::seal`] covers.
    start: usize,
}

impl<'a> Writer<'a> {
    /// A writer appending to `buf`; the bytes already there are left
    /// alone and are not covered by [`Self::seal`].
    #[inline]
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        let start = buf.len();
        Writer { buf, start }
    }

    /// Append raw bytes.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Append a `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Append a `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Append the raw bits of an `f64`.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a string as its `u32` byte length and its UTF-8 bytes.
    ///
    /// # Panics
    /// On a string longer than `u32::MAX` bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(u32::try_from(s.len()).expect("string longer than u32::MAX bytes"));
        self.put_bytes(s.as_bytes());
    }

    /// Append the FNV-1a of everything this writer wrote, returning the
    /// writer's whole length, trailer included.
    #[inline]
    pub fn seal(self) -> usize {
        let sum = fnv1a(&self.buf[self.start..]);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf.len() - self.start
    }
}

/// Takes little-endian fields off a byte slice, front to back.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    /// Offset of the next unread byte.
    #[inline]
    pub fn offset(&self) -> usize {
        self.at
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        if n > self.remaining() {
            return Err(ReadError::Truncated);
        }
        let chunk = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(chunk)
    }

    /// The next `N` bytes as an array — a magic, say.
    #[inline]
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// The next byte.
    #[inline]
    pub fn take_u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.take_array::<1>()?[0])
    }

    /// The next `u16`.
    #[inline]
    pub fn take_u16(&mut self) -> Result<u16, ReadError> {
        self.take_array().map(u16::from_le_bytes)
    }

    /// The next `u32`.
    #[inline]
    pub fn take_u32(&mut self) -> Result<u32, ReadError> {
        self.take_array().map(u32::from_le_bytes)
    }

    /// The next `u64`.
    #[inline]
    pub fn take_u64(&mut self) -> Result<u64, ReadError> {
        self.take_array().map(u64::from_le_bytes)
    }

    /// The next `f64`, bit for bit.
    #[inline]
    pub fn take_f64(&mut self) -> Result<f64, ReadError> {
        self.take_u64().map(f64::from_bits)
    }

    /// A string written by [`Writer::put_str`].
    pub fn take_str(&mut self) -> Result<&'a str, ReadError> {
        let len = self.count(1)?;
        std::str::from_utf8(self.take(len)?).map_err(|_| ReadError::InvalidUtf8)
    }

    /// A `u32` element count, accepted only when `count` elements of at
    /// least `min_elem_bytes` each fit in the bytes after it — so a
    /// buffer sized from the count is bounded by the input length.
    #[inline]
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, ReadError> {
        let n = self.take_u32()? as usize;
        match n.checked_mul(min_elem_bytes) {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(ReadError::Truncated),
        }
    }

    /// End of input: every byte must have been read.
    #[inline]
    pub fn finish(&self) -> Result<(), ReadError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ReadError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip_bit_exactly() {
        let mut bytes = Vec::new();
        let mut w = Writer::new(&mut bytes);
        w.put_u8(7);
        w.put_u16(0xbeef);
        w.put_u32(u32::MAX);
        w.put_u64(u64::MAX - 1);
        for v in [
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            f64::from_bits(0x7ff8_dead_beef_0001),
        ] {
            w.put_f64(v);
        }
        w.put_bytes(b"tail");
        assert_eq!(bytes.len(), 1 + 2 + 4 + 8 + 3 * 8 + 4);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_u8(), Ok(7));
        assert_eq!(r.take_u16(), Ok(0xbeef));
        assert_eq!(r.take_u32(), Ok(u32::MAX));
        assert_eq!(r.take_u64(), Ok(u64::MAX - 1));
        for bits in [
            (-0.0f64).to_bits(),
            (f64::MIN_POSITIVE / 4.0).to_bits(),
            0x7ff8_dead_beef_0001,
        ] {
            assert_eq!(r.take_u64(), Ok(bits));
        }
        assert_eq!(r.finish(), Err(ReadError::TrailingBytes));
        assert_eq!(r.take(4), Ok(&b"tail"[..]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn short_reads_and_leftovers_are_typed() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.take_u32(), Err(ReadError::Truncated));
        assert_eq!(r.offset(), 0, "a failed take consumes nothing");
        assert_eq!(r.take_u16(), Ok(0x0201));
        assert_eq!(r.take(usize::MAX), Err(ReadError::Truncated));
        assert_eq!(r.finish(), Err(ReadError::TrailingBytes));
    }

    #[test]
    fn counts_must_fit_in_the_remaining_bytes() {
        let mut body = u32::MAX.to_le_bytes().to_vec();
        body.resize(20, 0);
        assert_eq!(Reader::new(&body).count(1), Err(ReadError::Truncated));
        // Exactly 16 bytes remain after the count: 16 one-byte or 2
        // eight-byte elements fit, 3 do not.
        let fits = |n: u32, min| {
            let mut body = n.to_le_bytes().to_vec();
            body.resize(20, 0);
            Reader::new(&body).count(min)
        };
        assert_eq!(fits(16, 1), Ok(16));
        assert_eq!(fits(2, 8), Ok(2));
        assert_eq!(fits(3, 8), Err(ReadError::Truncated));
        assert_eq!(fits(u32::MAX, usize::MAX), Err(ReadError::Truncated));
    }

    #[test]
    fn strings_and_arrays_round_trip() {
        let mut bytes = Vec::new();
        let mut w = Writer::new(&mut bytes);
        w.put_str("");
        w.put_str("héllo");
        w.put_bytes(b"HOMX");
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_str(), Ok(""));
        assert_eq!(r.take_str(), Ok("héllo"));
        assert_eq!(r.take_array(), Ok(*b"HOMX"));
        assert_eq!(r.finish(), Ok(()));
        // A length the input cannot hold, and bytes that are not UTF-8.
        assert_eq!(
            Reader::new(&[9, 0, 0, 0, b'a']).take_str(),
            Err(ReadError::Truncated)
        );
        assert_eq!(
            Reader::new(&[1, 0, 0, 0, 0xff]).take_str(),
            Err(ReadError::InvalidUtf8)
        );
    }

    #[test]
    fn a_seal_covers_only_what_its_writer_wrote() {
        let mut buf = b"earlier".to_vec();
        let mut w = Writer::new(&mut buf);
        w.put_u32(0xdead_beef);
        assert_eq!(w.seal(), 4 + 8);
        let sealed = &buf[7..];
        assert_eq!(sealed[4..], fnv1a(&sealed[..4]).to_le_bytes());
        assert_eq!(unseal(sealed), Ok(&sealed[..4]));
        for i in 0..sealed.len() {
            let mut bad = sealed.to_vec();
            bad[i] ^= 1;
            assert_eq!(
                unseal(&bad),
                Err(ReadError::ChecksumMismatch),
                "flip at {i}"
            );
        }
        assert_eq!(unseal(&sealed[1..]), Err(ReadError::ChecksumMismatch));
        assert_eq!(unseal(&[0; 7]), Err(ReadError::Truncated));
        // The empty body's seal is the FNV-1a offset basis.
        assert_eq!(unseal(&0xcbf2_9ce4_8422_2325u64.to_le_bytes()), Ok(&[][..]));
    }
}
