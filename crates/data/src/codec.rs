//! Little-endian byte codec primitives: a [`Writer`] that appends
//! fixed-width fields to a buffer and a [`Reader`] that takes them back
//! with every read checked.
//!
//! A binary format built on the pair gets two properties by
//! construction:
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
        }
    }
}

/// Appends little-endian fields to a byte buffer.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer with room for `capacity` bytes.
    #[inline]
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
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

    /// The written bytes.
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
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

    #[inline]
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
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
        let mut w = Writer::with_capacity(0);
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
        let bytes = w.into_bytes();
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
}
