//! The router↔worker wire: request batches and their responses as
//! length-prefixed binary frames, control-body snapshots as hex.
//!
//! The frame is the internal hop only — router [`crate::Router::submit`]
//! → worker `POST /submit` → router merge. Where a person or an outside
//! client speaks (the router's own `/submit` edge), the format is
//! JSONL, in [`jsonl`]; `examples/wire_frame.rs` converts between the
//! two for `curl`-level debugging of a worker.
//!
//! ## Request frame (version 1, little-endian)
//!
//! | bytes | field |
//! |---|---|
//! | 4 | magic `HOMQ` |
//! | 2 | frame version (1) |
//! | 4 | request count |
//! | 1 | per request: op tag — 0 predict, 1 observe, 2 step, 3 advance |
//! | 8 | stream id |
//! | 4 + 8·d | predict / observe / step: attribute count `d`, then each value's [`f64::to_bits`] |
//! | 4 | observe / step: label `y` |
//! | 8 | advance: step count `k` |
//!
//! ## Response frame (version 1, little-endian)
//!
//! | bytes | field |
//! |---|---|
//! | 4 | magic `HOMP` |
//! | 2 | frame version (1) |
//! | 4 | response count, in request order |
//! | 8 | per response: stream id |
//! | 1 | prediction tag — 0 none, 1 a label follows |
//! | 4 | the label, when the tag is 1 |
//!
//! Attribute values travel as raw bits, so a value reaches the worker
//! bit-identically by construction — the cluster differential bar
//! depends on it. Non-finite attributes are refused at both ends: the
//! JSONL edge cannot carry them either, so the cluster serves exactly
//! the batches a client can send it.
//!
//! Decoding is total and bounded: it reads through
//! [`hom_data::codec::Reader`], so any byte string yields a batch or a
//! typed [`WireError::BadFrame`] naming the offset where decoding
//! stopped, never a panic, and a declared count is believed only when
//! the bytes that remain can hold that many elements. A JSONL body sent
//! to a worker fails the magic check; it is never misread as a frame.

use std::fmt;

use hom_data::codec::{Reader, Writer};
use hom_serve::{Request, Response};

pub mod jsonl;

/// Magic prefix of a request frame.
pub const REQUEST_MAGIC: [u8; 4] = *b"HOMQ";
/// Magic prefix of a response frame.
pub const RESPONSE_MAGIC: [u8; 4] = *b"HOMP";
/// Current frame version, of both directions.
pub const FRAME_VERSION: u16 = 1;

/// Magic, version and count.
const HEADER_BYTES: usize = 4 + 2 + 4;
/// The shortest request: a predict with no attributes.
const MIN_REQUEST_BYTES: usize = 1 + 8 + 4;
/// The shortest response: one without a prediction.
const MIN_RESPONSE_BYTES: usize = 8 + 1;

const OP_PREDICT: u8 = 0;
const OP_OBSERVE: u8 = 1;
const OP_STEP: u8 = 2;
const OP_ADVANCE: u8 = 3;

/// Why a wire payload failed to encode or decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A JSONL line (1-based) did not parse as the expected JSON shape.
    BadLine {
        /// 1-based line number within the payload.
        line: usize,
        /// What was wrong.
        what: &'static str,
    },
    /// A binary frame did not decode.
    BadFrame {
        /// Byte offset at which decoding stopped.
        at: usize,
        /// What was wrong.
        what: &'static str,
    },
    /// Encode-side: an attribute value was NaN or infinite — neither
    /// wire carries it (and the JSONL edge could not have received it).
    NonFiniteAttribute,
    /// Encode-side: a batch or an attribute vector longer than a `u32`
    /// count can declare.
    TooLong,
    /// A hex string had a non-hex digit or odd length.
    BadHex,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadLine { line, what } => write!(f, "wire line {line}: {what}"),
            WireError::BadFrame { at, what } => write!(f, "wire frame byte {at}: {what}"),
            WireError::NonFiniteAttribute => {
                write!(f, "non-finite attribute value cannot be encoded")
            }
            WireError::TooLong => write!(f, "too many elements for a u32 count"),
            WireError::BadHex => write!(f, "invalid hex string"),
        }
    }
}

impl std::error::Error for WireError {}

fn u32_len(n: usize) -> Result<u32, WireError> {
    u32::try_from(n).map_err(|_| WireError::TooLong)
}

/// Encoded length of one request.
fn request_len(r: &Request) -> usize {
    match r {
        Request::Predict { x, .. } => MIN_REQUEST_BYTES + 8 * x.len(),
        Request::Observe { x, .. } | Request::Step { x, .. } => MIN_REQUEST_BYTES + 8 * x.len() + 4,
        Request::Advance { .. } => 1 + 8 + 8,
    }
}

fn put_xs(out: &mut Writer, x: &[f64]) -> Result<(), WireError> {
    out.put_u32(u32_len(x.len())?);
    for &v in x {
        if !v.is_finite() {
            return Err(WireError::NonFiniteAttribute);
        }
        out.put_f64(v);
    }
    Ok(())
}

fn put_request(out: &mut Writer, r: &Request) -> Result<(), WireError> {
    match r {
        Request::Predict { stream, x } => {
            out.put_u8(OP_PREDICT);
            out.put_u64(*stream);
            put_xs(out, x)?;
        }
        Request::Observe { stream, x, y } | Request::Step { stream, x, y } => {
            let op = if matches!(r, Request::Observe { .. }) {
                OP_OBSERVE
            } else {
                OP_STEP
            };
            out.put_u8(op);
            out.put_u64(*stream);
            put_xs(out, x)?;
            out.put_u32(*y);
        }
        Request::Advance { stream, k } => {
            out.put_u8(OP_ADVANCE);
            out.put_u64(*stream);
            out.put_u64(*k as u64);
        }
    }
    Ok(())
}

fn put_header(out: &mut Writer, magic: &[u8; 4], count: usize) -> Result<(), WireError> {
    out.put_bytes(magic);
    out.put_u16(FRAME_VERSION);
    out.put_u32(u32_len(count)?);
    Ok(())
}

/// Encode a request batch as one request frame (batch order).
pub fn encode_requests(batch: &[Request]) -> Result<Vec<u8>, WireError> {
    encode_request_refs(batch.iter())
}

/// [`encode_requests`] over borrowed requests — how the router encodes
/// each worker's sub-batch straight out of the client's batch.
pub(crate) fn encode_request_refs<'r>(
    batch: impl ExactSizeIterator<Item = &'r Request> + Clone,
) -> Result<Vec<u8>, WireError> {
    let len = HEADER_BYTES + batch.clone().map(request_len).sum::<usize>();
    let mut out = Writer::with_capacity(len);
    put_header(&mut out, &REQUEST_MAGIC, batch.len())?;
    for r in batch {
        put_request(&mut out, r)?;
    }
    Ok(out.into_bytes())
}

/// Encode responses as one response frame, in batch order.
///
/// # Panics
///
/// On more than `u32::MAX` responses, which no request frame can ask
/// for.
pub fn encode_responses(responses: &[Response]) -> Vec<u8> {
    let mut out = Writer::with_capacity(HEADER_BYTES + responses.len() * (MIN_RESPONSE_BYTES + 4));
    put_header(&mut out, &RESPONSE_MAGIC, responses.len()).expect("at most u32::MAX responses");
    for r in responses {
        out.put_u64(r.stream);
        match r.prediction {
            Some(label) => {
                out.put_u8(1);
                out.put_u32(label);
            }
            None => out.put_u8(0),
        }
    }
    out.into_bytes()
}

/// Decode one frame with `body`, which reads the elements after the
/// header. A failure becomes [`WireError::BadFrame`] at the offset where
/// decoding stopped; the frame must be consumed exactly.
fn decode_frame<T>(
    bytes: &[u8],
    magic: &[u8; 4],
    what_magic: &'static str,
    body: impl FnOnce(&mut Reader<'_>) -> Result<T, &'static str>,
) -> Result<T, WireError> {
    if !bytes.starts_with(magic) {
        return Err(WireError::BadFrame {
            at: 0,
            what: what_magic,
        });
    }
    let mut r = Reader::new(bytes);
    read_frame(&mut r, body).map_err(|what| WireError::BadFrame {
        at: r.offset(),
        what,
    })
}

fn read_frame<'a, T>(
    r: &mut Reader<'a>,
    body: impl FnOnce(&mut Reader<'a>) -> Result<T, &'static str>,
) -> Result<T, &'static str> {
    r.take(4)?;
    if r.take_u16()? != FRAME_VERSION {
        return Err("unsupported frame version");
    }
    let out = body(r)?;
    r.finish()?;
    Ok(out)
}

fn take_request(r: &mut Reader<'_>) -> Result<Request, &'static str> {
    let op = r.take_u8()?;
    let stream = r.take_u64()?;
    if op == OP_ADVANCE {
        let k = usize::try_from(r.take_u64()?).map_err(|_| "step count out of range")?;
        return Ok(Request::Advance { stream, k });
    }
    if op > OP_ADVANCE {
        return Err("unknown op tag");
    }
    let d = r.count(8)?;
    let mut x = Vec::with_capacity(d);
    let mut finite = true;
    for bits in r.take(8 * d)?.chunks_exact(8) {
        let v = f64::from_bits(u64::from_le_bytes(bits.try_into().expect("8-byte chunk")));
        finite &= v.is_finite();
        x.push(v);
    }
    if !finite {
        return Err("non-finite attribute");
    }
    Ok(match op {
        OP_PREDICT => Request::Predict { stream, x },
        OP_OBSERVE => Request::Observe {
            stream,
            x,
            y: r.take_u32()?,
        },
        _ => Request::Step {
            stream,
            x,
            y: r.take_u32()?,
        },
    })
}

/// Decode a request frame (the worker's `/submit` input).
pub fn decode_requests(bytes: &[u8]) -> Result<Vec<Request>, WireError> {
    decode_frame(bytes, &REQUEST_MAGIC, "not a request frame", |r| {
        let n = r.count(MIN_REQUEST_BYTES)?;
        let mut batch = Vec::with_capacity(n);
        for _ in 0..n {
            batch.push(take_request(r)?);
        }
        Ok(batch)
    })
}

/// Decode a response frame (the router's view of a worker's reply).
pub fn decode_responses(bytes: &[u8]) -> Result<Vec<Response>, WireError> {
    decode_frame(bytes, &RESPONSE_MAGIC, "not a response frame", |r| {
        let n = r.count(MIN_RESPONSE_BYTES)?;
        let mut responses = Vec::with_capacity(n);
        for _ in 0..n {
            let stream = r.take_u64()?;
            let prediction = match r.take_u8()? {
                0 => None,
                1 => Some(r.take_u32()?),
                _ => return Err("unknown prediction tag"),
            };
            responses.push(Response { stream, prediction });
        }
        Ok(responses)
    })
}

/// Snapshot bytes as lowercase hex (the migration payload — snapshots
/// are binary, the control bodies are JSON).
pub fn to_hex(bytes: &[u8]) -> String {
    const NIBBLES: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from(NIBBLES[usize::from(b >> 4)]));
        out.push(char::from(NIBBLES[usize::from(b & 0xf)]));
    }
    out
}

/// Decode [`to_hex`] output.
pub fn from_hex(text: &str) -> Result<Vec<u8>, WireError> {
    let text = text.trim();
    if !text.len().is_multiple_of(2) {
        return Err(WireError::BadHex);
    }
    let digit = |c: u8| -> Result<u8, WireError> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(WireError::BadHex),
        }
    };
    let raw = text.as_bytes();
    let mut out = Vec::with_capacity(raw.len() / 2);
    for pair in raw.chunks_exact(2) {
        out.push(digit(pair[0])? << 4 | digit(pair[1])?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_request_frame_has_the_documented_layout() {
        let batch = [
            Request::Step {
                stream: 7,
                x: vec![1.0, -0.0],
                y: 4,
            },
            Request::Advance {
                stream: u64::MAX,
                k: 3,
            },
        ];
        let frame = encode_requests(&batch).expect("finite batch encodes");
        let mut want = b"HOMQ\x01\x00\x02\x00\x00\x00".to_vec();
        want.push(OP_STEP);
        want.extend_from_slice(&7u64.to_le_bytes());
        want.extend_from_slice(&2u32.to_le_bytes());
        want.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        want.extend_from_slice(&(-0.0f64).to_bits().to_le_bytes());
        want.extend_from_slice(&4u32.to_le_bytes());
        want.push(OP_ADVANCE);
        want.extend_from_slice(&u64::MAX.to_le_bytes());
        want.extend_from_slice(&3u64.to_le_bytes());
        assert_eq!(frame, want);
        let back = decode_requests(&frame).expect("own frame");
        assert_eq!(format!("{back:?}"), format!("{batch:?}"));
    }

    #[test]
    fn a_response_frame_has_the_documented_layout() {
        let responses = [
            Response {
                stream: 7,
                prediction: Some(1),
            },
            Response {
                stream: 9,
                prediction: None,
            },
        ];
        let frame = encode_responses(&responses);
        let mut want = b"HOMP\x01\x00\x02\x00\x00\x00".to_vec();
        want.extend_from_slice(&7u64.to_le_bytes());
        want.extend_from_slice(&[1, 1, 0, 0, 0]);
        want.extend_from_slice(&9u64.to_le_bytes());
        want.push(0);
        assert_eq!(frame, want);
        assert_eq!(decode_responses(&frame).expect("own frame"), responses);
    }

    #[test]
    fn non_finite_attributes_are_rejected_at_both_ends() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let batch = vec![Request::Predict {
                stream: 1,
                x: vec![bad],
            }];
            assert_eq!(encode_requests(&batch), Err(WireError::NonFiniteAttribute));
            let mut frame = encode_requests(&[Request::Predict {
                stream: 1,
                x: vec![0.0],
            }])
            .unwrap();
            let at = frame.len() - 8;
            frame[at..].copy_from_slice(&bad.to_bits().to_le_bytes());
            assert_eq!(
                decode_requests(&frame).err(),
                Some(WireError::BadFrame {
                    at: frame.len(),
                    what: "non-finite attribute"
                })
            );
        }
    }

    #[test]
    fn foreign_bodies_are_typed_errors() {
        let jsonl = b"{\"op\":\"advance\",\"stream\":1,\"k\":2}\n";
        assert_eq!(
            decode_requests(jsonl).err(),
            Some(WireError::BadFrame {
                at: 0,
                what: "not a request frame"
            })
        );
        // A response frame is not a request frame, nor the reverse.
        let responses = encode_responses(&[]);
        assert!(decode_requests(&responses).is_err());
        assert!(decode_responses(&encode_requests(&[]).unwrap()).is_err());
        let mut future = encode_requests(&[]).unwrap();
        future[4] = 2;
        assert_eq!(
            decode_requests(&future).err(),
            Some(WireError::BadFrame {
                at: 6,
                what: "unsupported frame version"
            })
        );
        let mut long = encode_requests(&[]).unwrap();
        long.push(0);
        assert_eq!(
            decode_requests(&long).err(),
            Some(WireError::BadFrame {
                at: 10,
                what: "trailing bytes"
            })
        );
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert_eq!(from_hex("abc").unwrap_err(), WireError::BadHex);
        assert_eq!(from_hex("zz").unwrap_err(), WireError::BadHex);
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
    }
}
