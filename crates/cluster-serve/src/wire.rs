//! The router↔worker wire format: request batches and responses as
//! JSONL, snapshots as hex — human-readable with `curl`, parseable
//! without a JSON dependency, and bit-exact where it matters.
//!
//! One request per line, `op` discriminated — mirroring
//! `hom-serve`'s [`Request`] variants one-to-one:
//!
//! ```text
//! {"op":"predict","stream":7,"x":[1,0.5]}
//! {"op":"observe","stream":7,"x":[1,0.5],"y":1}
//! {"op":"step","stream":9,"x":[0,0.25],"y":0}
//! {"op":"advance","stream":9,"k":3}
//! ```
//!
//! and one response per line, in request order:
//!
//! ```text
//! {"stream":7,"prediction":1}
//! {"stream":9,"prediction":null}
//! ```
//!
//! Attribute values render with the shortest round-trip decimal
//! ([`hom_obs::jsonl::push_f64`]), so a finite `f64` parses back
//! **bit-identically** on the worker — the cluster differential bar
//! depends on it. Non-finite attributes are unrepresentable here by
//! design: the schema's row validation already rejects them at the
//! engine boundary, and this codec rejects them at encode time rather
//! than silently shipping `null`.
//!
//! Decoding is one forward pass per line: a pull reader hands out each
//! key as a borrowed slice and the caller reads the value straight into
//! a typed slot (`x` into its `Vec<f64>`, ids as exact `u64`), so a
//! request costs one allocation — its attribute vector — and a response
//! none. Keys may come in any order, unknown keys are skipped, and the
//! first occurrence of a duplicate key wins. Skipping never recurses:
//! array nesting is a counter, capped at [`MAX_DEPTH`].
//!
//! Decoding is total: malformed lines are a typed [`WireError`] naming
//! the line, never a panic — a router must survive any bytes a confused
//! client POSTs at it.

use std::borrow::Cow;
use std::fmt;

use hom_obs::jsonl::push_f64;
use hom_serve::{Request, Response, StreamId};

/// Deepest array nesting the decoder walks through in a value it skips
/// (an unknown key's, or a misshapen element of `x`). The wire itself
/// nests one level; the cap bounds how far a hostile line can lead the
/// reader before it answers.
pub const MAX_DEPTH: usize = 64;

/// Why a wire payload failed to encode or decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A line (1-based) did not parse as the expected JSON shape.
    BadLine {
        /// 1-based line number within the payload.
        line: usize,
        /// What was wrong.
        what: &'static str,
    },
    /// Encode-side: an attribute value was NaN or infinite — the JSONL
    /// wire cannot carry it (and the engine would reject it anyway).
    NonFiniteAttribute,
    /// A hex string had a non-hex digit or odd length.
    BadHex,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadLine { line, what } => write!(f, "wire line {line}: {what}"),
            WireError::NonFiniteAttribute => {
                write!(f, "non-finite attribute value cannot be encoded")
            }
            WireError::BadHex => write!(f, "invalid hex string"),
        }
    }
}

impl std::error::Error for WireError {}

/// Decimal digits of `v`, without a `to_string` allocation.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(char::from(d));
    }
}

fn push_xs(out: &mut String, x: &[f64]) -> Result<(), WireError> {
    out.push('[');
    for (i, &v) in x.iter().enumerate() {
        if !v.is_finite() {
            return Err(WireError::NonFiniteAttribute);
        }
        if i > 0 {
            out.push(',');
        }
        push_f64(out, v);
    }
    out.push(']');
    Ok(())
}

fn push_request(out: &mut String, r: &Request) -> Result<(), WireError> {
    match r {
        Request::Predict { stream, x } => {
            out.push_str("{\"op\":\"predict\",\"stream\":");
            push_u64(out, *stream);
            out.push_str(",\"x\":");
            push_xs(out, x)?;
        }
        Request::Observe { stream, x, y } => {
            out.push_str("{\"op\":\"observe\",\"stream\":");
            push_u64(out, *stream);
            out.push_str(",\"x\":");
            push_xs(out, x)?;
            out.push_str(",\"y\":");
            push_u64(out, u64::from(*y));
        }
        Request::Step { stream, x, y } => {
            out.push_str("{\"op\":\"step\",\"stream\":");
            push_u64(out, *stream);
            out.push_str(",\"x\":");
            push_xs(out, x)?;
            out.push_str(",\"y\":");
            push_u64(out, u64::from(*y));
        }
        Request::Advance { stream, k } => {
            out.push_str("{\"op\":\"advance\",\"stream\":");
            push_u64(out, *stream);
            out.push_str(",\"k\":");
            push_u64(out, *k as u64);
        }
    }
    out.push_str("}\n");
    Ok(())
}

/// Encode a request batch as JSONL (one request per line, batch order).
pub fn encode_requests(batch: &[Request]) -> Result<String, WireError> {
    encode_request_refs(batch.iter())
}

/// [`encode_requests`] over borrowed requests — how the router encodes
/// each worker's sub-batch straight out of the client's batch.
pub(crate) fn encode_request_refs<'r>(
    mut batch: impl ExactSizeIterator<Item = &'r Request>,
) -> Result<String, WireError> {
    let mut out = String::new();
    if let Some(first) = batch.next() {
        push_request(&mut out, first)?;
        // Size the body from its first line: one allocation when the
        // lines are alike, as they are in a batch of one schema.
        out.reserve(out.len() * batch.len());
    }
    for r in batch {
        push_request(&mut out, r)?;
    }
    Ok(out)
}

/// Decode a JSONL request batch (the worker's `/submit` input).
pub fn decode_requests(text: &str) -> Result<Vec<Request>, WireError> {
    decode_lines(text, request)
}

/// Encode responses as JSONL, one per line in batch order.
pub fn encode_responses(responses: &[Response]) -> String {
    let mut out = String::with_capacity(responses.len() * 32);
    for r in responses {
        out.push_str("{\"stream\":");
        push_u64(&mut out, r.stream);
        out.push_str(",\"prediction\":");
        match r.prediction {
            Some(c) => push_u64(&mut out, u64::from(c)),
            None => out.push_str("null"),
        }
        out.push_str("}\n");
    }
    out
}

/// Decode a JSONL response payload (the router's `/submit` result).
pub fn decode_responses(text: &str) -> Result<Vec<Response>, WireError> {
    decode_lines(text, response)
}

/// Snapshot bytes as lowercase hex (the migration payload — snapshots
/// are binary, JSONL lines are text).
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

/// Decode every non-blank line of `text` with `parse`, numbering errors.
fn decode_lines<T>(
    text: &str,
    parse: impl Fn(&str) -> Result<T, &'static str>,
) -> Result<Vec<T>, WireError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse(line).map_err(|what| WireError::BadLine { line: i + 1, what })?);
    }
    Ok(out)
}

const NOT_STRING: &str = "missing or non-string field";
const NOT_INTEGER: &str = "missing or non-integer field";
const NOT_ARRAY: &str = "missing or non-array field";

/// A value read into a typed slot: the value, or the shape error its
/// field reports when asked for (`"missing or non-integer field"`, …).
/// Shape errors wait until the whole line has parsed, so a syntax error
/// anywhere on the line takes precedence, and a field the request's
/// `op` never asks for can carry anything.
type Slot<T> = Result<T, &'static str>;

/// The slot's value, or its shape error; a key never seen reports the
/// same error as a wrongly shaped one.
fn field<T>(slot: Option<Slot<T>>, missing: &'static str) -> Result<T, &'static str> {
    slot.unwrap_or(Err(missing))
}

fn request(line: &str) -> Result<Request, &'static str> {
    let mut r = Reader::new(line)?;
    let (mut op, mut stream, mut x, mut y, mut k) = (None, None, None, None, None);
    while let Some(key) = r.next_key()? {
        match &*key {
            "op" if op.is_none() => op = Some(r.str_value()?),
            "stream" if stream.is_none() => stream = Some(r.u64_value()?),
            "x" if x.is_none() => x = Some(r.f64_array()?),
            "y" if y.is_none() => y = Some(r.u64_value()?),
            "k" if k.is_none() => k = Some(r.u64_value()?),
            _ => r.skip()?,
        }
    }
    let op = field(op, NOT_STRING)?;
    let stream: StreamId = field(stream, NOT_INTEGER)?;
    Ok(match &*op {
        "predict" => Request::Predict {
            stream,
            x: field(x, NOT_ARRAY)?,
        },
        "observe" => Request::Observe {
            stream,
            x: field(x, NOT_ARRAY)?,
            y: field(y, NOT_INTEGER)? as u32,
        },
        "step" => Request::Step {
            stream,
            x: field(x, NOT_ARRAY)?,
            y: field(y, NOT_INTEGER)? as u32,
        },
        "advance" => Request::Advance {
            stream,
            k: field(k, NOT_INTEGER)? as usize,
        },
        _ => return Err("unknown op"),
    })
}

fn response(line: &str) -> Result<Response, &'static str> {
    let mut r = Reader::new(line)?;
    let (mut stream, mut prediction) = (None, None);
    while let Some(key) = r.next_key()? {
        match &*key {
            "stream" if stream.is_none() => stream = Some(r.u64_value()?),
            "prediction" if prediction.is_none() => prediction = Some(r.opt_u64_value()?),
            _ => r.skip()?,
        }
    }
    Ok(Response {
        stream: field(stream, NOT_INTEGER)?,
        prediction: field(prediction, NOT_INTEGER)?.map(|v| v as u32),
    })
}

/// Walk a one-object JSON body (`{"stream":7}`, `{"epoch":3,"streams":[…]}`;
/// surrounding whitespace ignored) — the protocol's control messages.
/// Every value is syntax-checked; the first occurrence of each of
/// `names` is kept as a [`Field`] to read with the shape the caller
/// expects.
pub(crate) fn fields<'a, const N: usize>(
    text: &'a str,
    names: [&str; N],
) -> Result<[Field<'a>; N], &'static str> {
    let mut r = Reader::new(text.trim())?;
    let mut found = [None; N];
    while let Some(key) = r.next_key()? {
        if let Some(i) = names.iter().position(|&name| name == key) {
            found[i].get_or_insert(r);
        }
        r.skip()?;
    }
    Ok(found.map(Field))
}

/// One field of a [`fields`] walk: a reader parked on its value, or
/// `None` when the key was absent.
#[derive(Clone, Copy)]
pub(crate) struct Field<'a>(Option<Reader<'a>>);

impl<'a> Field<'a> {
    /// An exact unsigned integer (never rounded through `f64`).
    pub(crate) fn u64(self) -> Result<u64, &'static str> {
        self.read(NOT_INTEGER, Reader::u64_value)
    }

    /// A string, borrowed unless it carried escapes.
    pub(crate) fn str(self) -> Result<Cow<'a, str>, &'static str> {
        self.read(NOT_STRING, Reader::str_value)
    }

    /// Exact unsigned-integer array — the stream-id census path. Only
    /// integer tokens that fit `u64` are accepted: an id that arrived
    /// fractional, negative, or too large for `u64` (and therefore
    /// rounded through `f64`) is a typed error, never a silently wrong
    /// stream id handed to the migration protocol.
    pub(crate) fn u64_array(self) -> Result<Vec<u64>, &'static str> {
        self.read(NOT_ARRAY, Reader::u64_array)
    }

    fn read<T>(
        self,
        missing: &'static str,
        value: impl FnOnce(&mut Reader<'a>) -> Result<Slot<T>, &'static str>,
    ) -> Result<T, &'static str> {
        let mut r = self.0.ok_or(missing)?;
        value(&mut r)?
    }
}

/// A forward-only reader over one line holding a single JSON object of
/// the subset this wire speaks: string, number, `null` and array values.
/// The object is walked with [`Reader::next_key`], after which the
/// caller consumes the value with exactly one value read — typed
/// (`u64_value`, `f64_array`, …) or [`Reader::skip`].
///
/// Value reads return `Err` for a syntax error, which ends the line, and
/// `Ok(Err(shape))` for well-formed JSON of the wrong shape (see
/// [`Slot`]).
#[derive(Clone, Copy)]
struct Reader<'a> {
    text: &'a str,
    at: usize,
    /// No key read yet: the next token may not be a `,`.
    first: bool,
}

impl<'a> Reader<'a> {
    /// Open the object that must start `line`.
    fn new(line: &'a str) -> Result<Self, &'static str> {
        let mut r = Reader {
            text: line,
            at: 0,
            first: true,
        };
        r.eat(b'{')?;
        Ok(r)
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    /// Advance past the bytes `keep` accepts.
    fn scan(&mut self, keep: impl Fn(u8) -> bool) {
        let rest = &self.text.as_bytes()[self.at..];
        self.at += rest.iter().position(|&b| !keep(b)).unwrap_or(rest.len());
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.at += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    fn eat(&mut self, b: u8) -> Result<(), &'static str> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err("unexpected character")
        }
    }

    /// The next key, leaving the reader on its value; `None` once the
    /// object closes, which must end the line.
    fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, &'static str> {
        let first = std::mem::replace(&mut self.first, false);
        match self.peek() {
            Some(b'}') => {
                self.at += 1;
                self.skip_ws();
                return if self.at == self.text.len() {
                    Ok(None)
                } else {
                    Err("trailing bytes after object")
                };
            }
            Some(b',') if !first => self.at += 1,
            _ if !first => return Err("expected , or } in object"),
            _ => {}
        }
        let key = self.string()?;
        self.eat(b':')?;
        Ok(Some(key))
    }

    /// Any value, checked and discarded. Iterative: only arrays nest,
    /// so the open ones are a counter, not a stack.
    fn skip(&mut self) -> Result<(), &'static str> {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                None => return Err("unexpected end of line"),
                Some(b'[') => {
                    self.at += 1;
                    depth += 1;
                    if depth > MAX_DEPTH {
                        return Err("nesting too deep");
                    }
                    if self.peek() != Some(b']') {
                        continue;
                    }
                    self.at += 1;
                    depth -= 1;
                }
                Some(b'"') => {
                    self.string()?;
                }
                Some(b'n') => self.null()?,
                Some(_) => {
                    number(self.token()?)?;
                }
            }
            // A value ended: close the arrays it completes, or move on
            // to the next element.
            loop {
                if depth == 0 {
                    return Ok(());
                }
                match self.peek() {
                    Some(b',') => {
                        self.at += 1;
                        break;
                    }
                    Some(b']') => {
                        self.at += 1;
                        depth -= 1;
                    }
                    _ => return Err("expected , or ] in array"),
                }
            }
        }
    }

    fn null(&mut self) -> Result<(), &'static str> {
        if self.text[self.at..].starts_with("null") {
            self.at += 4;
            Ok(())
        } else {
            Err("bad literal")
        }
    }

    /// A string's contents: a borrowed slice, or decoded when it
    /// carries escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, &'static str> {
        self.eat(b'"')?;
        let start = self.at;
        let mut decoded: Option<String> = None;
        loop {
            let run = self.at;
            // '"' and '\\' are ASCII, so every stop is a char boundary.
            self.scan(|b| b != b'"' && b != b'\\');
            let Some(stop) = self.byte() else {
                return Err("unterminated string");
            };
            if stop == b'"' {
                self.at += 1;
                return Ok(match decoded {
                    None => Cow::Borrowed(&self.text[start..self.at - 1]),
                    Some(mut s) => {
                        s.push_str(&self.text[run..self.at - 1]);
                        Cow::Owned(s)
                    }
                });
            }
            let s = decoded.get_or_insert_with(String::new);
            s.push_str(&self.text[run..self.at]);
            self.at += 1;
            s.push(match self.byte().ok_or("unterminated escape")? {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                _ => return Err("unsupported escape"),
            });
            self.at += 1;
        }
    }

    /// The characters of a number token (not yet checked as a number).
    fn token(&mut self) -> Result<&'a str, &'static str> {
        self.skip_ws();
        let start = self.at;
        self.scan(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'));
        if self.at == start {
            return Err("expected a number");
        }
        Ok(&self.text[start..self.at])
    }

    fn str_value(&mut self) -> Result<Slot<Cow<'a, str>>, &'static str> {
        if self.peek() == Some(b'"') {
            Ok(Ok(self.string()?))
        } else {
            self.skip()?;
            Ok(Err(NOT_STRING))
        }
    }

    fn u64_value(&mut self) -> Result<Slot<u64>, &'static str> {
        Ok(self.opt_u64_value()?.and_then(|v| v.ok_or(NOT_INTEGER)))
    }

    /// An exact integer, or `null` as `None`.
    fn opt_u64_value(&mut self) -> Result<Slot<Option<u64>>, &'static str> {
        match self.peek() {
            Some(b'n') => {
                self.null()?;
                Ok(Ok(None))
            }
            Some(b'"' | b'[') | None => {
                self.skip()?;
                Ok(Err(NOT_INTEGER))
            }
            Some(_) => Ok(integer(self.token()?)?.map(Some).ok_or(NOT_INTEGER)),
        }
    }

    fn f64_array(&mut self) -> Result<Slot<Vec<f64>>, &'static str> {
        // A whole-valued f64 rendered without a fraction parses to the
        // same bits whether read as an integer or a float: both round
        // the exact decimal to the nearest f64.
        self.number_array("non-numeric array element", |t| number(t).map(Some))
    }

    fn u64_array(&mut self) -> Result<Slot<Vec<u64>>, &'static str> {
        self.number_array("non-integer array element", integer)
    }

    /// An array of numbers, each token converted by `element` (`None`:
    /// a number of the wrong kind). A non-number element or a wrong
    /// kind makes the slot `Err(bad_element)`.
    fn number_array<T>(
        &mut self,
        bad_element: &'static str,
        element: impl Fn(&str) -> Result<Option<T>, &'static str>,
    ) -> Result<Slot<Vec<T>>, &'static str> {
        if self.peek() != Some(b'[') {
            self.skip()?;
            return Ok(Err(NOT_ARRAY));
        }
        self.at += 1;
        let mut out = Ok(Vec::new());
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(out);
        }
        loop {
            let value = match self.peek() {
                Some(b'"' | b'[' | b'n') | None => self.skip().map(|()| None)?,
                Some(_) => element(self.token()?)?,
            };
            match (&mut out, value) {
                (Ok(items), Some(v)) => items.push(v),
                (Ok(_), None) => out = Err(bad_element),
                (Err(_), _) => {}
            }
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(out);
                }
                _ => return Err("expected , or ] in array"),
            }
        }
    }
}

/// A number token as `f64`.
fn number(token: &str) -> Result<f64, &'static str> {
    token.parse().map_err(|_| "bad number")
}

/// A number token as an exact `u64`: only digit-only tokens that fit
/// (stream ids near `u64::MAX` must not round through `f64`). Any other
/// valid number — fractions, signs, whole values too big for `u64` like
/// 1e300's 301-digit rendering — is `None`.
fn integer(token: &str) -> Result<Option<u64>, &'static str> {
    let exact = token.bytes().try_fold(0u64, |acc, b| {
        let digit = b.checked_sub(b'0').filter(|&d| d < 10)?;
        acc.checked_mul(10)?.checked_add(u64::from(digit))
    });
    match exact {
        Some(v) => Ok(Some(v)),
        None => number(token).map(|_| None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_bit_exactly() {
        let batch = vec![
            Request::Predict {
                stream: 7,
                x: vec![1.0, 0.5],
            },
            Request::Observe {
                stream: 8,
                x: vec![0.1 + 0.2, f64::MIN_POSITIVE],
                y: 1,
            },
            Request::Step {
                stream: u64::from(u32::MAX),
                x: vec![-0.0, 1e300],
                y: 0,
            },
            // u64::MAX exceeds f64's exact range — the id must survive.
            Request::Advance {
                stream: u64::MAX,
                k: 3,
            },
        ];
        let text = encode_requests(&batch).expect("finite batch encodes");
        let back = decode_requests(&text).expect("own encoding decodes");
        assert_eq!(back.len(), batch.len());
        for (a, b) in batch.iter().zip(&back) {
            match (a, b) {
                (
                    Request::Predict { stream: s1, x: x1 },
                    Request::Predict { stream: s2, x: x2 },
                ) => {
                    assert_eq!(s1, s2);
                    assert_eq!(bits(x1), bits(x2));
                }
                (
                    Request::Observe {
                        stream: s1,
                        x: x1,
                        y: y1,
                    },
                    Request::Observe {
                        stream: s2,
                        x: x2,
                        y: y2,
                    },
                )
                | (
                    Request::Step {
                        stream: s1,
                        x: x1,
                        y: y1,
                    },
                    Request::Step {
                        stream: s2,
                        x: x2,
                        y: y2,
                    },
                ) => {
                    assert_eq!((s1, y1), (s2, y2));
                    assert_eq!(bits(x1), bits(x2), "attribute bits diverged");
                }
                (
                    Request::Advance { stream: s1, k: k1 },
                    Request::Advance { stream: s2, k: k2 },
                ) => assert_eq!((s1, k1), (s2, k2)),
                other => panic!("variant mismatch: {other:?}"),
            }
        }
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response {
                stream: 7,
                prediction: Some(1),
            },
            Response {
                stream: 9,
                prediction: None,
            },
        ];
        let text = encode_responses(&responses);
        assert_eq!(
            text,
            "{\"stream\":7,\"prediction\":1}\n{\"stream\":9,\"prediction\":null}\n"
        );
        assert_eq!(decode_responses(&text).unwrap(), responses);
    }

    #[test]
    fn non_finite_attributes_are_rejected_at_encode() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let batch = vec![Request::Predict {
                stream: 1,
                x: vec![bad],
            }];
            assert_eq!(encode_requests(&batch), Err(WireError::NonFiniteAttribute));
        }
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        for (text, what) in [
            (
                "{\"op\":\"predict\",\"stream\":1}",
                "missing or non-array field",
            ),
            ("{\"op\":\"dance\",\"stream\":1,\"x\":[]}", "unknown op"),
            ("{\"stream\":1,\"x\":[1]}", "missing or non-string field"),
            ("not json", "unexpected character"),
            (
                "{\"op\":\"advance\",\"stream\":1,\"k\":2} trailing",
                "trailing bytes after object",
            ),
            // 20 nines overflow u64, fall back to f64 — and a rounded
            // stream id must be rejected, not silently truncated.
            (
                "{\"op\":\"advance\",\"stream\":99999999999999999999,\"k\":1}",
                "missing or non-integer field",
            ),
        ] {
            let err = decode_requests(text).expect_err(text);
            assert_eq!(err, WireError::BadLine { line: 1, what }, "{text}");
        }
        // Line numbers point at the offender.
        let two = "{\"stream\":1,\"prediction\":null}\nbroken\n";
        assert!(matches!(
            decode_responses(two),
            Err(WireError::BadLine { line: 2, .. })
        ));
    }

    #[test]
    fn u64_array_field_keeps_large_ids_exact() {
        // u64::MAX exceeds f64's exact integer range: the census parse
        // must keep it bit-exact, or the rebalancer migrates wrong ids.
        let line = format!("{{\"streams\":[0,7,{}]}}", u64::MAX);
        let [streams] = fields(&line, ["streams"]).unwrap();
        assert_eq!(streams.u64_array().unwrap(), vec![0, 7, u64::MAX]);
        // Fractional, negative, or u64-overflowing (rounded) elements
        // are typed errors, never truncated ids.
        for bad in [
            "{\"streams\":[1.5]}",
            "{\"streams\":[-1]}",
            "{\"streams\":[99999999999999999999]}",
            "{\"streams\":7}",
        ] {
            let [streams] = fields(bad, ["streams"]).unwrap();
            assert!(streams.u64_array().is_err(), "{bad}");
        }
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
