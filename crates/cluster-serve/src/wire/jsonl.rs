//! The JSONL request/response codec of the router's client edge
//! (`POST /submit` on the router): human-readable with `curl`,
//! parseable without a JSON dependency, and bit-exact where it matters.
//! Workers speak the binary frame of [`crate::wire`] instead.
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
//! Lines are written by [`hom_obs::json::Writer`], whose attribute
//! values are the shortest round-trip decimal, so a finite `f64` parses
//! back **bit-identically**. Non-finite attributes are unrepresentable
//! here by design: this codec rejects them at encode time rather than
//! silently shipping `null`.
//!
//! Decoding is one forward pass per line over [`hom_obs::json`]'s pull
//! reader, the tree's one JSON reader: it hands out each key as a
//! borrowed slice and the caller reads the value straight into a typed
//! slot (`x` into its `Vec<f64>`, ids as exact `u64`), so a request
//! costs one allocation — its attribute vector — and a response none.
//! Keys may come in any order, unknown keys are skipped, and the first
//! occurrence of a duplicate key wins. Skipping never recurses: array
//! nesting is a counter, capped at [`MAX_DEPTH`]. An integer outside
//! its field's type (a `y` or `prediction` above `u32::MAX`) is the
//! field's shape error, never a silently narrowed value.
//!
//! Decoding is total: malformed lines are a typed [`WireError`] naming
//! the line, never a panic — a router must survive any bytes a confused
//! client POSTs at it.

use hom_obs::json::{field, Reader, Writer, NOT_ARRAY, NOT_INTEGER, NOT_STRING};
use hom_serve::{Request, Response, StreamId};

use super::WireError;

/// Deepest array nesting the decoder walks through in a value it skips
/// (an unknown key's, or a misshapen element of `x`).
pub use hom_obs::json::MAX_DEPTH;

fn push_request(out: &mut String, r: &Request) -> Result<(), WireError> {
    let (stream, x, y, k) = match *r {
        Request::Predict { stream, ref x } => (stream, Some(x), None, None),
        Request::Observe { stream, ref x, y } | Request::Step { stream, ref x, y } => {
            (stream, Some(x), Some(y), None)
        }
        Request::Advance { stream, k } => (stream, None, None, Some(k)),
    };
    if x.is_some_and(|x| !x.iter().all(|v| v.is_finite())) {
        return Err(WireError::NonFiniteAttribute);
    }
    Writer::compact(out).object(|w| {
        // One literal per arm, so the op is copied as a constant.
        let w = match r {
            Request::Predict { .. } => w.key("op").str("predict"),
            Request::Observe { .. } => w.key("op").str("observe"),
            Request::Step { .. } => w.key("op").str("step"),
            Request::Advance { .. } => w.key("op").str("advance"),
        };
        w.key("stream").u64(stream);
        if let Some(x) = x {
            w.key("x").f64s(x);
        }
        if let Some(y) = y {
            w.key("y").u64(y.into());
        }
        if let Some(k) = k {
            w.key("k").u64(k as u64);
        }
    });
    out.push('\n');
    Ok(())
}

/// Encode a request batch as JSONL (one request per line, batch order).
pub fn encode_requests(batch: &[Request]) -> Result<String, WireError> {
    let mut batch = batch.iter();
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

/// Decode a JSONL request batch (the router's `/submit` input).
pub fn decode_requests(text: &str) -> Result<Vec<Request>, WireError> {
    decode_lines(text, request)
}

/// Encode responses as JSONL, one per line in batch order.
pub fn encode_responses(responses: &[Response]) -> String {
    let mut out = String::with_capacity(responses.len() * 32);
    for r in responses {
        Writer::compact(&mut out).object(|w| {
            w.key("stream").u64(r.stream).key("prediction");
            match r.prediction {
                Some(c) => w.u64(u64::from(c)),
                None => w.null(),
            };
        });
        out.push('\n');
    }
    out
}

/// Decode a JSONL response payload (what the router's `/submit`
/// answers).
pub fn decode_responses(text: &str) -> Result<Vec<Response>, WireError> {
    decode_lines(text, response)
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

/// An exact `u64` field narrowed to its type, or the field's shape error.
fn exact<T: TryFrom<u64>>(v: u64) -> Result<T, &'static str> {
    T::try_from(v).map_err(|_| NOT_INTEGER)
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
            y: exact(field(y, NOT_INTEGER)?)?,
        },
        "step" => Request::Step {
            stream,
            x: field(x, NOT_ARRAY)?,
            y: exact(field(y, NOT_INTEGER)?)?,
        },
        "advance" => Request::Advance {
            stream,
            k: exact(field(k, NOT_INTEGER)?)?,
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
        prediction: field(prediction, NOT_INTEGER)?.map(exact).transpose()?,
    })
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
}
