//! The JSONL trace format: one event per line, written by
//! [`crate::JsonlSink`] and read back by `examples/trace_report.rs`.
//!
//! Each line is a flat JSON object whose `"ev"` field names the event
//! kind (`span_start`, `span_end`, `count`, `gauge`, `series`, `hist`);
//! the remaining fields mirror [`Event`]'s variants. Histograms are
//! serialized sparsely as `"buckets": [[bucket, count], …]` (non-zero
//! buckets only) plus exact `count` / `sum` / `min` / `max`.
//!
//! [`parse_line`] is a self-contained JSON reader (the workspace's
//! `serde_json` shim only writes), strict enough to catch format drift in
//! CI but tolerant of unknown fields, so the format can grow.

use std::fmt::Write as _;

use crate::event::{Event, OwnedEvent};
use crate::hist::Histogram;

/// Serialize one event as a single JSON line (no trailing newline).
pub fn to_line(event: &Event<'_>) -> String {
    let mut s = String::with_capacity(96);
    match *event {
        Event::SpanStart {
            id,
            parent,
            trace,
            name,
            t_us,
        } => {
            s.push_str("{\"ev\":\"span_start\",\"id\":");
            let _ = write!(s, "{id},\"parent\":{parent}");
            // Untraced spans (the common case) omit the field — old
            // traces and new ones stay byte-identical.
            if trace != 0 {
                let _ = write!(s, ",\"trace\":{trace}");
            }
            s.push_str(",\"name\":");
            push_json_str(&mut s, name);
            let _ = write!(s, ",\"t_us\":{t_us}}}");
        }
        Event::SpanEnd {
            id,
            parent,
            trace,
            name,
            t_us,
            dur_us,
        } => {
            s.push_str("{\"ev\":\"span_end\",\"id\":");
            let _ = write!(s, "{id},\"parent\":{parent}");
            if trace != 0 {
                let _ = write!(s, ",\"trace\":{trace}");
            }
            s.push_str(",\"name\":");
            push_json_str(&mut s, name);
            let _ = write!(s, ",\"t_us\":{t_us},\"dur_us\":{dur_us}}}");
        }
        Event::Count {
            span,
            name,
            n,
            t_us,
        } => {
            s.push_str("{\"ev\":\"count\",\"span\":");
            let _ = write!(s, "{span},\"name\":");
            push_json_str(&mut s, name);
            let _ = write!(s, ",\"n\":{n},\"t_us\":{t_us}}}");
        }
        Event::Gauge {
            span,
            name,
            value,
            t_us,
        } => {
            s.push_str("{\"ev\":\"gauge\",\"span\":");
            let _ = write!(s, "{span},\"name\":");
            push_json_str(&mut s, name);
            s.push_str(",\"value\":");
            push_json_f64(&mut s, value);
            let _ = write!(s, ",\"t_us\":{t_us}}}");
        }
        Event::Series {
            span,
            name,
            index,
            values,
            t_us,
        } => {
            s.push_str("{\"ev\":\"series\",\"span\":");
            let _ = write!(s, "{span},\"name\":");
            push_json_str(&mut s, name);
            let _ = write!(s, ",\"index\":{index},\"values\":[");
            for (i, &v) in values.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_json_f64(&mut s, v);
            }
            let _ = write!(s, "],\"t_us\":{t_us}}}");
        }
        Event::Hist {
            span,
            name,
            hist,
            t_us,
        } => {
            s.push_str("{\"ev\":\"hist\",\"span\":");
            let _ = write!(s, "{span},\"name\":");
            push_json_str(&mut s, name);
            let _ = write!(s, ",\"count\":{},\"sum\":", hist.count());
            push_json_f64(&mut s, hist.sum());
            if hist.count() > 0 {
                s.push_str(",\"min\":");
                push_json_f64(&mut s, hist.min());
                s.push_str(",\"max\":");
                push_json_f64(&mut s, hist.max());
            }
            s.push_str(",\"buckets\":[");
            let mut first = true;
            for (b, &c) in hist.bucket_counts().iter().enumerate() {
                if c > 0 {
                    if !first {
                        s.push(',');
                    }
                    first = false;
                    let _ = write!(s, "[{b},{c}]");
                }
            }
            let _ = write!(s, "],\"t_us\":{t_us}}}");
        }
    }
    s
}

/// JSON string escaping (control characters, quote, backslash).
/// Append `s` to `out` as a JSON string literal (quoted and escaped) —
/// shared with the hand-rolled JSON writers of the introspection API.
pub fn push_str_escaped(out: &mut String, s: &str) {
    push_json_str(out, s);
}

/// Append `v` to `out` as a JSON number: Rust's shortest round-trip
/// decimal (so an `f64` survives a serialize → parse cycle bit-for-bit);
/// non-finite values become `null`.
pub fn push_f64(out: &mut String, v: f64) {
    push_json_f64(out, v);
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `f64` as JSON: shortest round-trip decimal, the exact bytes `Display`
/// writes (by a faster renderer, see `crate::dtoa`); non-finite values
/// become `null` (JSON has no Infinity/NaN) and parse back as 0.
fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        crate::dtoa::push_display(out, v);
    } else {
        out.push_str("null");
    }
}

/// Why a line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable reason, with a byte offset where applicable.
    pub reason: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(reason: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        reason: reason.into(),
    })
}

/// A parsed JSON value (the subset the trace format uses).
///
/// Non-negative integers keep their exact `u64` value in [`Json::Int`]
/// rather than passing through `f64`: trace ids are FNV-1a hashes near
/// 2⁶³, where `f64` has a 1024-ulp grid — rounding one would silently
/// re-key every span of a stitched trace.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(n) => Some(n),
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 => Some(n as u64),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(n) => Some(n),
            Json::Int(n) => Some(n as f64),
            Json::Null => Some(0.0),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        // Plain non-negative integers stay exact (see [`Json::Int`]);
        // anything with a sign, fraction or exponent is a float.
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Int(n));
        }
        match text.parse::<f64>() {
            Ok(n) => Ok(Json::Num(n)),
            Err(_) => err(format!("bad number {text:?} at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex =
                                self.bytes.get(self.pos + 1..self.pos + 5).ok_or_else(|| {
                                    ParseError {
                                        reason: "truncated \\u escape".into(),
                                    }
                                })?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| ParseError {
                                    reason: "bad \\u escape".into(),
                                })?,
                                16,
                            )
                            .map_err(|_| ParseError {
                                reason: "bad \\u escape".into(),
                            })?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| ParseError {
                            reason: "invalid UTF-8 in string".into(),
                        })?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Parse one trace line back into an [`OwnedEvent`].
///
/// Unknown object fields are ignored (forward compatibility); a missing
/// required field, a malformed value or an unknown `"ev"` kind is an
/// error — `trace_report` runs in CI precisely to catch such drift.
pub fn parse_line(line: &str) -> Result<OwnedEvent, ParseError> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return err(format!("trailing garbage at byte {}", p.pos));
    }
    let Json::Obj(fields) = v else {
        return err("event line is not a JSON object");
    };
    let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let get_u64 = |key: &str| -> Result<u64, ParseError> {
        get(key).and_then(Json::as_u64).ok_or_else(|| ParseError {
            reason: format!("missing or non-integer field {key:?}"),
        })
    };
    let get_f64 = |key: &str| -> Result<f64, ParseError> {
        get(key).and_then(Json::as_f64).ok_or_else(|| ParseError {
            reason: format!("missing or non-numeric field {key:?}"),
        })
    };
    let get_str = |key: &str| -> Result<String, ParseError> {
        match get(key) {
            Some(Json::Str(s)) => Ok(s.clone()),
            _ => err(format!("missing or non-string field {key:?}")),
        }
    };

    let ev = get_str("ev")?;
    // Optional on the wire (omitted when 0 — pre-tracing lines have no
    // trace field at all), so default rather than error.
    let trace = get("trace").and_then(Json::as_u64).unwrap_or(0);
    match ev.as_str() {
        "span_start" => Ok(OwnedEvent::SpanStart {
            id: get_u64("id")?,
            parent: get_u64("parent")?,
            trace,
            name: get_str("name")?,
            t_us: get_u64("t_us")?,
        }),
        "span_end" => Ok(OwnedEvent::SpanEnd {
            id: get_u64("id")?,
            parent: get_u64("parent")?,
            trace,
            name: get_str("name")?,
            t_us: get_u64("t_us")?,
            dur_us: get_u64("dur_us")?,
        }),
        "count" => Ok(OwnedEvent::Count {
            span: get_u64("span")?,
            name: get_str("name")?,
            n: get_u64("n")?,
            t_us: get_u64("t_us")?,
        }),
        "gauge" => Ok(OwnedEvent::Gauge {
            span: get_u64("span")?,
            name: get_str("name")?,
            value: get_f64("value")?,
            t_us: get_u64("t_us")?,
        }),
        "series" => {
            let values = match get("values") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|v| {
                        v.as_f64().ok_or_else(|| ParseError {
                            reason: "non-numeric series value".into(),
                        })
                    })
                    .collect::<Result<Vec<f64>, _>>()?,
                _ => return err("missing or non-array field \"values\""),
            };
            Ok(OwnedEvent::Series {
                span: get_u64("span")?,
                name: get_str("name")?,
                index: get_u64("index")?,
                values,
                t_us: get_u64("t_us")?,
            })
        }
        "hist" => {
            let buckets = match get("buckets") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|pair| match pair {
                        Json::Arr(bc) if bc.len() == 2 => match (bc[0].as_u64(), bc[1].as_u64()) {
                            (Some(b), Some(c)) => Ok((b as usize, c)),
                            _ => err("non-integer bucket entry"),
                        },
                        _ => err("bucket entry is not a [bucket, count] pair"),
                    })
                    .collect::<Result<Vec<(usize, u64)>, _>>()?,
                _ => return err("missing or non-array field \"buckets\""),
            };
            let count = get_u64("count")?;
            let hist = Histogram::from_parts(
                &buckets,
                get_f64("sum")?,
                get_f64("min").unwrap_or(f64::INFINITY),
                get_f64("max").unwrap_or(f64::NEG_INFINITY),
            );
            if hist.count() != count {
                return err(format!(
                    "histogram count {count} disagrees with bucket total {}",
                    hist.count()
                ));
            }
            Ok(OwnedEvent::Hist {
                span: get_u64("span")?,
                name: get_str("name")?,
                hist: Box::new(hist),
                t_us: get_u64("t_us")?,
            })
        }
        other => err(format!("unknown event kind {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every event kind survives a write → parse round trip.
    #[test]
    fn round_trips_every_kind() {
        let mut h = Histogram::new();
        for v in [1.0, 3.0, 1000.0, 0.2] {
            h.record(v);
        }
        let events = [
            OwnedEvent::SpanStart {
                id: 3,
                parent: 1,
                trace: 0,
                name: "step1".into(),
                t_us: 10,
            },
            OwnedEvent::SpanEnd {
                id: 3,
                parent: 1,
                trace: 0,
                name: "step1".into(),
                t_us: 99,
                dur_us: 89,
            },
            OwnedEvent::SpanStart {
                id: 4,
                parent: 3,
                trace: u64::MAX,
                name: "cluster.forward".into(),
                t_us: 11,
            },
            OwnedEvent::SpanEnd {
                id: 4,
                parent: 3,
                trace: u64::MAX,
                name: "cluster.forward".into(),
                t_us: 12,
                dur_us: 1,
            },
            OwnedEvent::Count {
                span: 3,
                name: "step1.mergers".into(),
                n: 42,
                t_us: 50,
            },
            OwnedEvent::Gauge {
                span: 0,
                name: "step1.q".into(),
                value: -1.25,
                t_us: 51,
            },
            OwnedEvent::Series {
                span: 0,
                name: "online.posterior".into(),
                index: 7,
                values: vec![0.25, 0.5, 0.25],
                t_us: 52,
            },
            OwnedEvent::Hist {
                span: 0,
                name: "online.predict_ns".into(),
                hist: Box::new(h),
                t_us: 53,
            },
        ];
        for ev in &events {
            let line = to_line(&ev.as_event());
            let back = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(&back, ev, "line: {line}");
        }
    }

    #[test]
    fn escapes_names() {
        let ev = OwnedEvent::Count {
            span: 0,
            name: "we\"ird\\na\nme".into(),
            n: 1,
            t_us: 0,
        };
        let line = to_line(&ev.as_event());
        assert_eq!(parse_line(&line).unwrap(), ev);
    }

    #[test]
    fn empty_histogram_round_trips() {
        let ev = OwnedEvent::Hist {
            span: 0,
            name: "h".into(),
            hist: Box::new(Histogram::new()),
            t_us: 0,
        };
        let back = parse_line(&to_line(&ev.as_event())).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("").is_err());
        assert!(parse_line("{").is_err());
        assert!(parse_line("[1,2]").is_err());
        assert!(parse_line("{\"ev\":\"nope\"}").is_err());
        assert!(parse_line("{\"ev\":\"count\",\"name\":\"x\"}").is_err());
        assert!(parse_line(
            "{\"ev\":\"count\",\"span\":0,\"name\":\"x\",\"n\":1,\"t_us\":0} extra"
        )
        .is_err());
    }

    #[test]
    fn untraced_spans_serialize_without_a_trace_field() {
        let ev = OwnedEvent::SpanStart {
            id: 1,
            parent: 0,
            trace: 0,
            name: "s".into(),
            t_us: 0,
        };
        let line = to_line(&ev.as_event());
        assert!(!line.contains("trace"), "{line}");
        // A pre-tracing line (no trace field) parses to trace 0.
        assert_eq!(parse_line(&line).unwrap(), ev);
    }

    /// Trace ids are FNV-1a hashes near 2⁶³ — far beyond `f64`'s exact
    /// integer range (the ulp up there is 1024). They must survive the
    /// round trip bit-for-bit: a trace id rounded to the nearest ulp
    /// would silently re-key every span of a stitched trace.
    #[test]
    fn u64_fields_beyond_f64_precision_round_trip_exactly() {
        // Not a multiple of 1024, so an f64 detour would corrupt it.
        let trace = 7_823_268_718_516_767_775_u64;
        let ev = OwnedEvent::SpanEnd {
            id: u64::MAX - 1,
            parent: (1 << 53) + 1,
            trace,
            name: "cluster.forward".into(),
            t_us: 1,
            dur_us: 1,
        };
        let line = to_line(&ev.as_event());
        assert_eq!(parse_line(&line).unwrap(), ev, "line: {line}");
    }

    #[test]
    fn tolerates_unknown_fields() {
        let line =
            "{\"ev\":\"gauge\",\"span\":0,\"name\":\"g\",\"value\":1.5,\"t_us\":9,\"future\":true}";
        assert!(matches!(
            parse_line(line).unwrap(),
            OwnedEvent::Gauge { value, .. } if value == 1.5
        ));
    }
}
