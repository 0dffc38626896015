//! The JSONL trace format: one event per line, written by
//! [`crate::JsonlSink`] and read back by `examples/trace_report.rs`.
//!
//! Each line is a flat JSON object whose `"ev"` field names the event
//! kind (`span_start`, `span_end`, `count`, `gauge`, `series`, `hist`);
//! the remaining fields mirror [`Event`]'s variants. Histograms are
//! serialized sparsely as `"buckets": [[bucket, count], …]` (non-zero
//! buckets only) plus exact `count` / `sum` / `min` / `max`.
//!
//! [`to_line`] writes a line with [`crate::json::Writer`] and
//! [`parse_line`] reads one in a single pass with
//! [`crate::json::Reader`], the tree's one JSON writer and reader. The
//! parse is strict enough to catch format drift in CI, tolerant of
//! unknown fields so the format can grow, and total on hostile bytes —
//! deep nesting, overflowing integers and long strings are a typed
//! [`ParseError`] or a linear scan, never a panic.

use std::borrow::Cow;

use crate::event::{Event, OwnedEvent};
use crate::hist::Histogram;
use crate::json::{field, Reader, Slot, Writer, NOT_ARRAY, NOT_INTEGER, NOT_NUMBER, NOT_STRING};

/// Serialize one event as a single JSON line (no trailing newline).
pub fn to_line(event: &Event<'_>) -> String {
    let mut s = String::with_capacity(96);
    Writer::compact(&mut s).object(|w| match *event {
        Event::SpanStart {
            id,
            parent,
            trace,
            name,
            t_us,
        } => {
            w.key("ev").str("span_start");
            span_ids(w, id, parent, trace);
            w.key("name").str(name).key("t_us").u64(t_us);
        }
        Event::SpanEnd {
            id,
            parent,
            trace,
            name,
            t_us,
            dur_us,
        } => {
            w.key("ev").str("span_end");
            span_ids(w, id, parent, trace);
            w.key("name").str(name).key("t_us").u64(t_us);
            w.key("dur_us").u64(dur_us);
        }
        Event::Count {
            span,
            name,
            n,
            t_us,
        } => {
            w.key("ev").str("count").key("span").u64(span);
            w.key("name")
                .str(name)
                .key("n")
                .u64(n)
                .key("t_us")
                .u64(t_us);
        }
        Event::Gauge {
            span,
            name,
            value,
            t_us,
        } => {
            w.key("ev").str("gauge").key("span").u64(span);
            w.key("name").str(name).key("value").f64(value);
            w.key("t_us").u64(t_us);
        }
        Event::Series {
            span,
            name,
            index,
            values,
            t_us,
        } => {
            w.key("ev").str("series").key("span").u64(span);
            w.key("name").str(name).key("index").u64(index);
            w.key("values").f64s(values).key("t_us").u64(t_us);
        }
        Event::Hist {
            span,
            name,
            hist,
            t_us,
        } => {
            w.key("ev").str("hist").key("span").u64(span);
            w.key("name").str(name).key("count").u64(hist.count());
            w.key("sum").f64(hist.sum());
            if hist.count() > 0 {
                w.key("min").f64(hist.min()).key("max").f64(hist.max());
            }
            w.key("buckets").array(|w| {
                for (b, &c) in hist.bucket_counts().iter().enumerate() {
                    if c > 0 {
                        w.u64s([b as u64, c]);
                    }
                }
            });
            w.key("t_us").u64(t_us);
        }
    });
    s
}

/// A span's `id` and `parent`, and its `trace` when it has one:
/// untraced spans (the common case) omit the field, so old traces and
/// new ones stay byte-identical.
fn span_ids(w: &mut Writer<'_>, id: u64, parent: u64, trace: u64) {
    w.key("id").u64(id).key("parent").u64(parent);
    if trace != 0 {
        w.key("trace").u64(trace);
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

/// Parse one trace line back into an [`OwnedEvent`].
///
/// One forward pass over the line with [`crate::json::Reader`]: each
/// key the format defines is read straight into a typed slot, and the
/// event is assembled from the slots once the line has parsed. Unknown
/// fields are skipped (forward compatibility); a missing required
/// field, a malformed value or an unknown `"ev"` kind is an error —
/// `trace_report` runs in CI precisely to catch such drift.
pub fn parse_line(line: &str) -> Result<OwnedEvent, ParseError> {
    let mut r = Reader::new(line).map_err(|what| ParseError {
        reason: what.to_string(),
    })?;
    let mut slots = Slots::default();
    slots.fill(&mut r).map_err(|what| ParseError {
        reason: format!("{what} at byte {}", r.offset()),
    })?;
    slots.event().map_err(|reason| ParseError { reason })
}

/// One typed slot per key of the format; the first occurrence of a key
/// wins.
#[derive(Default)]
struct Slots<'a> {
    ev: Option<Slot<Cow<'a, str>>>,
    name: Option<Slot<Cow<'a, str>>>,
    id: Option<Slot<u64>>,
    parent: Option<Slot<u64>>,
    trace: Option<Slot<u64>>,
    span: Option<Slot<u64>>,
    t_us: Option<Slot<u64>>,
    dur_us: Option<Slot<u64>>,
    n: Option<Slot<u64>>,
    index: Option<Slot<u64>>,
    count: Option<Slot<u64>>,
    value: Option<Slot<f64>>,
    sum: Option<Slot<f64>>,
    min: Option<Slot<f64>>,
    max: Option<Slot<f64>>,
    values: Option<Slot<Vec<f64>>>,
    buckets: Option<Slot<Vec<(usize, u64)>>>,
}

impl<'a> Slots<'a> {
    fn fill(&mut self, r: &mut Reader<'a>) -> Result<(), &'static str> {
        while let Some(key) = r.next_key()? {
            match &*key {
                "ev" if self.ev.is_none() => self.ev = Some(r.str_value()?),
                "name" if self.name.is_none() => self.name = Some(r.str_value()?),
                "id" if self.id.is_none() => self.id = Some(r.u64_value()?),
                "parent" if self.parent.is_none() => self.parent = Some(r.u64_value()?),
                "trace" if self.trace.is_none() => self.trace = Some(r.u64_value()?),
                "span" if self.span.is_none() => self.span = Some(r.u64_value()?),
                "t_us" if self.t_us.is_none() => self.t_us = Some(r.u64_value()?),
                "dur_us" if self.dur_us.is_none() => self.dur_us = Some(r.u64_value()?),
                "n" if self.n.is_none() => self.n = Some(r.u64_value()?),
                "index" if self.index.is_none() => self.index = Some(r.u64_value()?),
                "count" if self.count.is_none() => self.count = Some(r.u64_value()?),
                "value" if self.value.is_none() => self.value = Some(trace_f64(r)?),
                "sum" if self.sum.is_none() => self.sum = Some(trace_f64(r)?),
                "min" if self.min.is_none() => self.min = Some(trace_f64(r)?),
                "max" if self.max.is_none() => self.max = Some(trace_f64(r)?),
                "values" if self.values.is_none() => self.values = Some(r.array(trace_f64)?),
                "buckets" if self.buckets.is_none() => self.buckets = Some(r.array(bucket)?),
                _ => r.skip()?,
            }
        }
        Ok(())
    }

    fn event(self) -> Result<OwnedEvent, String> {
        let name = move || named(self.name, NOT_STRING, "name").map(Cow::into_owned);
        let int = |slot, key| named(slot, NOT_INTEGER, key);
        let ev = named(self.ev, NOT_STRING, "ev")?;
        // Optional on the wire (omitted when 0 — pre-tracing lines have
        // no trace field at all), so default rather than error.
        let trace = int(self.trace.or(Some(Ok(0))), "trace")?;
        Ok(match &*ev {
            "span_start" => OwnedEvent::SpanStart {
                id: int(self.id, "id")?,
                parent: int(self.parent, "parent")?,
                trace,
                name: name()?,
                t_us: int(self.t_us, "t_us")?,
            },
            "span_end" => OwnedEvent::SpanEnd {
                id: int(self.id, "id")?,
                parent: int(self.parent, "parent")?,
                trace,
                name: name()?,
                t_us: int(self.t_us, "t_us")?,
                dur_us: int(self.dur_us, "dur_us")?,
            },
            "count" => OwnedEvent::Count {
                span: int(self.span, "span")?,
                name: name()?,
                n: int(self.n, "n")?,
                t_us: int(self.t_us, "t_us")?,
            },
            "gauge" => OwnedEvent::Gauge {
                span: int(self.span, "span")?,
                name: name()?,
                value: named(self.value, NOT_NUMBER, "value")?,
                t_us: int(self.t_us, "t_us")?,
            },
            "series" => OwnedEvent::Series {
                span: int(self.span, "span")?,
                name: name()?,
                index: int(self.index, "index")?,
                values: named(self.values, NOT_ARRAY, "values")?,
                t_us: int(self.t_us, "t_us")?,
            },
            "hist" => {
                let buckets = named(self.buckets, NOT_ARRAY, "buckets")?;
                let count = int(self.count, "count")?;
                // Checked, so hostile counts cannot overflow the total.
                let total = buckets.iter().try_fold(0u64, |t, &(_, c)| t.checked_add(c));
                if total != Some(count) {
                    return Err(format!(
                        "histogram count {count} disagrees with bucket total {total:?}"
                    ));
                }
                let hist = Histogram::from_parts(
                    &buckets,
                    named(self.sum, NOT_NUMBER, "sum")?,
                    named(self.min.or(Some(Ok(f64::INFINITY))), NOT_NUMBER, "min")?,
                    named(self.max.or(Some(Ok(f64::NEG_INFINITY))), NOT_NUMBER, "max")?,
                );
                OwnedEvent::Hist {
                    span: int(self.span, "span")?,
                    name: name()?,
                    hist: Box::new(hist),
                    t_us: int(self.t_us, "t_us")?,
                }
            }
            other => return Err(format!("unknown event kind {other:?}")),
        })
    }
}

/// A required slot's value, or its error naming the key.
fn named<T>(slot: Option<Slot<T>>, missing: &'static str, key: &str) -> Result<T, String> {
    field(slot, missing).map_err(|what| format!("{what} {key:?}"))
}

/// A trace float: a number, or `null` — what [`Writer::f64`] writes for
/// a non-finite value — as 0.0.
fn trace_f64(r: &mut Reader<'_>) -> Result<Slot<f64>, &'static str> {
    Ok(r.opt_f64_value()?.map(|v| v.unwrap_or(0.0)))
}

/// One sparse histogram entry: a `[bucket, count]` pair.
fn bucket(r: &mut Reader<'_>) -> Result<Slot<(usize, u64)>, &'static str> {
    Ok(r.u64_array()?.and_then(|pair| match pair[..] {
        [b, c] => Ok((usize::try_from(b).unwrap_or(usize::MAX), c)),
        _ => Err("bucket entry is not a [bucket, count] pair"),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::MAX_DEPTH;

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
        for name in ["we\"ird\\na\nme", "a\u{1}b"] {
            let ev = OwnedEvent::Count {
                span: 0,
                name: name.into(),
                n: 1,
                t_us: 0,
            };
            let line = to_line(&ev.as_event());
            assert_eq!(parse_line(&line).unwrap(), ev);
        }
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
        // 20 nines overflow u64: an error, not a value saturated to
        // u64::MAX.
        assert!(parse_line(
            "{\"ev\":\"count\",\"span\":0,\"name\":\"x\",\"n\":99999999999999999999,\"t_us\":0}"
        )
        .is_err());
    }

    /// Skipped values nest at most `MAX_DEPTH` arrays deep, and a line
    /// of a million `[` is an error, not a stack overflow.
    #[test]
    fn deep_nesting_is_bounded() {
        let nested = |depth: usize| {
            format!(
                "{{\"ev\":\"count\",\"span\":0,\"name\":\"x\",\"n\":1,\"t_us\":0,\"junk\":{}{}}}",
                "[".repeat(depth),
                "]".repeat(depth)
            )
        };
        assert!(parse_line(&nested(MAX_DEPTH)).is_ok());
        assert!(parse_line(&nested(MAX_DEPTH + 1)).is_err());
        let hostile = format!("{{\"ev\":\"count\",\"junk\":{}", "[".repeat(1_000_000));
        assert!(parse_line(&hostile).is_err());
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
