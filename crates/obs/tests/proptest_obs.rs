//! Property tests of the observability primitives.
//!
//! The load-bearing property is histogram mergeability: the parallel
//! build records into worker-local histograms and merges them at the
//! end, so a merge must be indistinguishable from having recorded every
//! sample into a single histogram.
//!
//! The trace-line battery holds the JSONL format to a bit-exact round
//! trip for every event kind, and [`jsonl::parse_line`] to a typed
//! answer — never a panic — on every truncation and single bit flip of
//! a valid line.
//!
//! The JSON battery holds the compact [`Writer`] to a round trip
//! through [`Reader`]: every flat object in the reader's subset
//! reads back to the values written, floats bit for bit.
//!
//! The `X-HOM-Trace` battery holds the trace-context parser to its
//! canonical form: on any input it must not panic, and whatever it
//! accepts must render back to exactly the input (so there is one
//! spelling of every trace id, in headers and in `/trace/<id>` URLs).

use hom_obs::json::{Reader, Writer};
use hom_obs::{jsonl, parse_trace_id, Histogram, OwnedEvent, TraceContext};
use proptest::collection::vec;
use proptest::prelude::*;

/// Characters the string properties draw from: every hex digit in both
/// cases, the separator, the signs and whitespace `from_str_radix` and
/// `trim` react to, and a multi-byte character.
const ALPHABET: &[char] = &[
    '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', 'a', 'b', 'c', 'd', 'e', 'f', 'A', 'B', 'C',
    'D', 'E', 'F', 'g', 'x', '-', '+', ' ', '\t', '\n', '/', 'é',
];

/// Characters event names draw from: every one the writer escapes
/// (quote, backslash, a control character, newline) beside plain and
/// multi-byte ones.
const NAME_CHARS: &[char] = &['a', 'z', '.', '_', '/', '"', '\\', '\u{1}', '\n', 'é'];

fn name() -> impl Strategy<Value = String> {
    vec(0usize..NAME_CHARS.len(), 0..12)
        .prop_map(|picks| picks.iter().map(|&i| NAME_CHARS[i]).collect())
}

/// Integer fields, weighted towards the ones `f64` cannot hold exactly.
fn int() -> impl Strategy<Value = u64> {
    (0usize..4, any::<u64>()).prop_map(|(pick, raw)| [0, (1 << 53) + 1, u64::MAX, raw][pick])
}

/// Finite floats, weighted towards the renderings that are easy to get
/// wrong: negative zero, subnormals, huge and whole values.
fn float() -> impl Strategy<Value = f64> {
    (0usize..6, any::<u64>()).prop_map(|(pick, raw)| match pick {
        0 => -0.0,
        1 => f64::from_bits(raw % (1 << 52)),
        2 => 1e300,
        3 => (raw % 1_000_000) as f64,
        _ => Some(f64::from_bits(raw))
            .filter(|v| v.is_finite())
            .unwrap_or(0.5),
    })
}

/// An event of any kind; span trace ids range up to `u64::MAX`.
fn event() -> impl Strategy<Value = OwnedEvent> {
    (
        0u8..6,
        (int(), int(), int()),
        name(),
        (int(), int()),
        vec(float(), 0..5),
    )
        .prop_map(
            |(kind, (a, b, trace), name, (t_us, n), values)| match kind {
                0 => OwnedEvent::SpanStart {
                    id: a,
                    parent: b,
                    trace,
                    name,
                    t_us,
                },
                1 => OwnedEvent::SpanEnd {
                    id: a,
                    parent: b,
                    trace,
                    name,
                    t_us,
                    dur_us: n,
                },
                2 => OwnedEvent::Count {
                    span: a,
                    name,
                    n,
                    t_us,
                },
                3 => OwnedEvent::Gauge {
                    span: a,
                    name,
                    value: values.first().copied().unwrap_or(-0.0),
                    t_us,
                },
                4 => OwnedEvent::Series {
                    span: a,
                    name,
                    index: n,
                    values,
                    t_us,
                },
                _ => {
                    let mut hist = Histogram::new();
                    for v in values {
                        hist.record(v.abs() % 1e12);
                    }
                    OwnedEvent::Hist {
                        span: a,
                        name,
                        hist: Box::new(hist),
                        t_us,
                    }
                }
            },
        )
}

/// A value of [`Reader`]'s subset.
#[derive(Debug, Clone)]
enum Value {
    Str(String),
    U64(u64),
    F64(f64),
    Bool(bool),
    Null,
    U64s(Vec<u64>),
    F64s(Vec<f64>),
    U64Rows(Vec<Vec<u64>>),
    F64Rows(Vec<Vec<f64>>),
}

/// An exact integer from raw bits, weighted towards the ones `f64`
/// cannot hold.
fn exact(raw: u64) -> u64 {
    match raw % 4 {
        0 => 0,
        1 => (1 << 53) + 1,
        2 => u64::MAX,
        _ => raw,
    }
}

/// A finite float from raw bits, weighted towards the extremes.
fn finite(raw: u64) -> f64 {
    match raw % 8 {
        0 => -0.0,
        1 => f64::from_bits(raw >> 12),
        2 => f64::MIN,
        3 => f64::MAX,
        4 => f64::MIN_POSITIVE,
        5 => (raw >> 20) as f64,
        _ => Some(f64::from_bits(raw.rotate_left(17)))
            .filter(|v| v.is_finite())
            .unwrap_or(0.5),
    }
}

/// A string from raw draws: escaped characters, any ASCII (controls
/// included) and any char at all.
fn text(raws: &[u64]) -> String {
    const ESCAPED: [char; 8] = ['"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}'];
    raws.iter()
        .map(|&raw| {
            let pick = (raw >> 8) as u32;
            match raw % 4 {
                0 => ESCAPED[pick as usize % ESCAPED.len()],
                1 => char::from_u32(pick % 0x80).unwrap_or('?'),
                _ => char::from_u32(pick % 0x11_0000).unwrap_or('\u{fffd}'),
            }
        })
        .collect()
}

fn value() -> impl Strategy<Value = Value> {
    (
        0u8..9,
        vec(any::<u64>(), 0..8),
        vec(vec(any::<u64>(), 0..4), 0..4),
    )
        .prop_map(|(kind, raws, rows)| {
            let first = raws.first().copied().unwrap_or(0);
            match kind {
                0 => Value::Str(text(&raws)),
                1 => Value::U64(exact(first)),
                2 => Value::F64(finite(first)),
                3 => Value::Bool(first % 2 == 0),
                4 => Value::Null,
                5 => Value::U64s(raws.iter().map(|&r| exact(r)).collect()),
                6 => Value::F64s(raws.iter().map(|&r| finite(r)).collect()),
                7 => Value::U64Rows(
                    rows.iter()
                        .map(|row| row.iter().map(|&r| exact(r)).collect())
                        .collect(),
                ),
                _ => Value::F64Rows(
                    rows.iter()
                        .map(|row| row.iter().map(|&r| finite(r)).collect())
                        .collect(),
                ),
            }
        })
}

/// A flat object: keys (escaped characters included) and their values.
fn object() -> impl Strategy<Value = Vec<(String, Value)>> {
    vec((vec(any::<u64>(), 0..3), value()), 0..8).prop_map(|fields| {
        fields
            .into_iter()
            .enumerate()
            .map(|(i, (raws, v))| (format!("k{i}{}", text(&raws)), v))
            .collect()
    })
}

fn write_value(w: &mut Writer<'_>, v: &Value) {
    match v {
        Value::Str(s) => w.str(s),
        Value::U64(n) => w.u64(*n),
        Value::F64(x) => w.f64(*x),
        Value::Bool(b) => w.bool(*b),
        Value::Null => w.null(),
        Value::U64s(ns) => w.u64s(ns.iter().copied()),
        Value::F64s(xs) => w.f64s(xs),
        Value::U64Rows(rows) => w.array(|w| {
            for row in rows {
                w.u64s(row.iter().copied());
            }
        }),
        Value::F64Rows(rows) => w.array(|w| {
            for row in rows {
                w.f64s(row);
            }
        }),
    };
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Read the value `v` was written as from `r`, and check it came back
/// equal (floats by bits).
fn read_back(r: &mut Reader<'_>, text: &str, v: &Value) -> Result<(), TestCaseError> {
    let fail = |what: &str| TestCaseError::fail(format!("{what} in {text}"));
    match v {
        Value::Str(s) => {
            let got = r.str_value().map_err(fail)?.map_err(fail)?;
            prop_assert_eq!(&*got, s.as_str());
        }
        Value::U64(n) => prop_assert_eq!(r.u64_value().map_err(fail)?, Ok(*n)),
        Value::F64(x) => {
            let got = r.opt_f64_value().map_err(fail)?.map_err(fail)?;
            prop_assert_eq!(got.map(f64::to_bits), Some(x.to_bits()));
        }
        Value::Bool(b) => {
            let start = r.offset();
            r.skip().map_err(fail)?;
            let literal = if *b { "true" } else { "false" };
            prop_assert_eq!(&text[start..r.offset()], literal);
        }
        Value::Null => prop_assert_eq!(r.opt_u64_value().map_err(fail)?, Ok(None)),
        Value::U64s(ns) => prop_assert_eq!(r.u64_array().map_err(fail)?, Ok(ns.clone())),
        Value::F64s(xs) => {
            let got = r.f64_array().map_err(fail)?.map_err(fail)?;
            prop_assert_eq!(bits(&got), bits(xs));
        }
        Value::U64Rows(rows) => {
            let got = r.array(Reader::u64_array).map_err(fail)?;
            prop_assert_eq!(got, Ok(rows.clone()));
        }
        Value::F64Rows(rows) => {
            let got = r.array(Reader::f64_array).map_err(fail)?.map_err(fail)?;
            let got: Vec<Vec<u64>> = got.iter().map(|row| bits(row)).collect();
            let want: Vec<Vec<u64>> = rows.iter().map(|row| bits(row)).collect();
            prop_assert_eq!(got, want);
        }
    }
    Ok(())
}

/// Parse `s` both ways and check the canonical-form contract: anything
/// accepted renders back to the (trimmed) input.
fn assert_canonical(s: &str) -> Result<(), TestCaseError> {
    if let Some(ctx) = TraceContext::parse(s) {
        prop_assert_eq!(
            ctx.to_header(),
            s.trim(),
            "accepted non-canonical header {:?}",
            s
        );
        prop_assert!(ctx.is_active(), "accepted a zero trace id");
    }
    if let Some(id) = parse_trace_id(s) {
        prop_assert_eq!(
            format!("{id:016x}"),
            s,
            "accepted non-canonical trace id {:?}",
            s
        );
        prop_assert!(id != 0, "accepted a zero trace id");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Splitting a sample stream across N worker-local histograms and
    /// merging them equals one histogram fed every sample: bucket counts,
    /// count, min and max are integer/order exact; sum up to float
    /// associativity.
    #[test]
    fn merge_equals_single_histogram(
        samples in proptest::collection::vec(0.0f64..1e12, 0..400),
        n_workers in 1usize..8,
    ) {
        let mut whole = Histogram::new();
        let mut parts = vec![Histogram::new(); n_workers];
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            parts[i % n_workers].record(v);
        }
        let mut merged = Histogram::new();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(merged.bucket_counts(), whole.bucket_counts());
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.min().to_bits(), whole.min().to_bits());
        prop_assert_eq!(merged.max().to_bits(), whole.max().to_bits());
        let scale = whole.sum().abs().max(1.0);
        prop_assert!(
            (merged.sum() - whole.sum()).abs() / scale < 1e-9,
            "sum diverged: {} vs {}", merged.sum(), whole.sum()
        );
    }

    /// Quantiles respect bucket ordering and the observed range.
    #[test]
    fn quantiles_are_ordered_and_in_range(
        samples in proptest::collection::vec(0.0f64..1e9, 1..200),
    ) {
        let mut h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let (q50, q90, q99) = (h.quantile(0.5), h.quantile(0.9), h.quantile(0.99));
        prop_assert!(q50 <= q90 && q90 <= q99);
        prop_assert!(q50 >= h.min() && q99 <= h.max());
    }

    /// Histogram events round-trip through the JSONL trace format.
    #[test]
    fn hist_event_round_trips_jsonl(
        samples in proptest::collection::vec(0.0f64..1e12, 0..100),
    ) {
        let mut h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let ev = OwnedEvent::Hist { span: 3, name: "h".into(), hist: Box::new(h), t_us: 17 };
        let line = jsonl::to_line(&ev.as_event());
        let back = jsonl::parse_line(&line).unwrap();
        prop_assert_eq!(back, ev);
    }

    /// Every event kind survives `to_line` → `parse_line`, and renders
    /// back to the very same line (so floats keep their bits, `-0.0`
    /// included).
    #[test]
    fn trace_lines_round_trip_bit_exactly(ev in event()) {
        let line = jsonl::to_line(&ev.as_event());
        let back = jsonl::parse_line(&line).map_err(|e| TestCaseError::fail(format!("{line}: {e}")))?;
        prop_assert_eq!(jsonl::to_line(&back.as_event()), line);
        prop_assert_eq!(back, ev);
    }

    /// Every truncation and every single bit flip of a valid line that
    /// stays UTF-8 parses or fails with a typed error — never a panic.
    #[test]
    fn damaged_trace_lines_parse_or_fail_typed(ev in event()) {
        let line = jsonl::to_line(&ev.as_event());
        for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
            let _ = jsonl::parse_line(&line[..cut]);
        }
        for i in 0..line.len() {
            for bit in 0..8 {
                let mut flipped = line.as_bytes().to_vec();
                flipped[i] ^= 1 << bit;
                if let Ok(s) = String::from_utf8(flipped) {
                    let _ = jsonl::parse_line(&s);
                }
            }
        }
    }

    /// A flat object written by the compact writer reads back with the
    /// reader to the same keys and values, floats bit for bit.
    #[test]
    fn written_objects_read_back_exactly(fields in object()) {
        let mut text = String::new();
        Writer::compact(&mut text).object(|w| {
            for (key, v) in &fields {
                w.key(key);
                write_value(w, v);
            }
        });
        let fail = |what: &str| TestCaseError::fail(format!("{what} in {text}"));
        let mut r = Reader::new(&text).map_err(fail)?;
        for (key, v) in &fields {
            let got = r.next_key().map_err(fail)?;
            prop_assert_eq!(got.as_deref(), Some(key.as_str()));
            read_back(&mut r, &text, v)?;
        }
        prop_assert_eq!(r.next_key().map_err(fail)?, None);
    }

    /// Every active context round-trips through its header, and its
    /// trace id through the URL form.
    #[test]
    fn trace_header_round_trips(trace_id in 1u64..=u64::MAX, parent in any::<u64>()) {
        let ctx = TraceContext { trace_id, parent_span_id: parent };
        let header = ctx.to_header();
        prop_assert_eq!(TraceContext::parse(&header), Some(ctx));
        prop_assert_eq!(parse_trace_id(&ctx.to_string()), Some(trace_id));
        prop_assert_eq!(parse_trace_id(&header[..16]), Some(trace_id));
    }

    /// Arbitrary strings never panic the parsers, and whatever they
    /// accept is canonical.
    #[test]
    fn arbitrary_strings_parse_only_canonically(
        picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..40),
    ) {
        let s: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        assert_canonical(&s)?;
    }

    /// Every truncation and every single-character substitution of a
    /// valid header: no panic, and only canonical forms are accepted.
    #[test]
    fn near_miss_headers_parse_only_canonically(
        trace_id in 1u64..=u64::MAX,
        parent in any::<u64>(),
    ) {
        let header = TraceContext { trace_id, parent_span_id: parent }.to_header();
        for k in 0..=header.len() {
            assert_canonical(&header[..k])?;
            assert_canonical(&header[k..])?;
        }
        let chars: Vec<char> = header.chars().collect();
        for i in 0..chars.len() {
            for &c in ALPHABET {
                let mut mutated = chars.clone();
                mutated[i] = c;
                // The whole header, and its trace-id field as a URL id.
                assert_canonical(&mutated.iter().collect::<String>())?;
                assert_canonical(&mutated[..16].iter().collect::<String>())?;
            }
        }
    }
}
