//! Property tests of the observability primitives.
//!
//! The load-bearing property is histogram mergeability: the parallel
//! build records into worker-local histograms and merges them at the
//! end, so a merge must be indistinguishable from having recorded every
//! sample into a single histogram.
//!
//! The `X-HOM-Trace` battery holds the trace-context parser to its
//! canonical form: on any input it must not panic, and whatever it
//! accepts must render back to exactly the input (so there is one
//! spelling of every trace id, in headers and in `/trace/<id>` URLs).

use hom_obs::{jsonl, parse_trace_id, Histogram, OwnedEvent, TraceContext};
use proptest::prelude::*;

/// Characters the string properties draw from: every hex digit in both
/// cases, the separator, the signs and whitespace `from_str_radix` and
/// `trim` react to, and a multi-byte character.
const ALPHABET: &[char] = &[
    '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', 'a', 'b', 'c', 'd', 'e', 'f', 'A', 'B', 'C',
    'D', 'E', 'F', 'g', 'x', '-', '+', ' ', '\t', '\n', '/', 'é',
];

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
