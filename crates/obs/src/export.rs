//! Prometheus text exposition for [`AggSnapshot`]s.
//!
//! Renders a merged [`crate::AggSink`] snapshot in the Prometheus text
//! format (version 0.0.4) — the format every scraper speaks — without
//! pulling in a client library: the format is lines of
//! `# HELP` / `# TYPE` comments and `name{labels} value` samples, which
//! a few string pushes produce exactly.
//!
//! Name mapping: event names are dot-separated (`serve.batch_latency_ns`)
//! while Prometheus names are `[a-zA-Z_:][a-zA-Z0-9_:]*`; every exported
//! metric is prefixed `hom_` and has its dots (and any other invalid
//! character) replaced by `_`. Counters additionally get the
//! conventional `_total` suffix, and span-duration histograms a
//! `_span_us` suffix:
//!
//! | event | exported as | type |
//! |---|---|---|
//! | `count` `serve.evictions` | `hom_serve_evictions_total` | counter |
//! | `gauge` `serve.live_streams` | `hom_serve_live_streams` | gauge |
//! | `hist` `serve.batch_latency_ns` | `hom_serve_batch_latency_ns` | histogram |
//! | span `build.cluster` | `hom_build_cluster_span_us` | histogram |
//! | `series` `adapt.evidence` | `hom_adapt_evidence_samples_total` | counter |
//!
//! Histogram buckets are cumulative `_bucket{le="..."}` samples on the
//! fixed power-of-two boundaries of [`crate::Histogram`], truncated
//! after the last non-empty bucket (the `+Inf` bucket is always
//! present), plus exact `_sum` and `_count`.

use crate::agg::AggSnapshot;
use crate::hist::{Histogram, N_BUCKETS};
use crate::registry::{self, Kind};

/// The `Content-Type` of every Prometheus text body a node serves
/// (`/metrics`, `/concepts`, `/slo`, the router's federated `/metrics`).
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// A Prometheus metric name from an event name: `hom_` prefix, invalid
/// characters replaced by `_`.
pub fn prom_name(event_name: &str) -> String {
    let mut out = String::with_capacity(event_name.len() + 4);
    out.push_str("hom_");
    for c in event_name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// A float in Prometheus text syntax (`NaN`, `+Inf`, `-Inf`, otherwise
/// Rust's shortest round-trip decimal).
pub fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Push a `# HELP` / `# TYPE` family header. Exposed so endpoints that
/// render labeled families outside an [`AggSnapshot`] (`/concepts`,
/// `/slo` in `hom-serve`) produce the exact same dialect as
/// [`to_prometheus`].
pub fn push_header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Push one full histogram family (header, cumulative `_bucket` samples
/// truncated after the last non-empty bucket, `+Inf`, `_sum`, `_count`).
/// Exposed for the same reason as [`push_header`].
pub fn push_histogram(out: &mut String, name: &str, help: &str, hist: &Histogram) {
    push_header(out, name, "histogram", help);
    let counts = hist.bucket_counts();
    let last_nonzero = counts.iter().rposition(|&c| c > 0);
    let mut cumulative = 0u64;
    if let Some(last) = last_nonzero {
        for (b, &c) in counts.iter().enumerate().take(last + 1) {
            cumulative += c;
            // The final fixed bucket absorbs everything larger, so its
            // finite upper bound would lie; fold it into +Inf below.
            if b == N_BUCKETS - 1 {
                break;
            }
            out.push_str(name);
            out.push_str("_bucket{le=\"");
            out.push_str(&prom_f64(Histogram::upper_bound(b)));
            out.push_str("\"} ");
            out.push_str(&cumulative.to_string());
            out.push('\n');
        }
    }
    out.push_str(name);
    out.push_str("_bucket{le=\"+Inf\"} ");
    out.push_str(&hist.count().to_string());
    out.push('\n');
    out.push_str(name);
    out.push_str("_sum ");
    out.push_str(&prom_f64(hist.sum()));
    out.push('\n');
    out.push_str(name);
    out.push_str("_count ");
    out.push_str(&hist.count().to_string());
    out.push('\n');
}

/// The Prometheus family an event of `kind` named `name` exports as
/// (see the table in the module docs).
pub fn family_name(name: &str, kind: Kind) -> String {
    let suffix = match kind {
        Kind::Count => "_total",
        Kind::Span => "_span_us",
        Kind::Series => "_samples_total",
        Kind::Gauge | Kind::Hist => "",
    };
    prom_name(name) + suffix
}

/// The `# HELP` text of an event's family: its registered help, or the
/// generic line of its kind when the registry does not hold the name as
/// that kind.
fn help(name: &str, kind: Kind) -> &'static str {
    match registry::spec(name) {
        Some(spec) if spec.kind == kind => spec.help,
        _ => match kind {
            Kind::Count => "event counter (hom-obs)",
            Kind::Gauge => "last observed value (hom-obs)",
            Kind::Hist => "sample distribution (hom-obs)",
            Kind::Span => "span duration in microseconds (hom-obs)",
            Kind::Series => "series samples observed (hom-obs)",
        },
    }
}

/// One unlabeled sample with its family header: a gauge, or a counter
/// (of events or of series samples).
fn push_scalar(out: &mut String, name: &str, kind: Kind, value: &str) {
    let family = family_name(name, kind);
    let prom_type = if kind == Kind::Gauge {
        "gauge"
    } else {
        "counter"
    };
    push_header(out, &family, prom_type, help(name, kind));
    out.push_str(&family);
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Render a snapshot in Prometheus text format 0.0.4.
///
/// Each family's `# HELP` is its event's registered help
/// ([`crate::registry`]). Output is deterministic for a given snapshot
/// (maps are ordered) and ends with a newline, as the format requires.
pub fn to_prometheus(snap: &AggSnapshot) -> String {
    let mut out = String::new();
    for (name, total) in &snap.counters {
        push_scalar(&mut out, name, Kind::Count, &total.to_string());
    }
    for (name, &value) in &snap.gauges {
        push_scalar(&mut out, name, Kind::Gauge, &prom_f64(value));
    }
    for (kind, hists) in [(Kind::Hist, &snap.hists), (Kind::Span, &snap.spans)] {
        for (name, hist) in hists {
            push_histogram(&mut out, &family_name(name, kind), help(name, kind), hist);
        }
    }
    for (name, seen) in &snap.series_seen {
        push_scalar(&mut out, name, Kind::Series, &seen.to_string());
    }
    out
}

/// One parsed sample line: the metric name, the raw inner label string
/// (what sat between `{` and `}`, empty if unlabeled) and the raw value
/// text. The value is deliberately **not** parsed to `f64`: federation
/// passes it through byte-for-byte, so a router's aggregated `/metrics`
/// carries each worker's numbers bit-exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromSample {
    /// Full sample name (`hom_x_bucket`, `hom_x_sum`, …).
    pub name: String,
    /// Raw label pairs without the surrounding braces; `""` if none.
    pub labels: String,
    /// Raw value text (`42`, `3.5`, `+Inf`, `NaN`, …).
    pub value: String,
}

/// One metric family from a scrape: its `# HELP`/`# TYPE` header and
/// every sample that followed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromFamily {
    /// Family name (`hom_serve_batch_latency_ns`).
    pub name: String,
    /// Declared type (`counter`, `gauge`, `histogram`, `untyped`, …).
    pub kind: String,
    /// Help text, possibly empty.
    pub help: String,
    /// Samples in scrape order.
    pub samples: Vec<PromSample>,
}

/// Why a Prometheus scrape failed to parse: the 1-based line and what
/// was wrong with it. Used by the router's `/metrics` federation — a
/// worker returning garbage must surface as a typed error, not a panic
/// or a silently dropped worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong.
    pub what: &'static str,
}

impl std::fmt::Display for PromParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "prometheus scrape line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for PromParseError {}

/// Parse a Prometheus text-format (0.0.4) scrape into its families.
///
/// This is the reading half of [`to_prometheus`]: the subset of the
/// format this repo's exporters emit (HELP/TYPE headers followed by
/// their samples) plus the laxness the real format allows — comments,
/// blank lines, samples with no declared family (they become `untyped`
/// families of their own). Sample values and label strings are kept as
/// raw text (see [`PromSample`]).
pub fn parse_prometheus(text: &str) -> Result<Vec<PromFamily>, PromParseError> {
    let mut families: Vec<PromFamily> = Vec::new();
    let find = |families: &mut Vec<PromFamily>, name: &str| -> usize {
        match families.iter().position(|f| f.name == name) {
            Some(i) => i,
            None => {
                families.push(PromFamily {
                    name: name.to_string(),
                    kind: "untyped".to_string(),
                    help: String::new(),
                    samples: Vec::new(),
                });
                families.len() - 1
            }
        }
    };
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let err = |what| PromParseError { line: i + 1, what };
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
            if name.is_empty() {
                return Err(err("HELP with no metric name"));
            }
            let at = find(&mut families, name);
            families[at].help = help.to_string();
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or(err("TYPE with no metric kind"))?;
            if name.is_empty() || kind.is_empty() {
                return Err(err("TYPE with no metric kind"));
            }
            let at = find(&mut families, name);
            families[at].kind = kind.to_string();
        } else if line.starts_with('#') {
            // Any other comment is legal and ignored.
        } else {
            // A sample: `name{labels} value` or `name value`.
            let (name_labels, value) = match line.find('{') {
                Some(brace) => {
                    let close = line[brace..]
                        .find('}')
                        .map(|c| brace + c)
                        .ok_or(err("unclosed label braces"))?;
                    let value = line[close + 1..].trim();
                    ((&line[..brace], &line[brace + 1..close]), value)
                }
                None => {
                    let (name, value) = line.split_once(' ').ok_or(err("sample with no value"))?;
                    ((name, ""), value.trim())
                }
            };
            let (name, labels) = name_labels;
            if name.is_empty() {
                return Err(err("sample with no name"));
            }
            if value.is_empty() || value.contains(' ') {
                // A second field after the value would be a timestamp —
                // this repo's exporters never emit one, and federation
                // would forward it mislabeled, so reject it loudly.
                return Err(err("sample value is not a single field"));
            }
            // Attach to the owning family: histogram samples carry
            // `_bucket`/`_sum`/`_count` suffixes on the family name.
            let base = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|s| name.strip_suffix(s))
                .filter(|base| families.iter().any(|f| f.name == *base))
                .unwrap_or(name);
            let at = find(&mut families, base);
            families[at].samples.push(PromSample {
                name: name.to_string(),
                labels: labels.to_string(),
                value: value.to_string(),
            });
        }
    }
    Ok(families)
}

/// Merge scrapes from several workers into one exposition, adding a
/// `label_name="<worker label>"` pair to every sample — the router's
/// `/cluster`-wide `/metrics` endpoint.
///
/// Families keep first-seen order; each family's `# HELP`/`# TYPE`
/// header is emitted exactly once (first declaration wins) and then the
/// samples of every worker that reported it, in worker order, each
/// tagged with its worker label. Values and existing labels pass
/// through as raw text, so per-worker numbers survive bit-exactly; a
/// sample that already carries `label_name` is rejected rather than
/// silently double-labeled.
pub fn federate(scrapes: &[(String, String)], label_name: &str) -> Result<String, PromParseError> {
    let mut order: Vec<String> = Vec::new();
    // (worker label, family) pairs, grouped later by `order`.
    let mut parsed: Vec<(String, Vec<PromFamily>)> = Vec::new();
    for (worker, text) in scrapes {
        let families = parse_prometheus(text)?;
        for f in &families {
            if !order.contains(&f.name) {
                order.push(f.name.clone());
            }
            for s in &f.samples {
                let tagged = format!("{label_name}=");
                if s.labels.split(',').any(|p| p.trim().starts_with(&tagged)) {
                    return Err(PromParseError {
                        line: 0,
                        what: "sample already carries the federation label",
                    });
                }
            }
        }
        parsed.push((worker.clone(), families));
    }
    let escape = |v: &str| v.replace('\\', "\\\\").replace('"', "\\\"");
    let mut out = String::new();
    for name in &order {
        let mut declared = false;
        for (worker, families) in &parsed {
            let Some(f) = families.iter().find(|f| &f.name == name) else {
                continue;
            };
            if !declared {
                let help = if f.help.is_empty() {
                    "(federated)"
                } else {
                    &f.help
                };
                push_header(&mut out, name, &f.kind, help);
                declared = true;
            }
            for s in &f.samples {
                out.push_str(&s.name);
                out.push('{');
                if !s.labels.is_empty() {
                    out.push_str(&s.labels);
                    out.push(',');
                }
                out.push_str(label_name);
                out.push_str("=\"");
                out.push_str(&escape(worker));
                out.push_str("\"} ");
                out.push_str(&s.value);
                out.push('\n');
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggSink, Obs};
    use std::sync::Arc;

    #[test]
    fn names_are_sanitized() {
        assert_eq!(
            prom_name("serve.batch_latency_ns"),
            "hom_serve_batch_latency_ns"
        );
        assert_eq!(prom_name("weird-name 1"), "hom_weird_name_1");
    }

    #[test]
    fn renders_all_metric_kinds() {
        let agg = Arc::new(AggSink::new());
        let obs = Obs::new(Arc::clone(&agg));
        obs.count("serve.evictions", 3);
        obs.gauge("serve.live_streams", 42.0);
        let mut h = Histogram::new();
        h.record(100.0);
        h.record(3000.0);
        obs.hist("serve.batch_latency_ns", &h);
        obs.series("adapt.evidence", 0, &[0.5, 0.1]);
        {
            let _s = obs.span("build.cluster");
        }

        let text = to_prometheus(&agg.snapshot());
        assert!(text.contains("# TYPE hom_serve_evictions_total counter"));
        assert!(text.contains("hom_serve_evictions_total 3\n"));
        assert!(text.contains("# TYPE hom_serve_live_streams gauge"));
        assert!(text.contains("hom_serve_live_streams 42\n"));
        assert!(text.contains("# TYPE hom_serve_batch_latency_ns histogram"));
        assert!(text.contains("hom_serve_batch_latency_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("hom_serve_batch_latency_ns_count 2\n"));
        assert!(text.contains("hom_serve_batch_latency_ns_sum 3100\n"));
        assert!(text.contains("# TYPE hom_adapt_evidence_samples_total counter"));
        assert!(text.contains("# TYPE hom_build_cluster_span_us histogram"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_increasing() {
        let mut h = Histogram::new();
        for v in [0.5, 1.5, 1.5, 300.0] {
            h.record(v);
        }
        let mut out = String::new();
        push_histogram(&mut out, "hom_x", "h", &h);
        let mut last_le = f64::NEG_INFINITY;
        let mut last_cum = 0u64;
        let mut saw_inf = false;
        for line in out.lines() {
            let Some(rest) = line.strip_prefix("hom_x_bucket{le=\"") else {
                continue;
            };
            let (le, val) = rest.split_once("\"} ").unwrap();
            let cum: u64 = val.parse().unwrap();
            let le = if le == "+Inf" {
                saw_inf = true;
                f64::INFINITY
            } else {
                le.parse().unwrap()
            };
            assert!(le > last_le, "le strictly increasing");
            assert!(cum >= last_cum, "cumulative counts non-decreasing");
            last_le = le;
            last_cum = cum;
        }
        assert!(saw_inf, "+Inf bucket always present");
        assert_eq!(last_cum, 4, "+Inf bucket equals count");
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(to_prometheus(&AggSnapshot::default()), "");
    }

    /// A real exporter scrape parses back into exactly its families,
    /// with raw values preserved.
    #[test]
    fn parse_round_trips_own_exposition() {
        let agg = Arc::new(AggSink::new());
        let obs = Obs::new(Arc::clone(&agg));
        obs.count("serve.evictions", 3);
        obs.gauge("serve.live_streams", 42.5);
        let mut h = Histogram::new();
        h.record(100.0);
        h.record(3000.0);
        obs.hist("serve.batch_latency_ns", &h);
        let text = to_prometheus(&agg.snapshot());

        let families = parse_prometheus(&text).expect("own exposition parses");
        assert_eq!(families.len(), 3);
        let counter = &families[0];
        assert_eq!(counter.name, "hom_serve_evictions_total");
        assert_eq!(counter.kind, "counter");
        assert_eq!(
            counter.samples,
            vec![PromSample {
                name: "hom_serve_evictions_total".into(),
                labels: String::new(),
                value: "3".into(),
            }]
        );
        let gauge = &families[1];
        assert_eq!(gauge.samples[0].value, "42.5", "raw value text preserved");
        let hist = &families[2];
        assert_eq!(hist.kind, "histogram");
        // Bucket/sum/count samples all attach to the histogram family.
        assert!(hist
            .samples
            .iter()
            .any(|s| s.name.ends_with("_bucket") && s.labels == "le=\"+Inf\"" && s.value == "2"));
        assert!(hist.samples.iter().any(|s| s.name.ends_with("_sum")));
        assert!(hist.samples.iter().any(|s| s.name.ends_with("_count")));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for (text, what) in [
            ("hom_x{le=\"1\" 3", "unclosed label braces"),
            ("hom_x", "sample with no value"),
            ("hom_x 1 1699999999", "sample value is not a single field"),
            ("# TYPE hom_x", "TYPE with no metric kind"),
        ] {
            let err = parse_prometheus(text).expect_err(text);
            assert_eq!(err.what, what, "{text}");
            assert_eq!(err.line, 1);
        }
        // Blank lines and stray comments are fine.
        assert!(parse_prometheus("\n# just a comment\n").unwrap().is_empty());
    }

    /// Federation: one header per family, every sample tagged with its
    /// worker, values bit-exact, per-worker histogram series contiguous
    /// (so per-series bucket cumulativity survives).
    #[test]
    fn federate_tags_and_groups_by_family() {
        let scrape = |evictions: u64| {
            let agg = Arc::new(AggSink::new());
            let obs = Obs::new(Arc::clone(&agg));
            obs.count("serve.evictions", evictions);
            let mut h = Histogram::new();
            h.record(evictions as f64);
            obs.hist("serve.batch_latency_ns", &h);
            to_prometheus(&agg.snapshot())
        };
        let merged = federate(
            &[("0".to_string(), scrape(3)), ("1".to_string(), scrape(7))],
            "worker",
        )
        .expect("federates");

        assert_eq!(
            merged
                .matches("# TYPE hom_serve_evictions_total counter")
                .count(),
            1,
            "one header per family"
        );
        assert!(merged.contains("hom_serve_evictions_total{worker=\"0\"} 3\n"));
        assert!(merged.contains("hom_serve_evictions_total{worker=\"1\"} 7\n"));
        // Existing labels keep their pairs, the worker label appended.
        assert!(merged.contains("hom_serve_batch_latency_ns_bucket{le=\"+Inf\",worker=\"0\"} 1\n"));
        // Family grouping: both workers' counter samples precede the
        // histogram header.
        let hist_header = merged.find("# TYPE hom_serve_batch_latency_ns").unwrap();
        let w1_counter = merged
            .find("hom_serve_evictions_total{worker=\"1\"}")
            .unwrap();
        assert!(w1_counter < hist_header, "samples grouped by family");
        // The merged text itself parses.
        let families = parse_prometheus(&merged).expect("merged text parses");
        assert_eq!(families.len(), 2);

        // Double-labeling is a typed error.
        let already = "# TYPE hom_y counter\nhom_y{worker=\"9\"} 1\n";
        assert!(federate(&[("0".into(), already.into())], "worker").is_err());
    }

    #[test]
    fn federate_escapes_label_values() {
        let scrape = "# TYPE hom_x counter\nhom_x 1\n".to_string();
        // A worker label containing both escape-worthy characters: a
        // quote and a backslash.
        let merged = federate(&[("node\"a\\b".to_string(), scrape)], "worker").expect("federates");
        assert!(
            merged.contains("hom_x{worker=\"node\\\"a\\\\b\"} 1\n"),
            "quotes and backslashes escaped: {merged}"
        );
        // The escaped output still parses as a valid exposition.
        let families = parse_prometheus(&merged).expect("escaped output parses");
        assert_eq!(families[0].samples[0].labels, "worker=\"node\\\"a\\\\b\"");
    }

    #[test]
    fn federate_merges_duplicate_names_across_workers() {
        // Both workers report the same family; the merged exposition
        // keeps ONE header and both samples, each with its own label —
        // never two `# TYPE` declarations for one name (invalid) and
        // never a dropped worker.
        let w0 = "# HELP hom_x first help\n# TYPE hom_x gauge\nhom_x 1\n".to_string();
        let w1 = "# HELP hom_x second help\n# TYPE hom_x gauge\nhom_x 2\n".to_string();
        let merged =
            federate(&[("0".to_string(), w0), ("1".to_string(), w1)], "worker").expect("federates");
        assert_eq!(merged.matches("# TYPE hom_x gauge").count(), 1);
        assert!(merged.contains("# HELP hom_x first help\n"), "first wins");
        assert!(!merged.contains("second help"));
        assert!(merged.contains("hom_x{worker=\"0\"} 1\n"));
        assert!(merged.contains("hom_x{worker=\"1\"} 2\n"));
    }

    #[test]
    fn federate_tolerates_empty_worker_expositions() {
        // A worker with nothing to report (fresh process, no traffic)
        // returns an empty body; federation must pass it through rather
        // than erroring out the whole fleet scrape.
        let w0 = "# TYPE hom_x counter\nhom_x 5\n".to_string();
        let merged = federate(
            &[
                ("0".to_string(), w0),
                ("1".to_string(), String::new()),
                ("2".to_string(), "\n\n".to_string()),
            ],
            "worker",
        )
        .expect("empty scrapes are fine");
        assert!(merged.contains("hom_x{worker=\"0\"} 5\n"));
        assert!(!merged.contains("worker=\"1\""), "nothing to tag");
        // All workers empty → empty (but valid) merged exposition.
        let none = federate(&[("0".to_string(), String::new())], "worker").expect("all empty");
        assert!(none.is_empty());
    }
}
