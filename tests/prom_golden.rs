//! Golden corpus of the Prometheus text the library writes: the exact
//! bytes of `to_prometheus` for a fixed snapshot, and of `federate` over
//! two such scrapes.
//!
//! The snapshot holds, for every event kind, one name the library
//! emits (`serve.evictions`, `serve.live_streams`, …) and one it never
//! emits (`test.*`), so both the per-family header and the sample lines
//! of each kind are pinned. A change to the exporter that moves one
//! byte of these fails here.

use hom_obs::{federate, to_prometheus, AggSnapshot, Histogram};

fn hist(samples: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

/// One registered and one unregistered name of each kind; `scale`
/// varies the values so two scrapes differ.
fn snapshot(scale: u64) -> AggSnapshot {
    let mut snap = AggSnapshot::default();
    snap.counters.insert("serve.evictions".into(), 3 * scale);
    snap.counters.insert("test.widgets".into(), 7 * scale);
    snap.gauges
        .insert("serve.live_streams".into(), 42.5 * scale as f64);
    snap.gauges.insert("test.level".into(), f64::INFINITY);
    snap.hists
        .insert("serve.batch_latency_ns".into(), hist(&[3.0, 6.0]));
    snap.hists.insert("test.sizes".into(), hist(&[0.5]));
    snap.spans.insert("build.cluster".into(), hist(&[1.5]));
    snap.spans.insert("test.stage".into(), hist(&[2.0, 2.0]));
    snap.series_seen.insert("adapt.evidence".into(), 4 * scale);
    snap.series_seen.insert("test.trace".into(), 2);
    snap
}

const EXPOSITION: &str = "\
# HELP hom_serve_evictions_total streams evicted from the live table
# TYPE hom_serve_evictions_total counter
hom_serve_evictions_total 3
# HELP hom_test_widgets_total event counter (hom-obs)
# TYPE hom_test_widgets_total counter
hom_test_widgets_total 7
# HELP hom_serve_live_streams streams in the live table
# TYPE hom_serve_live_streams gauge
hom_serve_live_streams 42.5
# HELP hom_test_level last observed value (hom-obs)
# TYPE hom_test_level gauge
hom_test_level +Inf
# HELP hom_serve_batch_latency_ns submit time per batch, ns
# TYPE hom_serve_batch_latency_ns histogram
hom_serve_batch_latency_ns_bucket{le=\"1\"} 0
hom_serve_batch_latency_ns_bucket{le=\"2\"} 0
hom_serve_batch_latency_ns_bucket{le=\"4\"} 1
hom_serve_batch_latency_ns_bucket{le=\"8\"} 2
hom_serve_batch_latency_ns_bucket{le=\"+Inf\"} 2
hom_serve_batch_latency_ns_sum 9
hom_serve_batch_latency_ns_count 2
# HELP hom_test_sizes sample distribution (hom-obs)
# TYPE hom_test_sizes histogram
hom_test_sizes_bucket{le=\"1\"} 1
hom_test_sizes_bucket{le=\"+Inf\"} 1
hom_test_sizes_sum 0.5
hom_test_sizes_count 1
# HELP hom_build_cluster_span_us two-step concept clustering
# TYPE hom_build_cluster_span_us histogram
hom_build_cluster_span_us_bucket{le=\"1\"} 0
hom_build_cluster_span_us_bucket{le=\"2\"} 1
hom_build_cluster_span_us_bucket{le=\"+Inf\"} 1
hom_build_cluster_span_us_sum 1.5
hom_build_cluster_span_us_count 1
# HELP hom_test_stage_span_us span duration in microseconds (hom-obs)
# TYPE hom_test_stage_span_us histogram
hom_test_stage_span_us_bucket{le=\"1\"} 0
hom_test_stage_span_us_bucket{le=\"2\"} 0
hom_test_stage_span_us_bucket{le=\"4\"} 2
hom_test_stage_span_us_bucket{le=\"+Inf\"} 2
hom_test_stage_span_us_sum 4
hom_test_stage_span_us_count 2
# HELP hom_adapt_evidence_samples_total windowed mean likelihood and entropy
# TYPE hom_adapt_evidence_samples_total counter
hom_adapt_evidence_samples_total 4
# HELP hom_test_trace_samples_total series samples observed (hom-obs)
# TYPE hom_test_trace_samples_total counter
hom_test_trace_samples_total 2
";

const FEDERATED: &str = "\
# HELP hom_serve_evictions_total streams evicted from the live table
# TYPE hom_serve_evictions_total counter
hom_serve_evictions_total{worker=\"w0\"} 3
hom_serve_evictions_total{worker=\"w1\"} 6
# HELP hom_test_widgets_total event counter (hom-obs)
# TYPE hom_test_widgets_total counter
hom_test_widgets_total{worker=\"w0\"} 7
hom_test_widgets_total{worker=\"w1\"} 14
# HELP hom_serve_live_streams streams in the live table
# TYPE hom_serve_live_streams gauge
hom_serve_live_streams{worker=\"w0\"} 42.5
hom_serve_live_streams{worker=\"w1\"} 85
# HELP hom_test_level last observed value (hom-obs)
# TYPE hom_test_level gauge
hom_test_level{worker=\"w0\"} +Inf
hom_test_level{worker=\"w1\"} +Inf
# HELP hom_serve_batch_latency_ns submit time per batch, ns
# TYPE hom_serve_batch_latency_ns histogram
hom_serve_batch_latency_ns_bucket{le=\"1\",worker=\"w0\"} 0
hom_serve_batch_latency_ns_bucket{le=\"2\",worker=\"w0\"} 0
hom_serve_batch_latency_ns_bucket{le=\"4\",worker=\"w0\"} 1
hom_serve_batch_latency_ns_bucket{le=\"8\",worker=\"w0\"} 2
hom_serve_batch_latency_ns_bucket{le=\"+Inf\",worker=\"w0\"} 2
hom_serve_batch_latency_ns_sum{worker=\"w0\"} 9
hom_serve_batch_latency_ns_count{worker=\"w0\"} 2
hom_serve_batch_latency_ns_bucket{le=\"1\",worker=\"w1\"} 0
hom_serve_batch_latency_ns_bucket{le=\"2\",worker=\"w1\"} 0
hom_serve_batch_latency_ns_bucket{le=\"4\",worker=\"w1\"} 1
hom_serve_batch_latency_ns_bucket{le=\"8\",worker=\"w1\"} 2
hom_serve_batch_latency_ns_bucket{le=\"+Inf\",worker=\"w1\"} 2
hom_serve_batch_latency_ns_sum{worker=\"w1\"} 9
hom_serve_batch_latency_ns_count{worker=\"w1\"} 2
# HELP hom_test_sizes sample distribution (hom-obs)
# TYPE hom_test_sizes histogram
hom_test_sizes_bucket{le=\"1\",worker=\"w0\"} 1
hom_test_sizes_bucket{le=\"+Inf\",worker=\"w0\"} 1
hom_test_sizes_sum{worker=\"w0\"} 0.5
hom_test_sizes_count{worker=\"w0\"} 1
hom_test_sizes_bucket{le=\"1\",worker=\"w1\"} 1
hom_test_sizes_bucket{le=\"+Inf\",worker=\"w1\"} 1
hom_test_sizes_sum{worker=\"w1\"} 0.5
hom_test_sizes_count{worker=\"w1\"} 1
# HELP hom_build_cluster_span_us two-step concept clustering
# TYPE hom_build_cluster_span_us histogram
hom_build_cluster_span_us_bucket{le=\"1\",worker=\"w0\"} 0
hom_build_cluster_span_us_bucket{le=\"2\",worker=\"w0\"} 1
hom_build_cluster_span_us_bucket{le=\"+Inf\",worker=\"w0\"} 1
hom_build_cluster_span_us_sum{worker=\"w0\"} 1.5
hom_build_cluster_span_us_count{worker=\"w0\"} 1
hom_build_cluster_span_us_bucket{le=\"1\",worker=\"w1\"} 0
hom_build_cluster_span_us_bucket{le=\"2\",worker=\"w1\"} 1
hom_build_cluster_span_us_bucket{le=\"+Inf\",worker=\"w1\"} 1
hom_build_cluster_span_us_sum{worker=\"w1\"} 1.5
hom_build_cluster_span_us_count{worker=\"w1\"} 1
# HELP hom_test_stage_span_us span duration in microseconds (hom-obs)
# TYPE hom_test_stage_span_us histogram
hom_test_stage_span_us_bucket{le=\"1\",worker=\"w0\"} 0
hom_test_stage_span_us_bucket{le=\"2\",worker=\"w0\"} 0
hom_test_stage_span_us_bucket{le=\"4\",worker=\"w0\"} 2
hom_test_stage_span_us_bucket{le=\"+Inf\",worker=\"w0\"} 2
hom_test_stage_span_us_sum{worker=\"w0\"} 4
hom_test_stage_span_us_count{worker=\"w0\"} 2
hom_test_stage_span_us_bucket{le=\"1\",worker=\"w1\"} 0
hom_test_stage_span_us_bucket{le=\"2\",worker=\"w1\"} 0
hom_test_stage_span_us_bucket{le=\"4\",worker=\"w1\"} 2
hom_test_stage_span_us_bucket{le=\"+Inf\",worker=\"w1\"} 2
hom_test_stage_span_us_sum{worker=\"w1\"} 4
hom_test_stage_span_us_count{worker=\"w1\"} 2
# HELP hom_adapt_evidence_samples_total windowed mean likelihood and entropy
# TYPE hom_adapt_evidence_samples_total counter
hom_adapt_evidence_samples_total{worker=\"w0\"} 4
hom_adapt_evidence_samples_total{worker=\"w1\"} 8
# HELP hom_test_trace_samples_total series samples observed (hom-obs)
# TYPE hom_test_trace_samples_total counter
hom_test_trace_samples_total{worker=\"w0\"} 2
hom_test_trace_samples_total{worker=\"w1\"} 2
";

#[test]
fn exposition_is_pinned() {
    assert_eq!(to_prometheus(&snapshot(1)), EXPOSITION);
}

#[test]
fn federation_is_pinned() {
    let scrapes = [
        ("w0".to_string(), to_prometheus(&snapshot(1))),
        ("w1".to_string(), to_prometheus(&snapshot(2))),
    ];
    assert_eq!(federate(&scrapes, "worker").unwrap(), FEDERATED);
}
