//! Serving-engine smoke test, end to end: 1 000 concurrent streams,
//! 10 000 batched requests, checked record-for-record against dedicated
//! per-stream [`OnlinePredictor`]s — then the same workload replayed
//! with live telemetry on and the introspection API scraped over real
//! TCP. Exits non-zero (panics) on the first violation of:
//!
//! * **telemetry is free of observable effect** — predictions and
//!   posteriors with the [`ServeTelemetry`] sink and a running
//!   [`MetricsServer`] equal the quiet run bit for bit (CI compares the
//!   printed digest across `HOM_THREADS=1` and `=8`);
//! * **`/metrics` is live Prometheus text** holding the request and
//!   eviction counters and the batch-latency histogram (the body is
//!   also written to `$HOM_SMOKE_METRICS_OUT` for CI's format check);
//! * **`/concepts` and `/slo` answer mid-traffic** — the absorbed
//!   counter is integer-exact against the request count, the SLO layer
//!   counts every batch, and both bodies are valid Prometheus text
//!   (written to `$HOM_SMOKE_CONCEPTS_OUT` / `$HOM_SMOKE_SLO_OUT` for
//!   CI's format check);
//! * **`/streams/<id>` returns the live posterior bit-for-bit** — the
//!   scraped JSON floats parse back equal to the engine's in-memory
//!   `FilterState`, to the bit;
//! * **a novelty trigger ships an incident report** — an
//!   [`AdaptiveEngine`] pushed into a held-out concept dumps the flight
//!   recorder, `adapt.evidence` events included, the moment it fires.
//!
//! ```sh
//! HOM_THREADS=8 cargo run --release --example serve_smoke
//! ```

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use high_order_models::adapt::IncidentDump;
use high_order_models::data::StreamRecord;
use high_order_models::datagen::stagger::{stagger_label, NOVEL_CONCEPT};
use high_order_models::obs::{json, jsonl};
use high_order_models::prelude::*;
use high_order_models::serve::{http_request, MetricsServer, ServeTelemetry};

const STREAMS: u64 = 1_000;
const REQUESTS: usize = 10_000;
const BATCH: usize = 500;
/// Shard count, pinned so occupancy is the same at every `HOM_THREADS`.
const SHARDS: usize = 8;
/// Per-shard live capacity — below the 125 streams each shard sees, so
/// the workload churns through park/unpark and the eviction counters
/// are exercised (eviction hibernates a stream bit-identically, so the
/// differential still holds).
const CAPACITY: usize = 96;

fn main() {
    // Mine one model from a Stagger stream, then keep drawing live
    // records as the serving workload.
    let mut source = StaggerSource::new(StaggerParams {
        lambda: 0.002,
        ..Default::default()
    });
    println!("mining a model from 20,000 historical records …");
    let (historical, _) = collect(&mut source, 20_000);
    let (model, report) = build(
        &historical,
        &DecisionTreeLearner::new(),
        &BuildParams::default(),
    );
    println!("  {} concepts", report.n_concepts);
    let model = Arc::new(model);
    let workload: Vec<_> = (0..REQUESTS).map(|_| source.next_record()).collect();

    // ── Phase 1: quiet differential run ────────────────────────────────
    // The engine under test with telemetry off, and one dedicated
    // predictor per stream as the reference implementation.
    let quiet = engine_under_test(&model, Obs::none());
    let mut references: Vec<OnlinePredictor> = (0..STREAMS)
        .map(|_| OnlinePredictor::new(Arc::clone(&model)))
        .collect();
    println!(
        "serving {REQUESTS} requests across {STREAMS} streams \
         (batches of {BATCH}, shard capacity {CAPACITY}) …"
    );
    let start = std::time::Instant::now();
    let quiet_preds = serve(&quiet, &workload);
    for (t, (r, &pred)) in workload.iter().zip(&quiet_preds).enumerate() {
        let stream = (t as u64) % STREAMS;
        let want = references[stream as usize].step(&r.x, r.y);
        assert_eq!(
            pred, want,
            "stream {stream} diverged from its dedicated predictor at record {t}"
        );
    }
    // Posteriors must also agree, stream by stream, to the bit — parked
    // or live (eviction hibernates streams losslessly).
    let quiet_posts = posterior_bits(&quiet);
    for (stream, reference) in references.iter().enumerate() {
        let same = quiet_posts[stream]
            .iter()
            .zip(reference.state().posterior())
            .all(|(&a, b)| a == b.to_bits());
        assert!(same, "stream {stream}: posterior not bit-identical");
    }
    println!(
        "  ok: {} predictions and {STREAMS} posteriors bit-identical to \
         dedicated predictors in {:.2?} ({} live / {} parked streams)",
        quiet_preds.len(),
        start.elapsed(),
        quiet.live_streams(),
        quiet.parked_streams(),
    );

    // ── Phase 2: same workload, telemetry on, scraped over TCP ─────────
    let telemetry = ServeTelemetry::new();
    let observed = Arc::new(engine_under_test(&model, telemetry.obs()));
    // CI points HOM_METRICS_ADDR at a fixed port; standalone runs take
    // any free one.
    let server = match MetricsServer::from_env(Arc::clone(&observed), telemetry.clone()) {
        Ok(Some(server)) => server,
        Ok(None) => MetricsServer::bind(Arc::clone(&observed), telemetry.clone(), "127.0.0.1:0")
            .expect("loopback port 0 binds"),
        Err(e) => panic!("{e}"),
    };
    let addr = server.addr();
    println!("replaying with telemetry on (metrics at http://{addr}/metrics) …");
    let observed_preds = serve(&observed, &workload);
    assert_eq!(
        quiet_preds, observed_preds,
        "telemetry changed a prediction"
    );
    assert_eq!(
        quiet_posts,
        posterior_bits(&observed),
        "telemetry changed a posterior"
    );

    // /healthz answers with engine-truth liveness, as well-formed JSON.
    let health = get(addr, "/healthz");
    let [status, live] = json::fields(&health, ["status", "live_streams"])
        .unwrap_or_else(|e| panic!("/healthz is not JSON ({e}): {health}"));
    assert_eq!(status.str().as_deref(), Ok("ok"), "{health}");
    assert_eq!(live.u64(), Ok(observed.live_streams() as u64), "{health}");

    // /metrics is Prometheus text with the serving counters & histogram.
    let metrics = get(addr, "/metrics");
    assert!(
        metrics.contains(&format!("hom_serve_records_predicted_total {REQUESTS}\n")),
        "predicted counter missing or wrong:\n{metrics}"
    );
    let evictions = counter_value(&metrics, "hom_serve_evictions_total");
    assert!(
        evictions > 0.0,
        "capacity {CAPACITY} must evict:\n{metrics}"
    );
    assert!(
        counter_value(&metrics, "hom_serve_unparks_total") > 0.0,
        "returning streams must unpark:\n{metrics}"
    );
    assert!(
        metrics.contains("# TYPE hom_serve_batch_latency_ns histogram"),
        "{metrics}"
    );
    assert!(
        metrics.contains("hom_serve_batch_latency_ns_bucket{le=\"+Inf\"}"),
        "{metrics}"
    );
    if let Ok(out) = std::env::var("HOM_SMOKE_METRICS_OUT") {
        if !out.is_empty() {
            std::fs::write(&out, &metrics).expect("writing the scraped metrics body");
            println!("  scraped /metrics body saved to {out}");
        }
    }

    // /streams/<id> round-trips the posterior bit-for-bit, parked or
    // live.
    for stream in [0u64, 1, 42, STREAMS - 1] {
        let body = get(addr, &format!("/streams/{stream}"));
        let scraped = json::fields(&body, ["posterior"])
            .and_then(|[posterior]| posterior.f64_array())
            .expect("posterior parses");
        let truth = observed.posterior(stream).expect("stream was served");
        assert_eq!(scraped.len(), truth.len(), "stream {stream}: {body}");
        for (a, b) in scraped.iter().zip(&truth) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "stream {stream}: scraped posterior not bit-identical"
            );
        }
    }

    // /flight holds a parseable raw-event tail.
    let flight = get(addr, "/flight");
    assert!(!flight.is_empty(), "traffic left events in the ring");
    for line in flight.lines() {
        jsonl::parse_line(line).expect("flight line parses");
    }

    // /concepts reports live fleet analytics: every record carried a
    // label, so the absorbed counter equals the request count exactly,
    // and the per-concept families carry one labeled row per concept.
    let concepts = get(addr, "/concepts");
    assert!(
        concepts.contains(&format!("hom_concept_records_absorbed_total {REQUESTS}\n")),
        "absorbed counter missing or wrong:\n{concepts}"
    );
    assert!(
        counter_value(&concepts, "hom_concept_live_streams") > 0.0,
        "{concepts}"
    );
    assert!(
        concepts.contains("hom_concept_posterior_mass{concept=\"0\"}"),
        "per-concept posterior mass missing:\n{concepts}"
    );
    assert!(
        concepts.contains("hom_concept_map_streams{concept=\"0\"}"),
        "per-concept MAP share missing:\n{concepts}"
    );
    let mean_likelihood = counter_value(&concepts, "hom_concept_fleet_mean_likelihood");
    assert!(
        mean_likelihood > 0.0 && mean_likelihood <= 1.0,
        "fleet mean likelihood out of range:\n{concepts}"
    );
    if let Ok(out) = std::env::var("HOM_SMOKE_CONCEPTS_OUT") {
        if !out.is_empty() {
            std::fs::write(&out, &concepts).expect("writing the scraped concepts body");
            println!("  scraped /concepts body saved to {out}");
        }
    }

    // /slo tracks the batch-latency objective over the same cumulative
    // histogram `/metrics` exports — every submitted batch is counted.
    let slo = get(addr, "/slo");
    assert!(counter_value(&slo, "hom_slo_objective_ns") > 0.0, "{slo}");
    let slo_batches = counter_value(&slo, "hom_slo_batches_total");
    assert_eq!(
        slo_batches as usize,
        REQUESTS / BATCH,
        "SLO must count every batch:\n{slo}"
    );
    let compliance = counter_value(&slo, "hom_slo_compliance");
    assert!(
        (0.0..=1.0).contains(&compliance),
        "compliance out of range:\n{slo}"
    );
    assert!(counter_value(&slo, "hom_slo_burn_rate") >= 0.0, "{slo}");
    if let Ok(out) = std::env::var("HOM_SMOKE_SLO_OUT") {
        if !out.is_empty() {
            std::fs::write(&out, &slo).expect("writing the scraped SLO body");
            println!("  scraped /slo body saved to {out}");
        }
    }

    println!(
        "  ok: /healthz, /metrics ({evictions:.0} evictions), /streams/<id> \
         bit-for-bit, /flight ({} events), /concepts ({REQUESTS} absorbed), \
         /slo ({slo_batches:.0} batches)",
        flight.lines().count()
    );
    server.shutdown();

    // ── Phase 3: induced novelty trigger ships an incident report ──────
    let adapt_telemetry = ServeTelemetry::new();
    let adaptive = AdaptiveEngine::try_new(
        Arc::clone(&model),
        &ServeOptions {
            sink: adapt_telemetry.obs(),
            ..Default::default()
        },
        AdaptOptions {
            window: 40,
            min_segment: 300,
            max_segment: 700,
            sink: adapt_telemetry.obs(),
            ..Default::default()
        },
    )
    .expect("valid configuration");
    let dir = std::env::temp_dir().join(format!("hom-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dump = IncidentDump::new(Arc::clone(adapt_telemetry.flight()), &dir);
    let incident_path = dump.path_for(0);
    adaptive.set_incident_dump(dump);

    println!("pushing the monitor into the held-out concept …");
    for _ in 0..400 {
        let r = source.next_record();
        adaptive.step_monitor(&r.x, r.y);
    }
    let mut triggered_at = None;
    for t in 0..1_500usize {
        let mut r = source.next_record();
        r.y = stagger_label(NOVEL_CONCEPT, r.x[0], r.x[1], r.x[2]);
        let (_, event) = adaptive.step_monitor(&r.x, r.y);
        if matches!(event, Some(AdaptEvent::Triggered)) {
            triggered_at = Some(t);
            break;
        }
    }
    let triggered_at = triggered_at.expect("held-out concept must trigger the detector");
    assert_eq!(adaptive.incident_dumps(), 1, "trigger must ship one report");
    let report = std::fs::read_to_string(&incident_path).expect("incident report written");
    assert!(
        report.lines().any(|l| l.contains("adapt.evidence")),
        "incident report must hold the trigger window's evidence:\n{report}"
    );
    for line in report.lines() {
        jsonl::parse_line(line).expect("every incident line parses");
    }
    println!(
        "  ok: trigger after {triggered_at} novel records shipped {} \
         ({} events, adapt.evidence included)",
        incident_path.display(),
        report.lines().count()
    );
    let _ = std::fs::remove_dir_all(&dir);

    // The lifecycle digest CI compares across HOM_THREADS values.
    let mut digest = 0xcbf29ce484222325u64; // FNV-1a
    let mut fnv = |v: u64| {
        digest ^= v;
        digest = digest.wrapping_mul(0x100000001b3);
    };
    for &p in &quiet_preds {
        fnv(u64::from(p));
    }
    for bits in &quiet_posts {
        for &b in bits {
            fnv(b);
        }
    }
    println!("digest: {digest:#018x}");
}

/// The engine configuration under test — shared by the quiet and the
/// observed run, differing only in the sink.
fn engine_under_test(model: &Arc<HighOrderModel>, sink: Obs) -> ServeEngine {
    ServeEngine::with_options(
        Arc::clone(model),
        &ServeOptions {
            shards: Some(SHARDS),
            capacity: Some(CAPACITY),
            sink,
            ..Default::default()
        },
    )
}

/// Push the whole workload through the engine in batches; returns the
/// predictions in request order.
fn serve(engine: &ServeEngine, workload: &[StreamRecord]) -> Vec<ClassId> {
    let mut predictions = Vec::with_capacity(workload.len());
    for (b, chunk) in workload.chunks(BATCH).enumerate() {
        let batch: Vec<Request> = chunk
            .iter()
            .enumerate()
            .map(|(i, r)| Request::Step {
                stream: ((b * BATCH + i) as u64) % STREAMS,
                x: r.x.to_vec(),
                y: r.y,
            })
            .collect();
        for resp in engine.submit(&batch) {
            predictions.push(resp.prediction.expect("Step always predicts"));
        }
    }
    predictions
}

/// Every stream's posterior as raw bits, for exact comparison.
fn posterior_bits(engine: &ServeEngine) -> Vec<Vec<u64>> {
    (0..STREAMS)
        .map(|stream| {
            engine
                .posterior(stream)
                .expect("every stream was served")
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect()
}

/// One HTTP/1.1 GET against the introspection listener; asserts 200 and
/// returns the body.
fn get(addr: SocketAddr, path: &str) -> String {
    let (status, body) = http_request(addr, "GET", path, b"", Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("GET {path}: {e}"));
    assert_eq!(status, 200, "GET {path}");
    String::from_utf8(body).expect("UTF-8 body")
}

/// The value of an untyped/counter sample line `name <value>`.
fn counter_value(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} missing from /metrics"))
        .trim()
        .parse()
        .expect("sample value parses")
}
