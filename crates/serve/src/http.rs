//! The live introspection listener: Prometheus `/metrics` plus a JSON
//! API over a running [`ServeEngine`].
//!
//! [`MetricsServer`] is an [`HttpServer`] (see [`crate::transport`])
//! that answers every request with [`introspect`]: keep-alive HTTP/1.1
//! with `Content-Length` framing, a thread per connection behind a
//! 64-connection cap (`503` beyond it), a 16 KiB head cap and a 30 s
//! idle deadline, so one silent or slow client never stalls another's
//! scrape. A client that reads a response to EOF sends
//! `Connection: close`. `hom-cluster-serve`'s workers serve the same
//! routes through [`introspect`], after their own.
//!
//! | route | payload |
//! |---|---|
//! | `/metrics` | Prometheus text 0.0.4 rendered from the engine's [`ServeTelemetry`] aggregates ([`hom_obs::export`]) |
//! | `/healthz` | JSON liveness: model epoch, shard/thread counts, live/parked totals |
//! | `/shards` | JSON per-shard `(live, parked)` occupancy |
//! | `/streams/<id>` | JSON introspection of one stream — posterior, prior, prune order, likelihood/entropy evidence, parked/live, model epoch ([`ServeEngine::stream_info`]) |
//! | `/flight` | the flight recorder's ring as JSONL (same format as `HOM_TRACE`), capped at [`hom_obs::trace::DUMP_CAP`] events with a `flight.truncated` trailer when clipped |
//! | `/trace/<id>` | this node's span slice of distributed trace `<id>` (fixed-width lowercase hex) as JSONL; an unknown id is an empty 200 body — see [`hom_obs::TraceBuffer`] |
//! | `/concepts` | Prometheus text: fleet-wide per-concept posterior mass, MAP share and MAP hits (labeled by `concept`), plus mean Eq. 7 likelihood / posterior entropy / prune depth gauges ([`ServeEngine::concept_analytics`]) |
//! | `/slo` | Prometheus text: batch-latency SLO compliance, error-budget remaining and burn rate computed from the cumulative latency histogram ([`hom_obs::SloPolicy`]), plus deterministic slow-batch exemplars labeled `stream`/`shard` (and `trace` when the slow batch ran under a distributed trace) |
//!
//! JSON bodies are written by [`hom_obs::json::Writer`], whose floats are
//! Rust's shortest round-trip decimal, so a scraped posterior parses back
//! **bit-for-bit** equal to the engine's in-memory `FilterState` — the
//! property `examples/serve_smoke.rs` asserts end-to-end.
//!
//! Serving introspection never changes a prediction: every route reads
//! through the engine's non-mutating accessors ([`ServeEngine::peek`]
//! semantics), and `/metrics` only flushes already-accumulated trace
//! counters into the aggregation sink.
//!
//! # The `HOM_METRICS_ADDR` knob
//!
//! [`MetricsServer::from_env`] binds to `$HOM_METRICS_ADDR` (an
//! `ip:port` socket address, e.g. `127.0.0.1:9464`; port `0` picks a
//! free port, see [`MetricsServer::addr`]). Unset or empty means no
//! listener; a set-but-malformed value is a typed
//! [`MetricsConfigError`], never silently ignored — the same
//! no-silent-fallback convention as `HOM_SERVE_SHARDS` and `HOM_TRACE`.

use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;

use hom_obs::exemplar::push_exemplars;
use hom_obs::json::object_line;
use hom_obs::trace::DUMP_CAP;
use hom_obs::{export, AggSink, Fanout, FlightRecorder, Histogram, Obs, TraceBuffer};

use crate::engine::ServeEngine;
use crate::request::StreamId;
use crate::transport::{HttpRequest, HttpResponse, HttpServer};

/// The environment variable [`MetricsServer::from_env`] reads: the
/// `ip:port` to serve the metrics/introspection API on.
pub const METRICS_ADDR_ENV: &str = "HOM_METRICS_ADDR";

/// A rejected metrics-listener configuration. Like
/// [`crate::ConfigError`], a value the operator set deliberately is
/// never silently ignored.
#[derive(Debug)]
pub enum MetricsConfigError {
    /// The address does not parse as an `ip:port` socket address.
    /// `from_env` says whether it came from [`METRICS_ADDR_ENV`].
    InvalidAddr {
        /// The rejected value.
        got: String,
        /// `true` when the value was read from [`METRICS_ADDR_ENV`].
        from_env: bool,
        /// The parser's complaint.
        source: std::net::AddrParseError,
    },
    /// The address parsed but could not be bound (port in use,
    /// unroutable interface, insufficient privileges …).
    Bind {
        /// The address that failed to bind.
        addr: SocketAddr,
        /// The OS error.
        source: std::io::Error,
    },
}

impl fmt::Display for MetricsConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsConfigError::InvalidAddr {
                got,
                from_env,
                source,
            } => {
                let origin = if *from_env {
                    METRICS_ADDR_ENV
                } else {
                    "metrics address"
                };
                write!(
                    f,
                    "invalid {origin}={got}: expected ip:port (e.g. 127.0.0.1:9464): {source}"
                )
            }
            MetricsConfigError::Bind { addr, source } => {
                write!(f, "cannot bind metrics listener on {addr}: {source}")
            }
        }
    }
}

impl std::error::Error for MetricsConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MetricsConfigError::InvalidAddr { source, .. } => Some(source),
            MetricsConfigError::Bind { source, .. } => Some(source),
        }
    }
}

/// The telemetry bundle a served engine records into: an
/// [`AggSink`] (live aggregates for `/metrics`) fanned out with a
/// [`FlightRecorder`] (bounded raw-event tail for `/flight` and
/// trigger dumps), behind one [`Obs`] handle.
///
/// Build one, hand [`Self::obs`] to `ServeOptions { sink }` (and
/// `AdaptOptions { sink }` if adapting), and give the bundle itself to
/// [`MetricsServer::bind`]:
///
/// ```no_run
/// # use std::sync::Arc;
/// # use hom_serve::{MetricsServer, ServeEngine, ServeOptions, ServeTelemetry};
/// # fn model() -> Arc<hom_core::HighOrderModel> { unimplemented!() }
/// let telemetry = ServeTelemetry::new();
/// let engine = Arc::new(ServeEngine::with_options(
///     model(),
///     &ServeOptions { sink: telemetry.obs(), ..Default::default() },
/// ));
/// let server = MetricsServer::bind(engine, telemetry, "127.0.0.1:0").unwrap();
/// println!("metrics on http://{}/metrics", server.addr());
/// ```
#[derive(Debug, Clone)]
pub struct ServeTelemetry {
    agg: Arc<AggSink>,
    flight: Arc<FlightRecorder>,
    traces: Arc<TraceBuffer>,
    obs: Obs,
}

impl Default for ServeTelemetry {
    fn default() -> Self {
        ServeTelemetry::new()
    }
}

impl ServeTelemetry {
    /// A bundle with the default flight-recorder capacity
    /// ([`FlightRecorder::DEFAULT_CAPACITY`]) and the trace buffer sized
    /// by `$HOM_TRACE_BUFFER` (default
    /// [`TraceBuffer::DEFAULT_CAPACITY`]).
    ///
    /// # Panics
    ///
    /// On a set-but-malformed `$HOM_TRACE_BUFFER` — like
    /// [`Obs::from_env`], misconfiguration must surface, not silently
    /// fall back.
    pub fn new() -> Self {
        Self::with_flight_capacity(FlightRecorder::DEFAULT_CAPACITY)
    }

    /// A bundle whose flight recorder retains (approximately) the last
    /// `capacity` events; the trace buffer is sized from the
    /// environment as in [`Self::new`] (and panics the same way).
    pub fn with_flight_capacity(capacity: usize) -> Self {
        let traces = TraceBuffer::from_env().unwrap_or_else(|e| panic!("{e}"));
        Self::with_capacities(capacity, traces.capacity())
    }

    /// A bundle with both capacities explicit (no environment reads):
    /// `flight_capacity` events of raw tail, `trace_capacity` traced
    /// span events for `/trace/<id>`.
    pub fn with_capacities(flight_capacity: usize, trace_capacity: usize) -> Self {
        let agg = Arc::new(AggSink::new());
        let flight = Arc::new(FlightRecorder::new(flight_capacity));
        let traces = Arc::new(TraceBuffer::new(trace_capacity));
        let obs = Obs::new(
            Fanout::new()
                .with(Arc::clone(&agg))
                .with(Arc::clone(&flight))
                .with(Arc::clone(&traces)),
        );
        ServeTelemetry {
            agg,
            flight,
            traces,
            obs,
        }
    }

    /// The handle to record through — pass to `ServeOptions { sink }` /
    /// `AdaptOptions { sink }`.
    pub fn obs(&self) -> Obs {
        self.obs.clone()
    }

    /// The live aggregates (what `/metrics` renders).
    pub fn agg(&self) -> &Arc<AggSink> {
        &self.agg
    }

    /// The flight recorder (what `/flight` dumps).
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// The per-node trace buffer (what `/trace/<id>` slices).
    pub fn traces(&self) -> &Arc<TraceBuffer> {
        &self.traces
    }
}

/// The introspection listener (see the [module docs](self)): an
/// [`HttpServer`] answering every request with [`introspect`]. Dropping
/// the server (or calling [`Self::shutdown`]) stops it and joins its
/// threads.
#[derive(Debug)]
pub struct MetricsServer {
    server: HttpServer,
}

impl MetricsServer {
    /// Bind `addr` (an `ip:port`; port `0` picks a free one — read it
    /// back with [`Self::addr`]) and start serving the engine's
    /// introspection API on a background thread.
    pub fn bind(
        engine: Arc<ServeEngine>,
        telemetry: ServeTelemetry,
        addr: &str,
    ) -> Result<Self, MetricsConfigError> {
        Self::bind_inner(engine, telemetry, addr, false)
    }

    /// Bind to `$HOM_METRICS_ADDR` when set: `Ok(None)` when unset or
    /// empty (no listener — the common non-operational case), a typed
    /// [`MetricsConfigError`] when set but malformed or unbindable.
    pub fn from_env(
        engine: Arc<ServeEngine>,
        telemetry: ServeTelemetry,
    ) -> Result<Option<Self>, MetricsConfigError> {
        match std::env::var(METRICS_ADDR_ENV) {
            Ok(addr) if !addr.is_empty() => {
                Self::bind_inner(engine, telemetry, &addr, true).map(Some)
            }
            _ => Ok(None),
        }
    }

    fn bind_inner(
        engine: Arc<ServeEngine>,
        telemetry: ServeTelemetry,
        addr: &str,
        from_env: bool,
    ) -> Result<Self, MetricsConfigError> {
        let addr: SocketAddr = addr
            .parse()
            .map_err(|source| MetricsConfigError::InvalidAddr {
                got: addr.to_string(),
                from_env,
                source,
            })?;
        let server = HttpServer::bind(
            addr,
            "hom-metrics",
            Arc::new(move |req: &HttpRequest| introspect(&engine, &telemetry, req)),
        )
        .map_err(|source| MetricsConfigError::Bind { addr, source })?;
        Ok(MetricsServer { server })
    }

    /// The address actually bound — what to scrape, and where the
    /// OS-chosen port of a `:0` bind shows up.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stop serving and join the listener's threads. Equivalent to
    /// dropping the server, but explicit at call sites that care about
    /// ordering.
    pub fn shutdown(self) {
        drop(self.server);
    }
}

/// Answer one introspection request: the routes in the
/// [module docs](self), and `405` for anything but `GET`.
pub fn introspect(
    engine: &ServeEngine,
    telemetry: &ServeTelemetry,
    req: &HttpRequest,
) -> HttpResponse {
    if req.method != "GET" {
        return HttpResponse {
            status: "405 Method Not Allowed",
            content_type: "text/plain",
            body: b"only GET is served\n".to_vec(),
        };
    }
    let path = req.path.as_str();
    match path {
        "/metrics" => {
            // Move the engine's accumulated counters/histograms into the
            // aggregation sink so the scrape reflects the latest traffic.
            engine.flush_trace();
            HttpResponse::ok(
                export::CONTENT_TYPE,
                export::to_prometheus(&telemetry.agg().snapshot()),
            )
        }
        "/concepts" => {
            // Flush so the cumulative aggregates behind /metrics and the
            // fold below describe the same traffic.
            engine.flush_trace();
            HttpResponse::ok(export::CONTENT_TYPE, concepts_prom(engine))
        }
        "/slo" => {
            // Flush first: the SLO is computed over the *cumulative*
            // batch-latency histogram in the aggregation sink, which
            // only sees the latest interval after a flush.
            engine.flush_trace();
            HttpResponse::ok(export::CONTENT_TYPE, slo_prom(engine, telemetry))
        }
        "/healthz" => HttpResponse::ok("application/json", healthz_json(engine)),
        "/shards" => HttpResponse::ok("application/json", shards_json(engine)),
        "/store" => match engine.store() {
            Some(store) => HttpResponse::ok("application/json", store_json(store)),
            None => HttpResponse::not_found("no durable store configured"),
        },
        "/flight" => HttpResponse::ok(
            "application/x-ndjson",
            // Capped: a hot node's ring must not translate into an
            // unbounded response body. A clipped dump ends with a
            // `flight.truncated` count event.
            telemetry.flight().dump_jsonl_capped(DUMP_CAP),
        ),
        _ => {
            if let Some(hex) = path.strip_prefix("/trace/") {
                // Trace ids are fixed-width lowercase hex everywhere
                // (header, exemplar label, this URL). An unknown id is a
                // 200 with an empty body — "no spans here" is a valid
                // answer the router's federation relies on.
                return match hom_obs::parse_trace_id(hex) {
                    Some(id) => HttpResponse::ok(
                        "application/x-ndjson",
                        telemetry.traces().slice_jsonl(id, DUMP_CAP),
                    ),
                    None => HttpResponse::bad_request("bad trace id"),
                };
            }
            if let Some(id) = path.strip_prefix("/streams/") {
                return match id
                    .parse::<StreamId>()
                    .ok()
                    .and_then(|id| engine.stream_info(id).map(|info| stream_json(id, &info)))
                {
                    Some(body) => HttpResponse::ok("application/json", body),
                    None => HttpResponse::not_found("no such stream"),
                };
            }
            HttpResponse::not_found("no such route")
        }
    }
}

fn healthz_json(engine: &ServeEngine) -> String {
    object_line(|w| {
        w.key("status").str("ok");
        w.key("model_epoch").u64(engine.epoch().into());
        w.key("shards").u64(engine.n_shards() as u64);
        w.key("threads").u64(engine.threads() as u64);
        w.key("live_streams").u64(engine.live_streams() as u64);
        w.key("parked_streams").u64(engine.parked_streams() as u64);
    })
}

/// The durable tier's shape, counters and degraded-mode signal — the
/// `/store` payload, everything an operator needs to answer "is my
/// parked state actually on disk, and how much of it is garbage".
fn store_json(store: &hom_store::StreamStore) -> String {
    let s = store.status();
    let last_error = store.health().last_error.map(|e| e.to_string());
    object_line(|w| {
        for (key, v) in [
            ("parked", s.parked as u64),
            ("pending_records", s.pending_records as u64),
            ("pending_bytes", s.pending_bytes as u64),
            ("segments", s.segments as u64),
            ("live_bytes", s.live_bytes),
            ("dead_bytes", s.dead_bytes),
            ("commits", s.commits),
            ("commit_records", s.commit_records),
            ("seals", s.seals),
            ("compactions", s.compactions),
            ("reclaimed_bytes", s.reclaimed_bytes),
            ("disk_unparks", s.disk_unparks),
            ("io_errors", s.io_errors),
        ] {
            w.key(key).u64(v);
        }
        w.key("degraded").bool(s.degraded);
        w.key("last_error");
        match &last_error {
            Some(e) => w.str(e),
            None => w.null(),
        };
        let r = &s.recovery;
        w.key("recovery").object(|w| {
            w.key("files").u64(r.files as u64);
            w.key("records").u64(r.records as u64);
            w.key("streams").u64(r.streams as u64);
            w.key("truncated_bytes").u64(r.truncated_bytes);
            w.key("duration_ns").u64(r.duration_ns);
        });
    })
}

fn shards_json(engine: &ServeEngine) -> String {
    object_line(|w| {
        w.key("shards").array(|w| {
            for (i, (live, parked)) in engine.shard_occupancy().into_iter().enumerate() {
                w.object(|w| {
                    w.key("shard").u64(i as u64);
                    w.key("live")
                        .u64(live as u64)
                        .key("parked")
                        .u64(parked as u64);
                });
            }
        });
    })
}

/// One unlabeled Prometheus sample with its family header.
fn push_sample(out: &mut String, name: &str, kind: &str, help: &str, value: f64) {
    export::push_header(out, name, kind, help);
    out.push_str(name);
    out.push(' ');
    out.push_str(&export::prom_f64(value));
    out.push('\n');
}

/// One per-concept family: a gauge sample per concept index, labeled
/// `concept="<i>"`. Obs event names are `&'static str`, so dynamic
/// per-concept labels render here instead of through the sink.
fn push_per_concept(out: &mut String, name: &str, help: &str, values: &[f64]) {
    export::push_header(out, name, "gauge", help);
    for (c, &v) in values.iter().enumerate() {
        out.push_str(name);
        out.push_str("{concept=\"");
        out.push_str(&c.to_string());
        out.push_str("\"} ");
        out.push_str(&export::prom_f64(v));
        out.push('\n');
    }
}

fn concepts_prom(engine: &ServeEngine) -> String {
    let a = engine.concept_analytics();
    let n = a.posterior_mass.len();
    let mut out = String::with_capacity(768 + 128 * n);
    push_sample(
        &mut out,
        "hom_concept_live_streams",
        "gauge",
        "live streams folded into this concept snapshot (hom-serve)",
        a.live_streams as f64,
    );
    push_per_concept(
        &mut out,
        "hom_concept_posterior_mass",
        "fleet-wide sum of per-stream posterior probability per concept (hom-serve)",
        &a.posterior_mass,
    );
    let map_streams: Vec<f64> = a.map_streams.iter().map(|&v| v as f64).collect();
    push_per_concept(
        &mut out,
        "hom_concept_map_streams",
        "live streams whose MAP (argmax-prior) concept is this one (hom-serve)",
        &map_streams,
    );
    let map_hits: Vec<f64> = a.map_hits.iter().map(|&v| v as f64).collect();
    push_per_concept(
        &mut out,
        "hom_concept_map_hits",
        "cumulative absorbed records whose MAP concept was this one (hom-serve)",
        &map_hits,
    );
    push_sample(
        &mut out,
        "hom_concept_records_absorbed_total",
        "counter",
        "labeled records absorbed into the fleet evidence (hom-serve)",
        a.absorbed as f64,
    );
    push_sample(
        &mut out,
        "hom_concept_fleet_mean_likelihood",
        "gauge",
        "mean Eq. 7 likelihood over all absorbed records (hom-serve)",
        a.mean_likelihood,
    );
    push_sample(
        &mut out,
        "hom_concept_fleet_mean_entropy",
        "gauge",
        "mean normalized posterior entropy over live streams (hom-serve)",
        a.mean_entropy,
    );
    push_sample(
        &mut out,
        "hom_concept_mean_prune_depth",
        "gauge",
        "mean concepts consulted per pruned prediction (hom-serve)",
        a.mean_prune_depth,
    );
    push_sample(
        &mut out,
        "hom_concept_pruned_fraction",
        "gauge",
        "fraction of predictions that early-terminated the concept scan (hom-serve)",
        a.pruned_fraction,
    );
    out
}

fn slo_prom(engine: &ServeEngine, telemetry: &ServeTelemetry) -> String {
    let policy = engine.slo_policy();
    let snap = telemetry.agg().snapshot();
    let empty = Histogram::new();
    let hist = snap.hist("serve.batch_latency_ns").unwrap_or(&empty);
    let status = policy.status(hist);
    let (exemplars, captured) = engine.exemplars();
    let mut out = String::with_capacity(1024 + 128 * exemplars.len());
    push_sample(
        &mut out,
        "hom_slo_objective_ns",
        "gauge",
        "batch latency objective in nanoseconds (hom-serve)",
        policy.objective_ns(),
    );
    push_sample(
        &mut out,
        "hom_slo_target",
        "gauge",
        "target fraction of batches within the objective (hom-serve)",
        policy.target(),
    );
    push_sample(
        &mut out,
        "hom_slo_batches_total",
        "counter",
        "batches measured against the objective (hom-serve)",
        status.total as f64,
    );
    push_sample(
        &mut out,
        "hom_slo_batches_good_total",
        "counter",
        "batches within the objective (hom-serve)",
        status.good as f64,
    );
    push_sample(
        &mut out,
        "hom_slo_batches_bad_total",
        "counter",
        "batches over the objective (hom-serve)",
        status.bad as f64,
    );
    push_sample(
        &mut out,
        "hom_slo_compliance",
        "gauge",
        "fraction of batches within the objective, 1 when idle (hom-serve)",
        status.compliance,
    );
    push_sample(
        &mut out,
        "hom_slo_error_budget_remaining",
        "gauge",
        "fraction of the error budget left, negative when exhausted (hom-serve)",
        status.budget_remaining,
    );
    push_sample(
        &mut out,
        "hom_slo_burn_rate",
        "gauge",
        "error budget burn rate, 1 burns exactly on budget (hom-serve)",
        status.burn_rate,
    );
    push_sample(
        &mut out,
        "hom_slo_exemplars_captured_total",
        "counter",
        "slow-batch exemplars ever captured, including evicted (hom-serve)",
        captured as f64,
    );
    push_exemplars(&mut out, "hom_slo_exemplar_batch_ns", &exemplars);
    out
}

fn stream_json(id: StreamId, info: &crate::engine::StreamInfo) -> String {
    let intro = &info.introspection;
    object_line(|w| {
        w.key("stream").u64(id).key("live").bool(info.live);
        w.key("model_epoch").u64(info.epoch.into());
        w.key("current_concept").u64(intro.current_concept as u64);
        w.key("last_likelihood").f64(intro.last_likelihood);
        w.key("posterior_entropy").f64(intro.posterior_entropy);
        w.key("posterior").f64s(&intro.posterior);
        w.key("prior").f64s(&intro.prior);
        w.key("order")
            .u64s(intro.order.iter().map(|&c| u64::from(c)));
    })
}
