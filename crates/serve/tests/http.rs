//! The introspection listener end to end, over real TCP: every route
//! answers, the JSON a scrape returns parses back **bit-for-bit** equal
//! to the engine's in-memory state, malformed requests get clean HTTP
//! errors, and serving introspection never changes a prediction.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hom_classifiers::DecisionTreeLearner;
use hom_cluster::ClusterParams;
use hom_core::{build, BuildParams, HighOrderModel};
use hom_data::stream::collect;
use hom_data::{StreamRecord, StreamSource};
use hom_datagen::{StaggerParams, StaggerSource};
use hom_serve::{
    MetricsConfigError, MetricsServer, Request, ServeEngine, ServeOptions, ServeTelemetry,
    METRICS_ADDR_ENV,
};

fn fixture() -> (Arc<HighOrderModel>, Vec<StreamRecord>) {
    let mut src = StaggerSource::new(StaggerParams {
        lambda: 0.01,
        ..Default::default()
    });
    let (data, _) = collect(&mut src, 3000);
    let (model, _) = build(
        &data,
        &DecisionTreeLearner::new(),
        &BuildParams {
            cluster: ClusterParams {
                block_size: 10,
                seed: 3,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let test: Vec<StreamRecord> = (0..500).map(|_| src.next_record()).collect();
    (Arc::new(model), test)
}

/// A one-shot HTTP/1.1 GET (what a scraper does): returns the status
/// line and the body.
fn get(addr: SocketAddr, path: &str) -> (String, String) {
    request(addr, "GET", path)
}

fn request(addr: SocketAddr, method: &str, path: &str) -> (String, String) {
    let mut conn = TcpStream::connect(addr).expect("listener accepts");
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("whole response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// The posterior array of a `/streams/<id>` body — shortest-round-trip
/// floats, so the parse is bit-exact.
fn posterior(body: &str) -> Vec<f64> {
    hom_obs::json::fields(body, ["posterior"])
        .and_then(|[posterior]| posterior.f64_array())
        .expect("posterior parses")
}

#[test]
fn routes_serve_live_state_bit_for_bit() {
    let (model, test) = fixture();
    let telemetry = ServeTelemetry::new();
    let engine = Arc::new(ServeEngine::with_options(
        Arc::clone(&model),
        &ServeOptions {
            shards: Some(4),
            sink: telemetry.obs(),
            ..Default::default()
        },
    ));
    // Traffic across a few streams, so there is state to introspect.
    let batch: Vec<Request> = test
        .iter()
        .enumerate()
        .map(|(i, r)| Request::Step {
            stream: (i % 8) as u64,
            x: r.x.to_vec(),
            y: r.y,
        })
        .collect();
    engine.submit(&batch);

    let server = MetricsServer::bind(Arc::clone(&engine), telemetry.clone(), "127.0.0.1:0")
        .expect("port 0 binds");
    let addr = server.addr();

    // /healthz: liveness JSON with engine-truth numbers.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"shards\":4"), "{body}");
    assert!(body.contains("\"model_epoch\":0"), "{body}");
    assert!(
        body.contains(&format!("\"live_streams\":{}", engine.live_streams())),
        "{body}"
    );

    // /shards: one entry per shard, totals matching the engine.
    let (status, body) = get(addr, "/shards");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body.matches("\"shard\":").count(), 4);
    let occupancy = engine.shard_occupancy();
    for (i, (live, parked)) in occupancy.iter().enumerate() {
        assert!(
            body.contains(&format!(
                "{{\"shard\":{i},\"live\":{live},\"parked\":{parked}}}"
            )),
            "shard {i} missing from {body}"
        );
    }

    // /metrics: Prometheus text with the serving counters & histogram.
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        body.contains("# TYPE hom_serve_records_predicted_total counter"),
        "{body}"
    );
    assert!(
        body.contains(&format!(
            "hom_serve_records_predicted_total {}\n",
            test.len()
        )),
        "{body}"
    );
    assert!(
        body.contains("# TYPE hom_serve_batch_latency_ns histogram"),
        "{body}"
    );
    assert!(body.contains("hom_serve_batch_latency_ns_bucket{le=\"+Inf\"}"));

    // /streams/<id>: the live posterior, bit-for-bit.
    let (status, body) = get(addr, "/streams/3");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"live\":true"), "{body}");
    let scraped = posterior(&body);
    let truth = engine
        .peek(3, |s| s.posterior().to_vec())
        .expect("stream 3 lives");
    assert_eq!(scraped.len(), truth.len());
    for (a, b) in scraped.iter().zip(&truth) {
        assert_eq!(a.to_bits(), b.to_bits(), "posterior not bit-identical");
    }

    // A parked stream is introspected without being unparked.
    assert!(engine.park(5));
    let truth = engine
        .peek(5, |s| s.posterior().to_vec())
        .expect("peek decodes parked");
    let (status, body) = get(addr, "/streams/5");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"live\":false"), "{body}");
    let scraped = posterior(&body);
    for (a, b) in scraped.iter().zip(&truth) {
        assert_eq!(a.to_bits(), b.to_bits(), "parked posterior differs");
    }
    assert_eq!(engine.parked_streams(), 1, "introspection must not unpark");

    // /flight: the raw-event tail as parseable JSONL.
    let (status, body) = get(addr, "/flight");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(!body.is_empty(), "traffic left events in the ring");
    for line in body.lines() {
        hom_obs::jsonl::parse_line(line).expect("flight line parses");
    }

    // Errors: unknown stream & route are 404, non-GET is 405.
    assert_eq!(get(addr, "/streams/424242").0, "HTTP/1.1 404 Not Found");
    assert_eq!(
        get(addr, "/streams/not-a-number").0,
        "HTTP/1.1 404 Not Found"
    );
    assert_eq!(get(addr, "/bogus").0, "HTTP/1.1 404 Not Found");
    // /trace/<id> takes exactly 16 lowercase hex digits, nonzero; an
    // unknown canonical id is a 200 with no spans.
    assert_eq!(get(addr, "/trace/00000000000000a1").0, "HTTP/1.1 200 OK");
    for bad in [
        "a1",
        "+00000000000000a1",
        "+0000000000000a1",
        "00000000000000A1",
        "0000000000000000",
    ] {
        assert_eq!(
            get(addr, &format!("/trace/{bad}")).0,
            "HTTP/1.1 400 Bad Request",
            "/trace/{bad}"
        );
    }
    assert_eq!(
        request(addr, "POST", "/metrics").0,
        "HTTP/1.1 405 Method Not Allowed"
    );

    server.shutdown();
}

#[test]
fn malformed_metrics_addr_is_a_typed_error() {
    let (model, _) = fixture();
    let telemetry = ServeTelemetry::new();
    let engine = Arc::new(ServeEngine::with_options(
        Arc::clone(&model),
        &ServeOptions {
            sink: telemetry.obs(),
            ..Default::default()
        },
    ));

    // Direct bind: not a socket address.
    let err = MetricsServer::bind(Arc::clone(&engine), telemetry.clone(), "nonsense")
        .expect_err("must be rejected");
    assert!(
        matches!(
            err,
            MetricsConfigError::InvalidAddr {
                from_env: false,
                ..
            }
        ),
        "{err}"
    );
    assert!(err.to_string().contains("ip:port"), "{err}");

    // Env hook: unset means no listener, set-but-malformed is an error
    // naming the variable — never a silent fallback.
    std::env::remove_var(METRICS_ADDR_ENV);
    assert!(
        MetricsServer::from_env(Arc::clone(&engine), telemetry.clone())
            .expect("unset is not an error")
            .is_none()
    );
    std::env::set_var(METRICS_ADDR_ENV, "not-an-addr");
    let err = MetricsServer::from_env(Arc::clone(&engine), telemetry.clone())
        .expect_err("malformed env value must be rejected");
    std::env::remove_var(METRICS_ADDR_ENV);
    assert!(
        matches!(err, MetricsConfigError::InvalidAddr { from_env: true, .. }),
        "{err}"
    );
    assert!(err.to_string().contains(METRICS_ADDR_ENV), "{err}");
}

/// Scraping while batches are in flight must not change a single
/// prediction: a hammered engine equals an unobserved one, bit for bit.
#[test]
fn concurrent_scraping_never_changes_predictions() {
    let (model, test) = fixture();

    let run = |with_server: bool| -> (Vec<u32>, Vec<Vec<u64>>) {
        let telemetry = ServeTelemetry::new();
        let engine = Arc::new(ServeEngine::with_options(
            Arc::clone(&model),
            &ServeOptions {
                shards: Some(4),
                sink: telemetry.obs(),
                ..Default::default()
            },
        ));
        let server = with_server.then(|| {
            MetricsServer::bind(Arc::clone(&engine), telemetry.clone(), "127.0.0.1:0")
                .expect("binds")
        });
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let scraper = server.as_ref().map(|s| {
            let addr = s.addr();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut scrapes = 0usize;
                loop {
                    for path in ["/metrics", "/healthz", "/shards", "/streams/1", "/flight"] {
                        get(addr, path);
                    }
                    scrapes += 1;
                    if stop.load(std::sync::atomic::Ordering::Acquire) {
                        return scrapes;
                    }
                }
            })
        });

        let mut predictions = Vec::new();
        for chunk in test.chunks(50) {
            let batch: Vec<Request> = chunk
                .iter()
                .enumerate()
                .map(|(i, r)| Request::Step {
                    stream: (i % 8) as u64,
                    x: r.x.to_vec(),
                    y: r.y,
                })
                .collect();
            for resp in engine.submit(&batch) {
                predictions.push(resp.prediction.expect("step predicts"));
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        if let Some(handle) = scraper {
            let scrapes = handle.join().expect("scraper thread");
            assert!(scrapes > 0, "the scraper must actually have scraped");
        }
        let posteriors: Vec<Vec<u64>> = (0..8)
            .map(|s| {
                engine
                    .peek(s, |st| st.posterior().iter().map(|v| v.to_bits()).collect())
                    .expect("stream lives")
            })
            .collect();
        (predictions, posteriors)
    };

    let (quiet_preds, quiet_posts) = run(false);
    let (scraped_preds, scraped_posts) = run(true);
    assert_eq!(quiet_preds, scraped_preds, "scraping changed a prediction");
    assert_eq!(quiet_posts, scraped_posts, "scraping changed a posterior");
}

/// The `/store` route: tier status as JSON when a durable store is
/// configured, a clean 404 when there is none.
#[test]
fn store_route_reports_tier_status_and_404s_without_one() {
    let (model, test) = fixture();

    // No store configured: /store is a 404, not a panic or empty 200.
    let telemetry = ServeTelemetry::new();
    let plain = Arc::new(ServeEngine::with_options(
        Arc::clone(&model),
        &ServeOptions {
            sink: telemetry.obs(),
            ..Default::default()
        },
    ));
    let server = MetricsServer::bind(Arc::clone(&plain), telemetry.clone(), "127.0.0.1:0")
        .expect("port 0 binds");
    assert_eq!(get(server.addr(), "/store").0, "HTTP/1.1 404 Not Found");
    server.shutdown();

    // Store configured: the route reports the tier's accounting.
    let store = Arc::new(
        hom_serve::StreamStore::open_with(
            Arc::new(hom_store::MemIo::new()) as Arc<dyn hom_store::StoreIo>,
            hom_store::StoreOptions {
                commit_interval_us: 0,
                sink: hom_obs::Obs::none(),
                ..Default::default()
            },
        )
        .expect("open store"),
    );
    let telemetry = ServeTelemetry::new();
    let engine = Arc::new(ServeEngine::with_options(
        Arc::clone(&model),
        &ServeOptions {
            capacity: Some(1),
            shards: Some(4),
            sink: telemetry.obs(),
            store: Some(Arc::clone(&store)),
            ..Default::default()
        },
    ));
    for (i, r) in test.iter().enumerate() {
        engine.step((i % 8) as u64, &r.x, r.y);
    }
    let server = MetricsServer::bind(Arc::clone(&engine), telemetry.clone(), "127.0.0.1:0")
        .expect("port 0 binds");
    let (status, body) = get(server.addr(), "/store");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let want = store.status();
    assert!(
        body.contains(&format!("\"parked\":{}", want.parked)),
        "parked count missing from {body}"
    );
    assert!(
        body.contains(&format!("\"commits\":{}", want.commits)),
        "commit count missing from {body}"
    );
    assert!(body.contains("\"degraded\":false"), "healthy store: {body}");
    assert!(
        body.contains("\"recovery\""),
        "recovery block missing: {body}"
    );
    server.shutdown();
}

/// A listener over a lightly trafficked engine.
fn served() -> (MetricsServer, Arc<ServeEngine>) {
    let (model, test) = fixture();
    let telemetry = ServeTelemetry::new();
    let engine = Arc::new(ServeEngine::with_options(
        model,
        &ServeOptions {
            shards: Some(2),
            sink: telemetry.obs(),
            ..Default::default()
        },
    ));
    for (i, r) in test.iter().take(50).enumerate() {
        engine.step((i % 4) as u64, &r.x, r.y);
    }
    let server =
        MetricsServer::bind(Arc::clone(&engine), telemetry, "127.0.0.1:0").expect("port 0 binds");
    (server, engine)
}

/// Write `bytes` on a fresh connection and read until the server hangs
/// up; a reply that has not ended within `within` fails the test rather
/// than hanging it, and so does a reset: the server closes cleanly even
/// after rejecting a request.
fn exchange(addr: SocketAddr, bytes: &[u8], within: Duration) -> String {
    let mut conn = TcpStream::connect(addr).expect("listener accepts");
    conn.set_read_timeout(Some(within)).unwrap();
    conn.write_all(bytes).expect("request sent");
    let mut reply = Vec::new();
    conn.read_to_end(&mut reply)
        .unwrap_or_else(|e| panic!("no clean end of reply within {within:?}: {e}"));
    String::from_utf8(reply).expect("UTF-8 reply")
}

/// `(status line, body)` of every `Content-Length`-framed response in
/// `raw`, in order.
fn responses(mut raw: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    while let Some((head, rest)) = raw.split_once("\r\n\r\n") {
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("framed response")
            .parse()
            .expect("numeric length");
        let status = head.lines().next().unwrap_or("").to_string();
        out.push((status, rest[..len].to_string()));
        raw = &rest[len..];
    }
    out
}

#[test]
fn an_idle_connection_does_not_stall_scrapes() {
    let (server, _engine) = served();
    // A peer that connects and never sends a byte…
    let _idle = TcpStream::connect(server.addr()).expect("listener accepts");
    // …must not hold up anyone else's scrape.
    for path in ["/metrics", "/healthz"] {
        let t0 = Instant::now();
        let request = format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
        let reply = exchange(server.addr(), request.as_bytes(), Duration::from_secs(2));
        let replies = responses(&reply);
        assert_eq!(replies.len(), 1, "{reply:?}");
        assert_eq!(replies[0].0, "HTTP/1.1 200 OK", "{path}");
        assert!(t0.elapsed() < Duration::from_secs(2), "{path} stalled");
    }
}

#[test]
fn an_endless_header_line_is_rejected_not_buffered() {
    let (server, _engine) = served();
    // Far more header bytes than the 16 KiB head cap, with no line end.
    let mut request = b"GET /healthz HTTP/1.1\r\nX-Junk: ".to_vec();
    request.extend(vec![b'a'; 32 << 10]);
    // The server drains what it did not read before closing, so the
    // 400 ends in a clean EOF, never a reset that could discard it.
    let reply = exchange(server.addr(), &request, Duration::from_secs(5));
    assert!(
        reply.starts_with("HTTP/1.1 400 Bad Request\r\n"),
        "{reply:?}"
    );
}

#[test]
fn pipelined_requests_share_one_keep_alive_connection() {
    let (server, engine) = served();
    let reply = exchange(
        server.addr(),
        b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n\
          GET /shards HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
        Duration::from_secs(5),
    );
    let replies = responses(&reply);
    assert_eq!(replies.len(), 2, "{reply:?}");
    assert_eq!(replies[0].0, "HTTP/1.1 200 OK");
    assert!(
        replies[0]
            .1
            .contains(&format!("\"live_streams\":{}", engine.live_streams())),
        "{}",
        replies[0].1
    );
    assert_eq!(replies[1].0, "HTTP/1.1 200 OK");
    assert_eq!(
        replies[1].1.matches("\"shard\":").count(),
        2,
        "{}",
        replies[1].1
    );
}

/// A [`hom_store::MemIo`] whose appends fail, once armed, with a message
/// full of characters JSON must escape.
struct FailingAppends {
    inner: hom_store::MemIo,
    armed: std::sync::atomic::AtomicBool,
}

impl hom_store::StoreIo for FailingAppends {
    fn append(&self, file: &str, bytes: &[u8]) -> std::io::Result<()> {
        if self.armed.load(std::sync::atomic::Ordering::Relaxed) {
            return Err(std::io::Error::other("disk \"a\"\nb\\c\t\u{1}"));
        }
        self.inner.append(file, bytes)
    }
    fn sync(&self, file: &str) -> std::io::Result<()> {
        self.inner.sync(file)
    }
    fn read(&self, file: &str) -> std::io::Result<Vec<u8>> {
        self.inner.read(file)
    }
    fn read_at(&self, file: &str, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        self.inner.read_at(file, offset, len)
    }
    fn truncate(&self, file: &str, len: u64) -> std::io::Result<()> {
        self.inner.truncate(file, len)
    }
    fn remove(&self, file: &str) -> std::io::Result<()> {
        self.inner.remove(file)
    }
    fn list(&self) -> std::io::Result<Vec<String>> {
        self.inner.list()
    }
}

/// A store error's message reaches `/store` as `last_error` escaped:
/// the body is valid JSON whatever bytes the I/O layer reported.
#[test]
fn store_route_escapes_the_last_error() {
    let (model, _) = fixture();
    let io = Arc::new(FailingAppends {
        inner: hom_store::MemIo::new(),
        armed: std::sync::atomic::AtomicBool::new(false),
    });
    let store = Arc::new(
        hom_serve::StreamStore::open_with(
            Arc::clone(&io) as Arc<dyn hom_store::StoreIo>,
            hom_store::StoreOptions {
                commit_interval_us: 0,
                sink: hom_obs::Obs::none(),
                ..Default::default()
            },
        )
        .expect("open store"),
    );
    let telemetry = ServeTelemetry::new();
    let engine = Arc::new(ServeEngine::with_options(
        model,
        &ServeOptions {
            sink: telemetry.obs(),
            store: Some(Arc::clone(&store)),
            ..Default::default()
        },
    ));
    io.armed.store(true, std::sync::atomic::Ordering::Relaxed);
    store.park(1, vec![1, 2, 3]);
    assert!(store.commit().is_err(), "the armed append fails the commit");
    let server = MetricsServer::bind(engine, telemetry, "127.0.0.1:0").expect("port 0 binds");
    let (status, body) = get(server.addr(), "/store");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let (object, end) = body.split_at(body.len() - 1);
    assert_eq!(end, "\n", "{body:?}");
    assert!(
        object.bytes().all(|b| b >= 0x20),
        "raw control byte in {body:?}"
    );
    for escape in ["\\\"", "\\\\", "\\n", "\\t", "\\u0001"] {
        assert!(object.contains(escape), "{escape} missing from {body:?}");
    }
    server.shutdown();
}
