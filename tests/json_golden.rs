//! Golden corpus of every JSON body the library writes: exact bytes for
//! fixed inputs.
//!
//! It covers the introspection routes (`/healthz`, `/shards`,
//! `/streams/<id>`, `/store`), the worker's control replies, the
//! router's replies and the bodies it sends its workers, the JSONL trace
//! line of every event kind, the router's client-edge JSONL lines, and
//! the two-space layout of the `HOM_JSON_DIR` dumps. A change to any
//! writer that moves one byte of these fails here.
//!
//! Inputs are literal wherever the body allows: a model of three
//! majority-vote concepts, stream states restored from literal
//! snapshots, and fake workers with canned replies. Only values that
//! cannot be fixed (ports, the store's recovery time) are read back
//! from the system under test.

use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hom_classifiers::{Classifier, MajorityClassifier};
use hom_cluster_serve::{wire, Router, RouterServer, WorkerServer};
use hom_core::{encode_model, encode_snapshot, Concept, HighOrderModel, TransitionStats};
use hom_data::{Attribute, Schema};
use hom_obs::{jsonl, Histogram, OwnedEvent};
use hom_serve::transport::{http_request, HttpRequest, HttpResponse, HttpServer};
use hom_serve::{
    MetricsServer, Request, Response, ServeEngine, ServeOptions, ServeTelemetry, StreamStore,
};

/// `1e300` and `5e-324` as `f64`'s `Display` writes them: positional
/// digits, never an exponent.
fn e300() -> String {
    format!("1{}", "0".repeat(300))
}

fn e_minus_324() -> String {
    format!("0.{}5", "0".repeat(323))
}

const TIMEOUT: Duration = Duration::from_secs(10);

/// A stream id past 2⁵³, where an `f64` detour would round it.
const BIG: u64 = (1 << 53) + 1;

/// Three majority-vote concepts over a two-attribute schema: nothing
/// trained, so every number the routes report is a literal below.
fn model() -> Arc<HighOrderModel> {
    let schema = Schema::new(
        vec![Attribute::numeric("a"), Attribute::numeric("b")],
        ["neg", "pos"],
    );
    let concepts = [[10, 3], [2, 9], [5, 6]]
        .iter()
        .enumerate()
        .map(|(id, counts)| Concept {
            id,
            model: Arc::new(MajorityClassifier::from_counts(counts)) as Arc<dyn Classifier>,
            err: 0.125 * (id + 1) as f64,
            n_records: 100,
            n_occurrences: 2,
        })
        .collect();
    let stats = TransitionStats::from_occurrences(3, &[(0, 50), (1, 60), (2, 40), (0, 30)]);
    Arc::new(HighOrderModel::from_parts(schema, concepts, stats))
}

/// A literal filter state as an epoch-0 snapshot.
fn snapshot(posterior: [f64; 3], prior: [f64; 3], order: [u32; 3]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_snapshot(&mut out, 0, &posterior, &prior, &order);
    out
}

fn state_a() -> Vec<u8> {
    snapshot([0.25, 0.5, 0.25], [0.125, 0.375, 0.5], [1, 0, 2])
}

fn state_b() -> Vec<u8> {
    snapshot([0.1, 0.2, 0.7000000000000001], [1.0, 0.0, 0.0], [2, 1, 0])
}

/// An engine holding streams 7 and [`BIG`], restored from literal
/// snapshots.
fn engine(store: Option<Arc<StreamStore>>, telemetry: &ServeTelemetry) -> Arc<ServeEngine> {
    let engine = Arc::new(ServeEngine::with_options(
        model(),
        &ServeOptions {
            shards: Some(2),
            threads: Some(1),
            sink: telemetry.obs(),
            store,
            ..Default::default()
        },
    ));
    engine.restore(7, &state_a()).expect("literal snapshot");
    engine.restore(BIG, &state_b()).expect("literal snapshot");
    engine
}

fn get(addr: SocketAddr, path: &str) -> String {
    call(addr, "GET", path, b"")
}

fn call(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> String {
    let (status, body) = send(addr, method, path, body);
    assert_eq!(status, 200, "{method} {path}: {body}");
    body
}

fn send(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let (status, body) = http_request(addr, method, path, body, TIMEOUT).expect("reachable");
    (status, String::from_utf8(body).expect("UTF-8 body"))
}

#[test]
fn introspection_bodies_are_pinned() {
    let store = Arc::new(
        StreamStore::open_with(
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
    let engine = engine(Some(Arc::clone(&store)), &telemetry);
    let server = MetricsServer::bind(Arc::clone(&engine), telemetry, "127.0.0.1:0").unwrap();
    let addr = server.addr();

    assert_eq!(
        get(addr, "/healthz"),
        "{\"status\":\"ok\",\"model_epoch\":0,\"shards\":2,\"threads\":1,\
         \"live_streams\":2,\"parked_streams\":0}\n"
    );
    assert_eq!(
        get(addr, "/shards"),
        "{\"shards\":[{\"shard\":0,\"live\":2,\"parked\":0},{\"shard\":1,\"live\":0,\"parked\":0}]}\n"
    );
    // The entropy goes through the platform's `ln`, so it is read back
    // rather than written out.
    let entropy = |id| {
        engine
            .stream_info(id)
            .unwrap()
            .introspection
            .posterior_entropy
    };
    assert_eq!(
        get(addr, "/streams/7"),
        format!(
            "{{\"stream\":7,\"live\":true,\"model_epoch\":0,\"current_concept\":2,\
             \"last_likelihood\":1,\"posterior_entropy\":{},\
             \"posterior\":[0.25,0.5,0.25],\"prior\":[0.125,0.375,0.5],\"order\":[1,0,2]}}\n",
            entropy(7)
        )
    );
    assert_eq!(
        get(addr, &format!("/streams/{BIG}")),
        format!(
            "{{\"stream\":9007199254740993,\"live\":true,\"model_epoch\":0,\"current_concept\":0,\
             \"last_likelihood\":1,\"posterior_entropy\":{},\
             \"posterior\":[0.1,0.2,0.7000000000000001],\"prior\":[1,0,0],\"order\":[2,1,0]}}\n",
            entropy(BIG)
        )
    );
    let recovery_ns = store.status().recovery.duration_ns;
    assert_eq!(
        get(addr, "/store"),
        format!(
            "{{\"parked\":0,\"pending_records\":0,\"pending_bytes\":0,\"segments\":0,\
             \"live_bytes\":0,\"dead_bytes\":0,\"commits\":0,\"commit_records\":0,\
             \"seals\":0,\"compactions\":0,\"reclaimed_bytes\":0,\"disk_unparks\":0,\
             \"io_errors\":0,\"degraded\":false,\"last_error\":null,\"recovery\":{{\
             \"files\":0,\"records\":0,\"streams\":0,\"truncated_bytes\":0,\
             \"duration_ns\":{recovery_ns}}}}}\n"
        )
    );
    server.shutdown();
}

#[test]
fn worker_control_bodies_are_pinned() {
    let telemetry = ServeTelemetry::new();
    let engine = engine(None, &telemetry);
    let worker = WorkerServer::bind(
        "127.0.0.1:0".parse().unwrap(),
        Arc::clone(&engine),
        Arc::new(telemetry),
    )
    .unwrap();
    let addr = worker.addr();
    let hex_a = wire::to_hex(&state_a());

    assert_eq!(
        call(addr, "GET", "/healthz", b""),
        "{\"epoch\":0,\"live\":2,\"parked\":0}\n"
    );
    assert_eq!(
        call(addr, "GET", "/cluster/info", b""),
        "{\"epoch\":0,\"streams\":[7,9007199254740993]}\n"
    );
    assert_eq!(
        call(addr, "GET", "/posterior/7", b""),
        "{\"stream\":7,\"posterior\":[0.25,0.5,0.25]}\n"
    );
    assert_eq!(
        call(addr, "POST", "/migrate/snapshot", b"{\"stream\":7}"),
        format!("{{\"stream\":7,\"snapshot\":\"{hex_a}\"}}\n")
    );
    assert_eq!(
        call(addr, "POST", "/migrate/out", b"{\"stream\":7}"),
        format!("{{\"stream\":7,\"snapshot\":\"{hex_a}\"}}\n")
    );
    let in_body = format!("{{\"stream\":8,\"snapshot\":\"{hex_a}\"}}");
    assert_eq!(
        call(addr, "POST", "/migrate/in", in_body.as_bytes()),
        "{\"stream\":8}\n"
    );
    assert_eq!(
        call(addr, "POST", "/migrate/evict", b"{\"stream\":8}"),
        "{\"stream\":8}\n"
    );
    let blob = encode_model(&model(), 1).expect("majority concepts encode");
    assert_eq!(
        call(addr, "POST", "/swap/prepare", &blob),
        "{\"epoch\":1}\n"
    );
    assert_eq!(
        call(addr, "POST", "/swap/commit", b"{\"epoch\":1}"),
        "{\"epoch\":1}\n"
    );
    assert_eq!(call(addr, "POST", "/quiesce", b""), "{\"parked\":1}\n");
    assert_eq!(
        call(addr, "GET", "/healthz", b""),
        "{\"epoch\":1,\"live\":0,\"parked\":1}\n"
    );
}

/// A fake worker: canned replies, and a log of every request it got.
fn fake_worker(log: Arc<Mutex<Vec<(String, String)>>>) -> HttpServer {
    HttpServer::bind(
        "127.0.0.1:0".parse().unwrap(),
        "fake-worker",
        Arc::new(move |req: &HttpRequest| {
            let body = String::from_utf8_lossy(&req.body).into_owned();
            log.lock().unwrap().push((req.path.clone(), body));
            let reply = match req.path.as_str() {
                "/healthz" => "{\"epoch\":3,\"live\":4,\"parked\":5}\n",
                "/swap/prepare" | "/swap/commit" => "{\"epoch\":1}\n",
                "/migrate/snapshot" => "{\"stream\":7,\"snapshot\":\"00ff\"}\n",
                "/migrate/in" | "/migrate/evict" => "{\"stream\":7}\n",
                path if path.starts_with("/trace/") => {
                    "{\"ev\":\"count\",\"span\":0,\"name\":\"x\",\"n\":1,\"t_us\":2}\n\
                     {\"ev\":\"count\",\"span\":0,\"name\":\"y\",\"n\":3,\"t_us\":4}\n"
                }
                _ => return HttpResponse::not_found("no"),
            };
            HttpResponse::ok("application/json", reply.to_string())
        }),
    )
    .unwrap()
}

#[test]
fn router_bodies_are_pinned() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let w0 = fake_worker(Arc::clone(&log));
    let w1 = fake_worker(Arc::clone(&log));
    // A worker address nothing listens on: reported, not an error.
    let dead = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let router = Arc::new(Router::new(vec![w0.addr(), w1.addr(), dead], 16, TIMEOUT).unwrap());
    let server = RouterServer::bind("127.0.0.1:0".parse().unwrap(), Arc::clone(&router)).unwrap();
    let addr = server.addr();

    assert_eq!(call(addr, "GET", "/healthz", b""), "{\"workers\":3}\n");
    assert_eq!(
        call(addr, "GET", "/cluster", b""),
        format!(
            "{{\"workers\":[\
             {{\"worker\":0,\"addr\":\"{}\",\"healthy\":true,\"epoch\":3,\"live\":4,\"parked\":5}},\
             {{\"worker\":1,\"addr\":\"{}\",\"healthy\":true,\"epoch\":3,\"live\":4,\"parked\":5}},\
             {{\"worker\":2,\"addr\":\"{dead}\",\"healthy\":false,\"epoch\":0,\"live\":0,\"parked\":0}}\
             ]}}\n",
            w0.addr(),
            w1.addr()
        )
    );

    // A two-worker router for the swap and migration bodies.
    let router = Arc::new(Router::new(vec![w0.addr(), w1.addr()], 16, TIMEOUT).unwrap());
    let server = RouterServer::bind("127.0.0.1:0".parse().unwrap(), Arc::clone(&router)).unwrap();
    log.lock().unwrap().clear();
    let blob = encode_model(&model(), 1).expect("majority concepts encode");
    assert_eq!(
        call(server.addr(), "POST", "/swap", &blob),
        "{\"epoch\":1}\n"
    );
    let commits: Vec<String> = log
        .lock()
        .unwrap()
        .iter()
        .filter(|(path, _)| path == "/swap/commit")
        .map(|(_, body)| body.clone())
        .collect();
    assert_eq!(commits, ["{\"epoch\":1}", "{\"epoch\":1}"]);

    log.lock().unwrap().clear();
    let to = 1 - router.owner(7);
    router.migrate_stream(7, to).expect("fake workers answer");
    assert_eq!(
        *log.lock().unwrap(),
        [
            (
                "/migrate/snapshot".to_string(),
                "{\"stream\":7}".to_string()
            ),
            (
                "/migrate/in".to_string(),
                "{\"stream\":7,\"snapshot\":\"00ff\"}".to_string()
            ),
            ("/migrate/evict".to_string(), "{\"stream\":7}".to_string()),
        ]
    );

    // Trace id 5 has no router spans: the stitched body is the workers'
    // lines, each stamped with its node.
    let line = |name: &str, n: u32, t: u32, node: &str| {
        format!(
            "{{\"ev\":\"count\",\"span\":0,\"name\":\"{name}\",\"n\":{n},\"t_us\":{t},\"node\":\"{node}\"}}\n"
        )
    };
    assert_eq!(
        call(server.addr(), "GET", "/trace/0000000000000005", b""),
        [
            line("x", 1, 2, "w0"),
            line("y", 3, 4, "w0"),
            line("x", 1, 2, "w1"),
            line("y", 3, 4, "w1"),
        ]
        .concat()
    );
}

#[test]
fn trace_lines_are_pinned() {
    let mut hist = Histogram::new();
    for v in [1.0, 3.0, 1000.0, 0.25] {
        hist.record(v);
    }
    let events = [
        OwnedEvent::SpanStart {
            id: 3,
            parent: 1,
            trace: 0,
            name: "step1".into(),
            t_us: 10,
        },
        OwnedEvent::SpanStart {
            id: 4,
            parent: 3,
            trace: u64::MAX,
            name: "cluster.forward".into(),
            t_us: 11,
        },
        OwnedEvent::SpanEnd {
            id: 3,
            parent: 1,
            trace: 0,
            name: "step1".into(),
            t_us: 99,
            dur_us: 89,
        },
        OwnedEvent::SpanEnd {
            id: u64::MAX - 1,
            parent: BIG,
            trace: 7_823_268_718_516_767_775,
            name: "cluster.forward".into(),
            t_us: 12,
            dur_us: 1,
        },
        OwnedEvent::Count {
            span: 3,
            name: "we\"ird\\na\nme\r\t\u{1}\u{1f}é".into(),
            n: 42,
            t_us: 50,
        },
        OwnedEvent::Gauge {
            span: 0,
            name: "g".into(),
            value: -1.25,
            t_us: 51,
        },
        OwnedEvent::Gauge {
            span: 0,
            name: "g".into(),
            value: f64::NAN,
            t_us: 52,
        },
        OwnedEvent::Gauge {
            span: 0,
            name: "g".into(),
            value: f64::NEG_INFINITY,
            t_us: 53,
        },
        OwnedEvent::Series {
            span: 0,
            name: "online.posterior".into(),
            index: 7,
            values: vec![0.1 + 0.2, -0.0, 1e300, 5e-324, f64::INFINITY],
            t_us: 54,
        },
        OwnedEvent::Series {
            span: 0,
            name: "s".into(),
            index: 0,
            values: vec![],
            t_us: 55,
        },
        OwnedEvent::Hist {
            span: 0,
            name: "online.predict_ns".into(),
            hist: Box::new(hist),
            t_us: 56,
        },
        OwnedEvent::Hist {
            span: 0,
            name: "h".into(),
            hist: Box::new(Histogram::new()),
            t_us: 57,
        },
    ];
    let lines: Vec<String> = events
        .iter()
        .map(|e| jsonl::to_line(&e.as_event()))
        .collect();
    let want = [
        "{\"ev\":\"span_start\",\"id\":3,\"parent\":1,\"name\":\"step1\",\"t_us\":10}",
        "{\"ev\":\"span_start\",\"id\":4,\"parent\":3,\"trace\":18446744073709551615,\
         \"name\":\"cluster.forward\",\"t_us\":11}",
        "{\"ev\":\"span_end\",\"id\":3,\"parent\":1,\"name\":\"step1\",\"t_us\":99,\"dur_us\":89}",
        "{\"ev\":\"span_end\",\"id\":18446744073709551614,\"parent\":9007199254740993,\
         \"trace\":7823268718516767775,\"name\":\"cluster.forward\",\"t_us\":12,\"dur_us\":1}",
        "{\"ev\":\"count\",\"span\":3,\"name\":\"we\\\"ird\\\\na\\nme\\r\\t\\u0001\\u001fé\",\
         \"n\":42,\"t_us\":50}",
        "{\"ev\":\"gauge\",\"span\":0,\"name\":\"g\",\"value\":-1.25,\"t_us\":51}",
        "{\"ev\":\"gauge\",\"span\":0,\"name\":\"g\",\"value\":null,\"t_us\":52}",
        "{\"ev\":\"gauge\",\"span\":0,\"name\":\"g\",\"value\":null,\"t_us\":53}",
        &format!(
            "{{\"ev\":\"series\",\"span\":0,\"name\":\"online.posterior\",\"index\":7,\
             \"values\":[0.30000000000000004,-0,{},{},null],\"t_us\":54}}",
            e300(),
            e_minus_324()
        ),
        "{\"ev\":\"series\",\"span\":0,\"name\":\"s\",\"index\":0,\"values\":[],\"t_us\":55}",
        "{\"ev\":\"hist\",\"span\":0,\"name\":\"online.predict_ns\",\"count\":4,\"sum\":1004.25,\
         \"min\":0.25,\"max\":1000,\"buckets\":[[0,1],[1,1],[2,1],[10,1]],\"t_us\":56}",
        "{\"ev\":\"hist\",\"span\":0,\"name\":\"h\",\"count\":0,\"sum\":0,\"buckets\":[],\"t_us\":57}",
    ];
    assert_eq!(lines, want.map(str::to_string));
}

#[test]
fn edge_jsonl_lines_are_pinned() {
    let batch = [
        Request::Predict {
            stream: 7,
            x: vec![1.0, 0.5],
        },
        Request::Observe {
            stream: BIG,
            x: vec![0.1 + 0.2, 5e-324],
            y: 1,
        },
        Request::Step {
            stream: u64::MAX,
            x: vec![-0.0, 1e300, -1.5e-7],
            y: u32::MAX,
        },
        Request::Step {
            stream: 0,
            x: vec![],
            y: 0,
        },
        Request::Advance { stream: 9, k: 3 },
    ];
    assert_eq!(
        wire::jsonl::encode_requests(&batch).expect("finite batch"),
        format!(
            "{{\"op\":\"predict\",\"stream\":7,\"x\":[1,0.5]}}\n\
             {{\"op\":\"observe\",\"stream\":9007199254740993,\"x\":[0.30000000000000004,{}],\"y\":1}}\n\
             {{\"op\":\"step\",\"stream\":18446744073709551615,\"x\":[-0,{},-0.00000015],\"y\":4294967295}}\n\
             {{\"op\":\"step\",\"stream\":0,\"x\":[],\"y\":0}}\n\
             {{\"op\":\"advance\",\"stream\":9,\"k\":3}}\n",
            e_minus_324(),
            e300()
        )
    );
    assert_eq!(wire::jsonl::encode_requests(&[]).expect("empty batch"), "");
    let responses = [
        Response {
            stream: 7,
            prediction: Some(1),
        },
        Response {
            stream: u64::MAX,
            prediction: None,
        },
        Response {
            stream: BIG,
            prediction: Some(u32::MAX),
        },
    ];
    assert_eq!(
        wire::jsonl::encode_responses(&responses),
        "{\"stream\":7,\"prediction\":1}\n\
         {\"stream\":18446744073709551615,\"prediction\":null}\n\
         {\"stream\":9007199254740993,\"prediction\":4294967295}\n"
    );
}

/// The `HOM_JSON_DIR` dumps' layout: every array element on its own
/// line, indented two spaces per level, an empty array as `[]`, and
/// non-finite floats and absent values as `null`.
#[test]
fn dump_layouts_are_pinned() {
    let dir = std::env::temp_dir().join(format!("hom-json-golden-{}", std::process::id()));
    std::env::set_var("HOM_JSON_DIR", &dir);
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(format!("{name}.json"))).expect("dump written")
    };

    // Fig. 3's shape: x values, then one row per algorithm of two
    // measures.
    let xs = vec![200.0, 600.0];
    let err = vec![vec![0.5, -4.0], vec![], vec![f64::NAN, 1e-7]];
    let time = vec![vec![0.1 + 0.2]];
    hom_eval::report::maybe_dump_json("golden_fig3", |w| {
        w.array(|w| {
            w.f64s(&xs);
            for rows in [&err, &time] {
                w.array(|w| {
                    for row in rows {
                        w.f64s(row);
                    }
                });
            }
        });
    });
    assert_eq!(
        read("golden_fig3"),
        "[\n  [\n    200,\n    600\n  ],\n  [\n    [\n      0.5,\n      -4\n    ],\n    [],\n    \
         [\n      null,\n      0.0000001\n    ]\n  ],\n  [\n    [\n      0.30000000000000004\n    \
         ]\n  ]\n]"
    );

    // Table IV's shape: (workload, seconds, mean concept count or none).
    let rows = vec![("Stagger", 1.5, Some(3.0)), ("Hyper\"plane\\", 0.25, None)];
    hom_eval::report::maybe_dump_json("golden_table4", |w| {
        w.array(|w| {
            for (workload, build_s, concepts) in &rows {
                w.array(|w| {
                    w.str(workload).f64(*build_s);
                    match concepts {
                        Some(n) => w.f64(*n),
                        None => w.null(),
                    };
                });
            }
        });
    });
    assert_eq!(
        read("golden_table4"),
        "[\n  [\n    \"Stagger\",\n    1.5,\n    3\n  ],\n  [\n    \"Hyper\\\"plane\\\\\",\n    \
         0.25,\n    null\n  ]\n]"
    );
    let empty: Vec<f64> = Vec::new();
    hom_eval::report::maybe_dump_json("golden_empty", |w| {
        w.f64s(&empty);
    });
    assert_eq!(read("golden_empty"), "[]");
    let _ = std::fs::remove_dir_all(&dir);
}
