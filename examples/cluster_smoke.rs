//! Multi-node serving smoke test, end to end and process-level: the
//! example spawns **three worker processes** (itself, re-exec'd) each
//! binding `HOM_WORKER_ADDR` over its own `HOM_STORE_DIR`, builds a
//! [`Router`] from `HOM_CLUSTER_WORKERS`, and drives a serve-smoke
//! workload through the cluster in lock-step with a single
//! uninterrupted [`ServeEngine`] — asserting every response batch is
//! **bit-identical**. Mid-workload it exercises the two operator
//! stories `OPERATIONS.md` documents:
//!
//! * **worker crash + recovery** — one worker is quiesced (durable
//!   cut), killed with SIGKILL, and restarted on the same address over
//!   the same store directory; traffic then continues bit-identically
//!   against the reference, proving the store tier carries a worker
//!   across a crash exactly as it carries a single engine;
//! * **cluster-wide hot-swap** — an admitted model is encoded
//!   (`HOMM` blob) and two-phase flipped across the fleet via
//!   [`Router::swap`], against the reference's in-process
//!   `swap_model`; the fleet lands on epoch 1 as one.
//!
//! Mid-traffic the example also scrapes one **stitched distributed
//! trace** from the router's federated `/trace/<id>` endpoint (served
//! by a bound [`RouterServer`]) and asserts the cross-process tree
//! carries spans from the router *and all three workers* under the one
//! trace id the last batch propagated via `X-HOM-Trace`.
//!
//! The grep-able CI contract is one line:
//!
//! * `digest: <hex>` — FNV-1a over every stream's final posterior
//!   bits, each scraped from its ring owner's `/posterior/<id>`
//!   endpoint. Bit-identical distribution means the digest is the same
//!   at every `HOM_THREADS`, so CI compares `HOM_THREADS=1` vs `=8`.
//!   Tracing is always on here, so the comparison also proves the
//!   trace plumbing never perturbs predictions.
//!
//! ```sh
//! HOM_THREADS=8 cargo run --release --example cluster_smoke
//! ```

use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use high_order_models::classifiers::{Classifier, DecisionTreeLearner, MajorityClassifier};
use high_order_models::cluster::ClusterParams;
use high_order_models::cluster_serve::{
    ClusterConfig, Router, RouterServer, WorkerServer, CLUSTER_WORKERS_ENV, WORKER_ADDR_ENV,
};
use high_order_models::core::{build, encode_model, fnv1a, BuildParams, HighOrderModel};
use high_order_models::data::stream::collect;
use high_order_models::data::{StreamRecord, StreamSource};
use high_order_models::datagen::{StaggerParams, StaggerSource};
use high_order_models::obs::json;
use high_order_models::serve::{http_request, Request, ServeEngine, ServeOptions, ServeTelemetry};

/// Set only in self-spawned worker children; carries the worker tag.
const CHILD_ENV: &str = "HOM_CLUSTER_SMOKE_WORKER";
/// Streams fanned across the ring — enough that every worker owns some.
const STREAMS: u64 = 24;
/// Records per phase (crash and swap land between phases).
const PHASE: usize = 400;
/// Per-exchange worker timeout. Generous: workers mine their own model
/// copy at startup, but by the time traffic flows they only serve.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Deterministic model + traffic, identical in the router process and
/// every worker child.
fn fixture() -> (Arc<HighOrderModel>, Vec<StreamRecord>) {
    let mut source = StaggerSource::new(StaggerParams {
        lambda: 0.01,
        ..Default::default()
    });
    let (historical, _) = collect(&mut source, 3_000);
    let (model, _) = build(
        &historical,
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
    let test: Vec<StreamRecord> = (0..3 * PHASE).map(|_| source.next_record()).collect();
    (Arc::new(model), test)
}

/// The concept admitted mid-workload for the fleet-wide swap.
fn novel_classifier(model: &HighOrderModel) -> Arc<dyn Classifier> {
    let n = model.schema().n_classes();
    let counts: Vec<usize> = (0..n).map(|c| usize::from(c == 1)).collect();
    Arc::new(MajorityClassifier::from_counts(&counts))
}

/// Worker child body: bind the cluster protocol on `HOM_WORKER_ADDR`
/// over an engine whose durable tier comes from `HOM_STORE_DIR`
/// (read by `ServeOptions::default`), then serve until killed.
fn worker() {
    let addr: SocketAddr = std::env::var(WORKER_ADDR_ENV)
        .expect("worker child needs HOM_WORKER_ADDR")
        .parse()
        .expect("HOM_WORKER_ADDR parses as ip:port");
    let (model, _) = fixture();
    let telemetry = Arc::new(ServeTelemetry::new());
    let engine = Arc::new(ServeEngine::with_options(
        model,
        &ServeOptions {
            sink: telemetry.obs(),
            ..Default::default()
        },
    ));
    let _server = WorkerServer::bind(addr, engine, telemetry).expect("worker binds");
    loop {
        std::thread::sleep(Duration::from_secs(3_600));
    }
}

/// Reserve a free loopback port (bind, read, release — the child
/// re-binds it a moment later).
fn free_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .expect("loopback bind")
        .local_addr()
        .expect("local addr")
}

fn spawn_worker(tag: &str, addr: SocketAddr, store_dir: &Path) -> Child {
    let exe = std::env::current_exe().expect("example binary path");
    Command::new(exe)
        .env(CHILD_ENV, tag)
        .env(WORKER_ADDR_ENV, addr.to_string())
        .env("HOM_STORE_DIR", store_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn worker child")
}

/// Poll `/healthz` until the worker answers (it mines its model copy
/// first, so allow a long warm-up) or the child dies.
fn wait_healthy(child: &mut Child, addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if let Ok((200, _)) = http_request(addr, "GET", "/healthz", b"", Duration::from_secs(2)) {
            return;
        }
        assert!(Instant::now() < deadline, "worker on {addr} never came up");
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("worker on {addr} exited during warm-up: {status}");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Scrape a stream's posterior from a worker and parse it back —
/// shortest-round-trip floats, so the parse is bit-exact.
fn scrape_posterior(addr: SocketAddr, stream: u64) -> Vec<f64> {
    let (status, body) = http_request(addr, "GET", &format!("/posterior/{stream}"), b"", TIMEOUT)
        .expect("posterior scrape");
    assert_eq!(status, 200, "stream {stream} missing from its ring owner");
    let text = std::str::from_utf8(&body).expect("posterior body is UTF-8");
    json::fields(text, ["posterior"])
        .and_then(|[posterior]| posterior.f64_array())
        .expect("posterior parses")
}

fn main() {
    if std::env::var_os(CHILD_ENV).is_some() {
        worker();
        return;
    }

    let (model, test) = fixture();
    let streams: Vec<u64> = (0..STREAMS).map(|i| i * 7919 + 3).collect();
    let dir = std::env::temp_dir().join(format!("hom-cluster-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ── Spawn the fleet: three worker processes, each with its own
    //    durable store directory. ─────────────────────────────────────
    let addrs: Vec<SocketAddr> = (0..3).map(|_| free_addr()).collect();
    let mut children: Vec<Child> = (0..3)
        .map(|w| {
            let store = dir.join(format!("w{w}"));
            std::fs::create_dir_all(&store).expect("store directory");
            spawn_worker(&format!("w{w}"), addrs[w], &store)
        })
        .collect();
    println!("spawned 3 workers; waiting for /healthz …");
    for (child, &addr) in children.iter_mut().zip(&addrs) {
        wait_healthy(child, addr);
    }

    // The router reads its topology from the documented env knob.
    std::env::set_var(
        CLUSTER_WORKERS_ENV,
        addrs
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(","),
    );
    let config = ClusterConfig::from_env().expect("cluster config from env");
    let router = Arc::new(
        Router::from_config(&ClusterConfig {
            timeout: TIMEOUT,
            ..config
        })
        .expect("router over the fleet"),
    );
    // Bind the operator surface too: the stitched-trace check below goes
    // through the real federated HTTP endpoint, not an in-process call.
    let router_server = RouterServer::bind("127.0.0.1:0".parse().unwrap(), Arc::clone(&router))
        .expect("router server binds");

    // The uninterrupted single-engine reference.
    let reference = ServeEngine::new(Arc::clone(&model));
    let drive = |records: &[StreamRecord]| {
        for chunk in records.chunks(8) {
            let batch: Vec<Request> = chunk
                .iter()
                .flat_map(|r| {
                    streams.iter().map(move |&stream| Request::Step {
                        stream,
                        x: r.x.to_vec(),
                        y: r.y,
                    })
                })
                .collect();
            let got = router.submit(&batch).expect("cluster submit");
            let want = reference.submit(&batch);
            assert_eq!(got, want, "cluster responses diverged from one engine");
        }
    };

    println!(
        "phase 1: {PHASE} records × {STREAMS} streams through the cluster \
         vs a single engine …"
    );
    drive(&test[..PHASE]);

    // ── One stitched trace, fetched mid-traffic through the federated
    //    /trace API: the last batch's trace id must resolve to a
    //    cross-process tree with spans from the router and every
    //    worker, all under that single id. ──────────────────────────────
    let trace_id = router.last_trace_id();
    assert_ne!(trace_id, 0, "phase 1 traffic must have stamped a trace id");
    let (status, body) = http_request(
        router_server.addr(),
        "GET",
        &format!("/trace/{trace_id:016x}"),
        b"",
        TIMEOUT,
    )
    .expect("stitched trace fetch");
    assert_eq!(status, 200, "router /trace/<id> must answer");
    let stitched = std::str::from_utf8(&body).expect("stitched trace is UTF-8");
    for node in ["router", "w0", "w1", "w2"] {
        assert!(
            stitched.contains(&format!("\"node\":\"{node}\"")),
            "stitched trace {trace_id:016x} is missing spans from {node}:\n{stitched}"
        );
    }
    let spans = stitched.lines().filter(|l| !l.trim().is_empty()).count();
    for line in stitched.lines().filter(|l| !l.trim().is_empty()) {
        assert!(
            line.contains(&format!("\"trace\":{trace_id}")),
            "stitched line escaped the requested trace id: {line}"
        );
    }
    // With HOM_TRACE_DUMP set, persist the stitched body — CI renders
    // it with `--example trace_report`, which fails loud on any event
    // name missing from its registry.
    if let Ok(path) = std::env::var("HOM_TRACE_DUMP") {
        std::fs::write(&path, stitched).expect("write stitched trace dump");
    }
    println!("stitched trace {trace_id:016x}: {spans} spans from router + 3 workers");

    // ── Crash one worker and recover it from its store. ──────────────
    let victim = 1usize;
    let (status, _) =
        http_request(addrs[victim], "POST", "/quiesce", b"", TIMEOUT).expect("quiesce the victim");
    assert_eq!(status, 200, "quiesce must succeed before the durable cut");
    children[victim].kill().expect("SIGKILL");
    children[victim].wait().expect("reap victim");
    println!("worker {victim} killed; restarting on the same addr + store …");
    children[victim] = spawn_worker(
        &format!("w{victim}"),
        addrs[victim],
        &dir.join(format!("w{victim}")),
    );
    wait_healthy(&mut children[victim], addrs[victim]);

    println!("phase 2: traffic across the recovered worker …");
    drive(&test[PHASE..2 * PHASE]);

    // ── Fleet-wide two-phase hot-swap of an admitted model. ──────────
    let extended = Arc::new(model.admit_concept(novel_classifier(&model), 0.2, 120));
    let blob = encode_model(&extended, 1).expect("admitted model encodes");
    assert_eq!(router.swap(&blob).expect("fleet flip"), 1);
    reference
        .swap_model(Arc::clone(&extended))
        .expect("reference swap");
    println!("fleet flipped to epoch 1 (two-phase, all workers)");

    println!("phase 3: traffic against the swapped model …");
    drive(&test[2 * PHASE..]);

    // ── Final posteriors, scraped from each stream's ring owner. ─────
    let workers = router.workers();
    let mut bytes = Vec::new();
    for &stream in &streams {
        let got = scrape_posterior(workers[router.owner(stream)], stream);
        let want = reference.posterior(stream).expect("reference has it");
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "stream {stream} posterior diverged"
        );
        for p in got {
            bytes.extend_from_slice(&p.to_bits().to_le_bytes());
        }
    }
    let digest = fnv1a(&bytes);

    // Fleet observability: one federated exposition, one status table.
    let federated = router.metrics().expect("federated metrics");
    for w in 0..workers.len() {
        assert!(
            federated.contains(&format!("worker=\"{w}\"")),
            "worker {w} missing from the federation"
        );
    }
    let status = router.cluster_status();
    assert_eq!(status.len(), 3);
    for s in &status {
        assert!(s.healthy, "worker {} unhealthy at the end", s.worker);
        assert_eq!(s.epoch, 1, "worker {} missed the flip", s.worker);
    }
    println!("cluster: 3 workers healthy at epoch 1; federation carries all labels");

    println!("digest: {digest:016x}");
    for child in &mut children {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
