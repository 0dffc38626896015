//! Router failure and corner semantics: a dead worker is a typed error
//! (never a hang, never a partial response vector), unknown stream ids
//! route deterministically, parked and store-tiered streams migrate
//! over the wire, and an older-epoch snapshot arriving *after* a
//! cluster-wide swap migrates forward on restore. Hostile bodies are a
//! 400 from the node they hit, which keeps serving, a record of the
//! wrong width is refused by its index in the batch without touching
//! any stream on the refusing worker, and a worker reply that answers out of request order fails the batch
//! rather than merging wrongly. The transport keeps
//! one persistent connection per worker, notices a worker that went
//! away under it without resending, and bounds a batch by one deadline.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hom_classifiers::{Classifier, DecisionTreeLearner, MajorityClassifier};
use hom_cluster::ClusterParams;
use hom_cluster_serve::{wire, ClusterError, Router, RouterServer, WorkerServer, DEFAULT_VNODES};
use hom_core::{build, encode_model, BuildParams, HighOrderModel};
use hom_data::stream::collect;
use hom_data::{StreamRecord, StreamSource};
use hom_datagen::{StaggerParams, StaggerSource};
use hom_obs::Obs;
use hom_serve::transport::{HttpResponse, HttpServer};
use hom_serve::{
    http_request, Request, Response, ServeEngine, ServeOptions, ServeTelemetry, StreamStore,
};
use hom_store::{FsIo, StoreOptions};

fn bits(p: &[f64]) -> Vec<u64> {
    p.iter().map(|v| v.to_bits()).collect()
}

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

fn novel_classifier(model: &HighOrderModel) -> Arc<dyn Classifier> {
    let n = model.schema().n_classes();
    let counts: Vec<usize> = (0..n).map(|c| usize::from(c == 1)).collect();
    Arc::new(MajorityClassifier::from_counts(&counts))
}

/// A worker's engine and the telemetry its `/metrics` scrapes — kept
/// apart from the listener so a test can rebind the same engine.
fn worker_engine(
    model: &Arc<HighOrderModel>,
    store: Option<Arc<StreamStore>>,
) -> (Arc<ServeEngine>, Arc<ServeTelemetry>) {
    let telemetry = Arc::new(ServeTelemetry::new());
    let engine = Arc::new(ServeEngine::with_options(
        Arc::clone(model),
        &ServeOptions {
            threads: Some(1),
            sink: telemetry.obs(),
            store,
            ..Default::default()
        },
    ));
    (engine, telemetry)
}

fn spawn_worker(model: &Arc<HighOrderModel>, store: Option<Arc<StreamStore>>) -> WorkerServer {
    let (engine, telemetry) = worker_engine(model, store);
    let addr: SocketAddr = "127.0.0.1:0".parse().expect("loopback");
    WorkerServer::bind(addr, engine, telemetry).expect("worker binds")
}

fn disk_store(tag: &str) -> (Arc<StreamStore>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("hom-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let io = FsIo::open(&dir).expect("temp dir");
    let store = StreamStore::open_with(
        Arc::new(io),
        StoreOptions {
            commit_interval_us: 0,
            sink: Obs::none(),
            ..Default::default()
        },
    )
    .expect("open store");
    (Arc::new(store), dir)
}

/// The first stream id (from 1) the ring sends to worker `owner`.
fn stream_owned_by(router: &Router, owner: usize) -> u64 {
    (1..)
        .find(|&s| router.owner(s) == owner)
        .expect("ring is total")
}

#[test]
fn dead_worker_mid_batch_is_a_typed_error_never_partial() {
    let (model, test) = fixture();
    let alive = spawn_worker(&model, None);
    let doomed = spawn_worker(&model, None);
    let doomed_addr = doomed.addr();
    let router = Router::new(
        vec![alive.addr(), doomed_addr],
        DEFAULT_VNODES,
        Duration::from_millis(800),
    )
    .expect("router");
    let s0 = stream_owned_by(&router, 0);
    let s1 = stream_owned_by(&router, 1);

    // Kill worker 1 (dropping the server stops its listener), then
    // submit a batch spanning both workers.
    drop(doomed);
    let batch: Vec<Request> = test[..5]
        .iter()
        .flat_map(|r| {
            [s0, s1].into_iter().map(move |stream| Request::Step {
                stream,
                x: r.x.to_vec(),
                y: r.y,
            })
        })
        .collect();
    let t0 = Instant::now();
    let err = router
        .submit(&batch)
        .expect_err("half the batch is unroutable");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "failure must be prompt, not a hang"
    );
    match err {
        ClusterError::WorkerDown { worker, addr, .. } => {
            assert_eq!(worker, 1);
            assert_eq!(addr, doomed_addr);
        }
        other => panic!("expected WorkerDown, got {other}"),
    }

    // A batch entirely on the surviving worker still serves.
    let ok_batch: Vec<Request> = test[..5]
        .iter()
        .map(|r| Request::Step {
            stream: s0,
            x: r.x.to_vec(),
            y: r.y,
        })
        .collect();
    let responses = router.submit(&ok_batch).expect("survivor still serves");
    assert_eq!(responses.len(), 5);
}

#[test]
fn unknown_stream_ids_route_deterministically() {
    let (model, test) = fixture();
    let workers: Vec<WorkerServer> = (0..3).map(|_| spawn_worker(&model, None)).collect();
    let router = Router::new(
        workers.iter().map(|w| w.addr()).collect(),
        DEFAULT_VNODES,
        Duration::from_secs(5),
    )
    .expect("router");

    // A never-seen id is created on its ring owner by the first request
    // and every subsequent request lands on the same worker.
    for fresh in [12345u64, 999_999_999_999, u64::MAX - 17] {
        let owner = router.owner(fresh);
        for r in &test[..3] {
            let responses = router
                .submit(&[Request::Step {
                    stream: fresh,
                    x: r.x.to_vec(),
                    y: r.y,
                }])
                .expect("submit");
            assert!(responses[0].prediction.is_some());
        }
        for (w, worker) in workers.iter().enumerate() {
            assert_eq!(
                worker.engine().stream_ids().contains(&fresh),
                w == owner,
                "stream {fresh}: worker {w} vs owner {owner}"
            );
        }
    }
}

#[test]
fn parked_and_store_tiered_streams_migrate_over_the_wire() {
    let (model, test) = fixture();
    let (store, dir) = disk_store("migrate");
    let source = spawn_worker(&model, Some(Arc::clone(&store)));
    let target = spawn_worker(&model, None);
    let router = Router::new(
        vec![source.addr(), target.addr()],
        DEFAULT_VNODES,
        Duration::from_secs(5),
    )
    .expect("router");
    let stream = stream_owned_by(&router, 0);

    let reference = ServeEngine::new(Arc::clone(&model));
    for r in &test[..250] {
        router
            .submit(&[Request::Step {
                stream,
                x: r.x.to_vec(),
                y: r.y,
            }])
            .expect("submit");
        reference.step(stream, &r.x, r.y);
    }
    // Park on the source: with a store configured the snapshot tiers to
    // disk, which is exactly what migration must be able to lift.
    assert!(source.engine().park(stream));
    assert_eq!(source.engine().live_streams(), 0);
    assert!(store.contains(stream) || store.parked_len() > 0);

    router.migrate_stream(stream, 1).expect("wire migration");
    assert!(
        !source.engine().stream_ids().contains(&stream),
        "extract must remove the stream from the source"
    );
    store.commit().expect("commit");
    assert!(
        !store.contains(stream),
        "store copy must be tombstoned, or a source restart resurrects it"
    );

    // The stream continues on the target, bit-identically. (Traffic is
    // driven at the target directly: the operator escape hatch moved
    // the stream off its ring owner.)
    for r in &test[250..] {
        let body = wire::encode_requests(&[Request::Step {
            stream,
            x: r.x.to_vec(),
            y: r.y,
        }])
        .expect("encodes");
        let (status, payload) = http_request(
            target.addr(),
            "POST",
            "/submit",
            &body,
            Duration::from_secs(5),
        )
        .expect("target serves");
        assert_eq!(status, 200);
        let responses = wire::decode_responses(&payload).expect("decodes");
        let want = reference.step(stream, &r.x, r.y);
        assert_eq!(responses[0].prediction, Some(want));
    }
    assert_eq!(
        bits(&target.engine().posterior(stream).expect("migrated")),
        bits(&reference.posterior(stream).expect("reference")),
        "post-migration posterior diverged"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn failed_migration_never_loses_stream_state() {
    let (model, test) = fixture();
    let source = spawn_worker(&model, None);
    // A topology entry nobody listens on: the migration target is dead.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
        l.local_addr().expect("addr")
    };
    let router = Router::new(
        vec![source.addr(), dead_addr],
        DEFAULT_VNODES,
        Duration::from_millis(500),
    )
    .expect("router");
    let stream = stream_owned_by(&router, 0);

    let reference = ServeEngine::new(Arc::clone(&model));
    for r in &test[..100] {
        router
            .submit(&[Request::Step {
                stream,
                x: r.x.to_vec(),
                y: r.y,
            }])
            .expect("submit");
        reference.step(stream, &r.x, r.y);
    }

    let err = router
        .migrate_stream(stream, 1)
        .expect_err("target is dead");
    assert!(
        matches!(err, ClusterError::WorkerDown { worker: 1, .. }),
        "expected WorkerDown for the target, got {err}"
    );
    // Two-phase migration: the source copy is evicted only after the
    // target acks /migrate/in, so the failed move lost nothing and the
    // stream keeps serving bit-identically where it was.
    assert!(
        source.engine().stream_ids().contains(&stream),
        "source must still hold the stream after a failed migration"
    );
    assert_eq!(
        bits(&source.engine().posterior(stream).expect("still resident")),
        bits(&reference.posterior(stream).expect("reference")),
        "posterior diverged after failed migration"
    );
    for r in &test[100..150] {
        let want = reference.step(stream, &r.x, r.y);
        let responses = router
            .submit(&[Request::Step {
                stream,
                x: r.x.to_vec(),
                y: r.y,
            }])
            .expect("source still serves");
        assert_eq!(responses[0].prediction, Some(want));
    }
}

#[test]
fn older_epoch_snapshot_arriving_after_swap_migrates_forward() {
    let (model, test) = fixture();
    let workers: Vec<WorkerServer> = (0..2).map(|_| spawn_worker(&model, None)).collect();
    let router = Router::new(
        workers.iter().map(|w| w.addr()).collect(),
        DEFAULT_VNODES,
        Duration::from_secs(5),
    )
    .expect("router");
    let stream = stream_owned_by(&router, 0);

    let reference = ServeEngine::new(Arc::clone(&model));
    for r in &test[..200] {
        router
            .submit(&[Request::Step {
                stream,
                x: r.x.to_vec(),
                y: r.y,
            }])
            .expect("submit");
        reference.step(stream, &r.x, r.y);
    }
    // Park the stream at epoch 0, then flip the whole fleet to epoch 1.
    assert!(workers[0].engine().park(stream));
    let extended = Arc::new(model.admit_concept(novel_classifier(&model), 0.2, 120));
    let blob = encode_model(&extended, 1).expect("encodes");
    assert_eq!(router.swap(&blob).expect("fleet flip"), 1);
    reference
        .swap_model(Arc::clone(&extended))
        .expect("reference swap");

    // The parked snapshot still carries the epoch-0 stamp. Migrating it
    // now ships pre-swap bytes into a post-swap engine: /migrate/in
    // must migrate the state forward, not reject or corrupt it.
    router
        .migrate_stream(stream, 1)
        .expect("stale snapshot migrates");
    let migrated = workers[1]
        .engine()
        .posterior(stream)
        .expect("restored on the target");
    assert_eq!(
        migrated.len(),
        extended.n_concepts(),
        "posterior must span the grown concept space"
    );
    assert_eq!(
        bits(&migrated),
        bits(&reference.posterior(stream).expect("reference")),
        "forward-migrated posterior diverged"
    );

    // And it keeps serving on the new model, still bit-identical.
    for r in &test[200..300] {
        let want = reference.step(stream, &r.x, r.y);
        let body = wire::encode_requests(&[Request::Step {
            stream,
            x: r.x.to_vec(),
            y: r.y,
        }])
        .expect("encodes");
        let (status, payload) = http_request(
            workers[1].addr(),
            "POST",
            "/submit",
            &body,
            Duration::from_secs(5),
        )
        .expect("target serves");
        assert_eq!(status, 200);
        let responses = wire::decode_responses(&payload).expect("decodes");
        assert_eq!(responses[0].prediction, Some(want));
    }
}

#[test]
fn swap_aborts_at_prepare_when_a_worker_would_disagree() {
    let (model, test) = fixture();
    let workers: Vec<WorkerServer> = (0..2).map(|_| spawn_worker(&model, None)).collect();
    let router = Router::new(
        workers.iter().map(|w| w.addr()).collect(),
        DEFAULT_VNODES,
        Duration::from_secs(5),
    )
    .expect("router");
    for r in &test[..20] {
        router
            .submit(&[Request::Step {
                stream: 1,
                x: r.x.to_vec(),
                y: r.y,
            }])
            .expect("submit");
    }

    // A blob targeting epoch 5 cannot be the fleet's next epoch (1):
    // every worker rejects it at prepare, and nothing flips.
    let extended = Arc::new(model.admit_concept(novel_classifier(&model), 0.2, 120));
    let blob = encode_model(&extended, 5).expect("encodes");
    let err = router.swap(&blob).expect_err("wrong-epoch blob");
    assert!(
        matches!(err, ClusterError::BadResponse { .. }),
        "expected a prepare rejection, got {err}"
    );
    for (w, worker) in workers.iter().enumerate() {
        assert_eq!(worker.engine().epoch(), 0, "worker {w} flipped anyway");
    }
    // The correctly-stamped blob then flips cleanly.
    let blob = encode_model(&extended, 1).expect("encodes");
    assert_eq!(router.swap(&blob).expect("fleet flip"), 1);
}

#[test]
fn non_canonical_trace_ids_are_bad_requests_on_every_node() {
    let (model, _) = fixture();
    let worker = spawn_worker(&model, None);
    let router = Arc::new(
        Router::new(vec![worker.addr()], DEFAULT_VNODES, Duration::from_secs(5)).expect("router"),
    );
    let server =
        RouterServer::bind("127.0.0.1:0".parse().expect("loopback"), router).expect("router binds");
    let t = Duration::from_secs(10);
    for addr in [worker.addr(), server.addr()] {
        let get = |path: &str| {
            http_request(addr, "GET", path, b"", t)
                .expect("node answers")
                .0
        };
        assert_eq!(
            get("/trace/00000000000000a1"),
            200,
            "canonical id at {addr}"
        );
        for bad in [
            "a1",
            "+00000000000000a1",
            "+0000000000000a1",
            "00000000000000A1",
            "0000000000000000",
        ] {
            assert_eq!(get(&format!("/trace/{bad}")), 400, "/trace/{bad} at {addr}");
        }
    }
}

#[test]
fn deeply_nested_submit_is_a_bad_request_not_an_abort() {
    let (model, test) = fixture();
    let workers: Vec<WorkerServer> = (0..2).map(|_| spawn_worker(&model, None)).collect();
    let router = Arc::new(
        Router::new(
            workers.iter().map(|w| w.addr()).collect(),
            DEFAULT_VNODES,
            Duration::from_secs(5),
        )
        .expect("router"),
    );
    let server =
        RouterServer::bind("127.0.0.1:0".parse().expect("loopback"), router).expect("router binds");
    let t = Duration::from_secs(10);

    // A million open brackets where the attributes belong: a decoder
    // that recursed per bracket would overflow its connection thread's
    // stack and abort the whole process. The router's JSONL edge finds
    // the nesting too deep; a worker, which speaks only frames, refuses
    // the body at its magic and never reads the brackets.
    let mut hostile = b"{\"op\":\"predict\",\"stream\":1,\"x\":".to_vec();
    hostile.resize(hostile.len() + 1_000_000, b'[');
    // A frame declaring u32::MAX requests over a megabyte of brackets:
    // the count is refused before anything is reserved from it.
    let mut hostile_frame = wire::encode_requests(&[]).expect("encodes");
    hostile_frame[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    hostile_frame.resize(hostile_frame.len() + 1_000_000, b'[');
    for (addr, body, why) in [
        (server.addr(), &hostile, "wire line 1: nesting too deep"),
        (
            workers[0].addr(),
            &hostile,
            "wire frame byte 0: not a request frame",
        ),
        (
            workers[0].addr(),
            &hostile_frame,
            "wire frame byte 10: truncated",
        ),
    ] {
        let (status, reply) = http_request(addr, "POST", "/submit", body, t).expect("node answers");
        let reason = String::from_utf8_lossy(&reply);
        assert_eq!(status, 400, "{reason}");
        assert_eq!(reason.trim(), why);
    }

    // Both nodes keep serving the next ordinary batch, each in its own
    // format.
    let batch: Vec<Request> = test[..8]
        .iter()
        .enumerate()
        .map(|(i, r)| Request::Step {
            stream: i as u64 + 1,
            x: r.x.to_vec(),
            y: r.y,
        })
        .collect();
    let frame = wire::encode_requests(&batch).expect("encodes");
    let (status, payload) =
        http_request(workers[0].addr(), "POST", "/submit", &frame, t).expect("worker serves");
    assert_eq!(status, 200);
    let from_worker = wire::decode_responses(&payload).expect("decodes");
    let text = wire::jsonl::encode_requests(&batch).expect("encodes");
    let (status, payload) =
        http_request(server.addr(), "POST", "/submit", text.as_bytes(), t).expect("router serves");
    assert_eq!(status, 200);
    let from_router = wire::jsonl::decode_responses(std::str::from_utf8(&payload).expect("utf-8"))
        .expect("decodes");
    for responses in [from_worker, from_router] {
        assert_eq!(responses.len(), batch.len());
        assert!(responses.iter().all(|r| r.prediction.is_some()));
    }
}

#[test]
fn a_reply_out_of_request_order_is_a_bad_response_not_a_wrong_merge() {
    // A worker that answers every request, but in reverse order: the
    // lengths agree, so only the stream check can tell.
    let reversing = HttpServer::bind(
        "127.0.0.1:0".parse().expect("loopback"),
        "reversing-worker",
        Arc::new(|req| {
            let batch = wire::decode_requests(&req.body).expect("a frame from the router");
            let mut responses: Vec<Response> = batch
                .iter()
                .map(|r| Response {
                    stream: r.stream(),
                    prediction: Some(0),
                })
                .collect();
            responses.reverse();
            HttpResponse::ok(
                "application/octet-stream",
                wire::encode_responses(&responses),
            )
        }),
    )
    .expect("stub binds");
    let router = Router::new(
        vec![reversing.addr()],
        DEFAULT_VNODES,
        Duration::from_secs(5),
    )
    .expect("router");
    let batch: Vec<Request> = (1..=3)
        .map(|stream| Request::Advance { stream, k: 1 })
        .collect();
    match router.submit(&batch) {
        Err(ClusterError::BadResponse { worker: 0, what }) => {
            assert!(what.contains("stream 3 where stream 1 was asked"), "{what}")
        }
        other => panic!("expected a bad response, got {other:?}"),
    }
    // One request cannot be out of order.
    assert!(router.submit(&batch[..1]).is_ok());
}

#[test]
fn a_record_of_the_wrong_width_is_a_bad_request_naming_it() {
    let (model, test) = fixture();
    let workers: Vec<WorkerServer> = (0..2).map(|_| spawn_worker(&model, None)).collect();
    let router = Router::new(
        workers.iter().map(|w| w.addr()).collect(),
        DEFAULT_VNODES,
        Duration::from_secs(5),
    )
    .expect("router");
    let n_attrs = model.schema().n_attrs();
    let step = |stream, x: Vec<f64>| Request::Step {
        stream,
        x,
        y: test[0].y,
    };
    let owned = |w: usize| {
        let mut streams = (1..).filter(|&s| router.owner(s) == w);
        [(); 2].map(|()| streams.next().expect("ring is total"))
    };
    let ([a0, b0], [a1, b1]) = (owned(0), owned(1));
    router
        .submit(&[step(a1, test[1].x.to_vec())])
        .expect("a full-width batch serves");
    let posterior = |w: usize, s| workers[w].engine().posterior(s).map(|p| bits(&p));
    let before = posterior(1, a1);
    // Request 3 of the batch, request 1 of worker 1's sub-batch, is one
    // attribute short: worker 1 refuses its whole sub-batch, and the
    // router names the request by its index in the batch.
    let batch = vec![
        step(a0, test[0].x.to_vec()),
        step(a1, test[0].x.to_vec()),
        step(b0, test[0].x.to_vec()),
        step(b1, test[0].x[..n_attrs - 1].to_vec()),
    ];
    match router.submit(&batch) {
        Err(ClusterError::BadResponse { worker: 1, what }) => assert!(
            what.contains(&format!(
                "request 3: record has {} attributes, the model's schema has {n_attrs}",
                n_attrs - 1
            )),
            "{what}"
        ),
        other => panic!("expected a bad response from worker 1, got {other:?}"),
    }
    // No stream on the refusing worker moved; worker 0 had already been
    // sent its sub-batch and served it.
    assert_eq!(posterior(1, a1), before);
    assert_eq!(posterior(1, b1), None);
    assert!(posterior(0, a0).is_some() && posterior(0, b0).is_some());
    let wide = vec![step(a0, [test[0].x.to_vec(), vec![0.0]].concat())];
    assert!(matches!(
        router.submit(&wide),
        Err(ClusterError::BadResponse { worker: 0, .. })
    ));
    // Resending only the refused worker's requests, mended, serves them.
    let resent = [batch[1].clone(), step(b1, test[0].x.to_vec())];
    let responses = router.submit(&resent).expect("a full-width batch serves");
    assert!(responses.iter().all(|r| r.prediction.is_some()));
}

/// A forwarding TCP proxy in front of a worker that counts the
/// connections it accepts. Dropping it stops the accept loop and joins
/// every thread, once the connections through it have closed.
struct CountingProxy {
    addr: SocketAddr,
    accepts: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl CountingProxy {
    fn new(upstream: SocketAddr) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("proxy binds");
        let addr = listener.local_addr().expect("bound");
        let accepts = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (counter, stopping) = (Arc::clone(&accepts), Arc::clone(&stop));
        let handle = std::thread::spawn(move || {
            let mut pipes = Vec::new();
            for client in listener.incoming() {
                if stopping.load(Ordering::SeqCst) {
                    break;
                }
                let client = client.expect("accepts");
                counter.fetch_add(1, Ordering::SeqCst);
                let server = TcpStream::connect(upstream).expect("worker is up");
                let pipe = |mut from: TcpStream, mut to: TcpStream| {
                    std::thread::spawn(move || {
                        let _ = std::io::copy(&mut from, &mut to);
                        let _ = to.shutdown(Shutdown::Write);
                    })
                };
                pipes.push(pipe(
                    client.try_clone().unwrap(),
                    server.try_clone().unwrap(),
                ));
                pipes.push(pipe(server, client));
            }
            for pipe in pipes {
                pipe.join().expect("pipe thread");
            }
        });
        CountingProxy {
            addr,
            accepts,
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for CountingProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One `Step` per stream for record `r`.
fn steps(streams: &[u64], r: &StreamRecord) -> Vec<Request> {
    streams
        .iter()
        .map(|&stream| Request::Step {
            stream,
            x: r.x.to_vec(),
            y: r.y,
        })
        .collect()
}

#[test]
fn sequential_batches_reuse_one_connection_per_worker() {
    let (model, test) = fixture();
    let workers: Vec<WorkerServer> = (0..2).map(|_| spawn_worker(&model, None)).collect();
    let proxies: Vec<_> = workers
        .iter()
        .map(|w| CountingProxy::new(w.addr()))
        .collect();
    let router = Router::new(
        proxies.iter().map(|p| p.addr).collect(),
        DEFAULT_VNODES,
        Duration::from_secs(5),
    )
    .expect("router");
    let streams = [stream_owned_by(&router, 0), stream_owned_by(&router, 1)];
    for r in &test[..20] {
        router.submit(&steps(&streams, r)).expect("submit");
    }
    // Scrapes and probes ride the same pooled connections.
    router.metrics().expect("metrics");
    assert!(router.cluster_status().iter().all(|s| s.healthy));
    for (w, proxy) in proxies.iter().enumerate() {
        assert_eq!(
            proxy.accepts.load(Ordering::SeqCst),
            1,
            "worker {w}: one connection for every exchange"
        );
    }
}

#[test]
fn a_rebound_worker_is_reached_afresh_and_no_request_runs_twice() {
    let (model, test) = fixture();
    let steady = spawn_worker(&model, None);
    let (engine, telemetry) = worker_engine(&model, None);
    let loopback: SocketAddr = "127.0.0.1:0".parse().expect("loopback");
    let bounced = WorkerServer::bind(loopback, Arc::clone(&engine), Arc::clone(&telemetry))
        .expect("worker binds");
    let bounced_addr = bounced.addr();
    let router = Router::new(
        vec![steady.addr(), bounced_addr],
        DEFAULT_VNODES,
        Duration::from_secs(5),
    )
    .expect("router");
    let streams = [stream_owned_by(&router, 0), stream_owned_by(&router, 1)];
    let reference = ServeEngine::new(Arc::clone(&model));
    let run = |router: &Router, r: &StreamRecord| {
        let responses = router.submit(&steps(&streams, r)).expect("submit");
        for (&stream, response) in streams.iter().zip(&responses) {
            assert_eq!(response.prediction, Some(reference.step(stream, &r.x, r.y)));
        }
    };
    for r in &test[..10] {
        run(&router, r);
    }
    // The router now holds an idle pooled connection to the worker; the
    // worker goes away and comes back on the same port over the same
    // engine. The stale connection must be noticed before a byte is
    // written to it, and the next batch served exactly once.
    drop(bounced);
    let _rebound =
        WorkerServer::bind(bounced_addr, Arc::clone(&engine), telemetry).expect("rebinds the port");
    for r in &test[10..20] {
        run(&router, r);
    }
    for (&stream, worker) in streams.iter().zip([steady.engine(), &engine]) {
        assert_eq!(
            bits(&worker.posterior(stream).expect("served")),
            bits(&reference.posterior(stream).expect("reference")),
            "stream {stream}: a request applied twice or lost"
        );
    }
}

#[test]
fn silent_workers_fail_a_batch_within_one_timeout() {
    let (_, test) = fixture();
    // Bound, never accepted from, never answered: the kernel completes
    // the handshake and buffers the request, and no reply ever comes.
    let silent: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("binds"))
        .collect();
    let timeout = Duration::from_millis(600);
    let router = Router::new(
        silent.iter().map(|l| l.local_addr().unwrap()).collect(),
        DEFAULT_VNODES,
        timeout,
    )
    .expect("router");
    let streams = [stream_owned_by(&router, 0), stream_owned_by(&router, 1)];
    let t0 = Instant::now();
    let err = router
        .submit(&steps(&streams, &test[0]))
        .expect_err("nobody answers");
    let took = t0.elapsed();
    assert!(
        matches!(err, ClusterError::WorkerDown { .. }),
        "expected WorkerDown, got {err}"
    );
    assert!(
        took >= timeout && took < timeout * 3 / 2,
        "two silent workers must cost one timeout, took {took:?}"
    );
    // A health sweep waits on every reply, and still costs one timeout:
    // the second worker gets only what the first left of the deadline.
    let t0 = Instant::now();
    assert!(router.cluster_status().iter().all(|s| !s.healthy));
    let took = t0.elapsed();
    assert!(
        took < timeout * 3 / 2,
        "a sweep of two silent workers took {took:?}"
    );
}

#[test]
fn dropping_a_worker_with_an_idle_pooled_connection_is_prompt() {
    let (model, test) = fixture();
    let worker = spawn_worker(&model, None);
    let router =
        Router::new(vec![worker.addr()], DEFAULT_VNODES, Duration::from_secs(5)).expect("router");
    router.submit(&steps(&[7], &test[0])).expect("submit");
    let t0 = Instant::now();
    drop(worker);
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "drop waited on the router's idle connection: {:?}",
        t0.elapsed()
    );
    // The router notices the worker is gone: a typed error, not a hang.
    assert!(matches!(
        router.submit(&steps(&[7], &test[1])),
        Err(ClusterError::WorkerDown { .. })
    ));
}
