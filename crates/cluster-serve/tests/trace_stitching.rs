//! Cross-process trace stitching, end to end over the real wire: a
//! 3-worker cluster (in-process [`WorkerServer`]s, loopback HTTP) is
//! driven through the [`Router`], and the federated [`Router::trace`]
//! view must assemble one node-labelled span tree per trace id —
//! batch fan-out spans from the router *and every worker* under the
//! deterministically-derived batch trace id, and all three migration
//! phases (snapshot → in → evict, across two different workers) under
//! the migration's stream-derived trace id.
//!
//! Trace ids are pure functions of protocol state
//! ([`TraceContext::for_batch`] of the router's batch sequence number,
//! [`TraceContext::for_migration`] of the stream id), so the test
//! *predicts* every id it then fetches — no scraping ids out of logs.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use hom_classifiers::DecisionTreeLearner;
use hom_cluster::ClusterParams;
use hom_cluster_serve::{Router, WorkerServer, DEFAULT_VNODES};
use hom_core::{build, BuildParams, HighOrderModel};
use hom_data::stream::collect;
use hom_data::{StreamRecord, StreamSource};
use hom_datagen::{StaggerParams, StaggerSource};
use hom_obs::{json, jsonl, OwnedEvent, TraceContext};
use hom_serve::{Request, ServeEngine, ServeOptions, ServeTelemetry};

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
    let test: Vec<StreamRecord> = (0..200).map(|_| src.next_record()).collect();
    (Arc::new(model), test)
}

fn spawn_worker(model: &Arc<HighOrderModel>) -> WorkerServer {
    let telemetry = Arc::new(ServeTelemetry::new());
    let engine = Arc::new(ServeEngine::with_options(
        Arc::clone(model),
        &ServeOptions {
            shards: Some(4),
            threads: Some(2),
            sink: telemetry.obs(),
            ..Default::default()
        },
    ));
    let addr: SocketAddr = "127.0.0.1:0".parse().expect("loopback");
    WorkerServer::bind(addr, engine, telemetry).expect("worker binds")
}

/// The `"node"` label [`Router::trace`] injects into each stitched
/// line (not part of the event schema, so read as a field of its own).
fn node_of(line: &str) -> String {
    json::fields(line, ["node"])
        .and_then(|[node]| node.str())
        .expect("stitched line carries a node label")
        .into_owned()
}

/// Parse a stitched JSONL document into `(node, event)` pairs.
fn stitched_events(doc: &str) -> Vec<(String, OwnedEvent)> {
    doc.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            (
                node_of(l),
                jsonl::parse_line(l).expect("stitched line parses"),
            )
        })
        .collect()
}

/// Closed spans named `name` on `node`, as `(id, parent, trace)`.
fn span_ends(events: &[(String, OwnedEvent)], node: &str, name: &str) -> Vec<(u64, u64, u64)> {
    events
        .iter()
        .filter_map(|(n, e)| match e {
            OwnedEvent::SpanEnd {
                id,
                parent,
                trace,
                name: en,
                ..
            } if n == node && en == name => Some((*id, *parent, *trace)),
            _ => None,
        })
        .collect()
}

fn batch(streams: &[u64], r: &StreamRecord) -> Vec<Request> {
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
fn batch_trace_stitches_router_and_all_workers_under_one_id() {
    let (model, test) = fixture();
    let workers: Vec<WorkerServer> = (0..3).map(|_| spawn_worker(&model)).collect();
    let router = Router::new(
        workers.iter().map(|w| w.addr()).collect(),
        DEFAULT_VNODES,
        Duration::from_secs(10),
    )
    .expect("router");

    // Scattered ids so every worker owns a share — the fan-out must
    // really touch all three nodes for the stitched tree to show them.
    let streams: Vec<u64> = (0..24u64).map(|i| i * 7919 + 3).collect();
    for w in 0..3 {
        assert!(
            streams.iter().any(|&s| router.owner(s) == w),
            "fixture must place streams on every worker"
        );
    }

    let n_batches = 5u64;
    for r in &test[..n_batches as usize] {
        router.submit(&batch(&streams, r)).expect("submit");
    }

    // The batch trace id is a pure function of the router's sequence
    // number — predict it, then confirm the router recorded the same.
    let want_id = TraceContext::for_batch(n_batches - 1).trace_id;
    assert_eq!(router.last_trace_id(), want_id, "batch ids derive purely");

    let events = stitched_events(&router.trace(want_id).expect("federated fetch"));
    assert!(!events.is_empty(), "trace must not come back empty");
    for (node, e) in &events {
        let (OwnedEvent::SpanStart { trace, .. } | OwnedEvent::SpanEnd { trace, .. }) = e else {
            panic!("stitched slice holds span events only, got {e:?} on {node}");
        };
        assert_eq!(
            *trace, want_id,
            "foreign trace id leaked into the slice: {node} {e:?}"
        );
    }

    // Router side of the tree: one route root, one forward per worker,
    // one merge — and every forward is a child of the route root.
    let routes = span_ends(&events, "router", "cluster.route");
    assert_eq!(routes.len(), 1, "exactly one route root span");
    let forwards = span_ends(&events, "router", "cluster.forward");
    assert_eq!(forwards.len(), 3, "one forward span per worker");
    for &(_, parent, _) in &forwards {
        assert_eq!(parent, routes[0].0, "forwards nest under the route root");
    }
    assert_eq!(span_ends(&events, "router", "cluster.merge").len(), 1);

    // Worker side: every worker's submit span is stitched under one of
    // the router's forward spans via the X-HOM-Trace parent id, and the
    // handler pipeline (decode → engine serve.batch → encode) hangs
    // beneath it on the same node.
    for w in 0..3 {
        let node = format!("w{w}");
        let submits = span_ends(&events, &node, "cluster.submit");
        assert_eq!(submits.len(), 1, "{node}: one submit span");
        let (submit_id, submit_parent, _) = submits[0];
        assert!(
            forwards.iter().any(|&(fid, _, _)| fid == submit_parent),
            "{node}: submit must be the child of a router forward span"
        );
        for stage in ["cluster.decode", "cluster.encode", "serve.batch"] {
            let spans = span_ends(&events, &node, stage);
            assert_eq!(spans.len(), 1, "{node}: one {stage} span");
            assert_eq!(spans[0].1, submit_id, "{node}: {stage} under submit");
        }
    }
}

#[test]
fn migration_trace_shows_all_three_phases_across_two_nodes() {
    let (model, test) = fixture();
    let mut workers: Vec<WorkerServer> = (0..2).map(|_| spawn_worker(&model)).collect();
    let router = Router::new(
        workers.iter().map(|w| w.addr()).collect(),
        DEFAULT_VNODES,
        Duration::from_secs(10),
    )
    .expect("router");

    let streams: Vec<u64> = (0..24u64).map(|i| i * 7919 + 3).collect();
    let before: Vec<usize> = streams.iter().map(|&s| router.owner(s)).collect();
    for r in &test[..5] {
        router.submit(&batch(&streams, r)).expect("submit");
    }

    // Grow the ring: the join migrates every live stream the new worker
    // now owns, one two-phase move (and one trace) per stream.
    let joined = spawn_worker(&model);
    let report = router.add_worker(joined.addr()).expect("rebalance");
    workers.push(joined);
    assert!(report.migrated > 0, "a third of the arc must move");

    let moved: Vec<(u64, usize)> = streams
        .iter()
        .zip(&before)
        .filter(|&(&s, &b)| router.owner(s) != b)
        .map(|(&s, &b)| (s, b))
        .collect();
    assert_eq!(moved.len(), report.migrated, "moved set matches");

    for &(stream, source) in &moved {
        // The migration's trace id derives from the stream id alone.
        let id = TraceContext::for_migration(stream).trace_id;
        let events = stitched_events(&router.trace(id).expect("federated fetch"));
        let src = format!("w{source}");

        let roots = span_ends(&events, "router", "cluster.migrate");
        assert_eq!(roots.len(), 1, "stream {stream}: one migration root");
        let phases = [
            (src.as_str(), "cluster.migrate_snapshot"),
            ("w2", "cluster.migrate_in"),
            (src.as_str(), "cluster.migrate_evict"),
        ];
        for (node, name) in phases {
            let spans = span_ends(&events, node, name);
            assert_eq!(spans.len(), 1, "stream {stream}: one {name} on {node}");
            let (_, parent, trace) = spans[0];
            assert_eq!(trace, id, "stream {stream}: {name} under the one id");
            assert_eq!(
                parent, roots[0].0,
                "stream {stream}: {name} stitches under the router root"
            );
        }
    }

    // The router remembers the newest migration trace for operators
    // ("what just moved?"), and it is one of the derived ids.
    assert!(
        moved
            .iter()
            .any(|&(s, _)| TraceContext::for_migration(s).trace_id == router.last_trace_id()),
        "last_trace_id must point at one of the migrations"
    );
}
