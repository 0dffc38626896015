//! The event registry (`hom_obs::registry::EVENTS`) is binding.
//!
//! * **Forward.** Each emitting subsystem is driven into a `Recorder`
//!   (or, for the cluster, its federated trace and capped dumps): the
//!   offline build with its worker pool, the online filter, the serving
//!   engine over an in-memory durable store with evictions and a model
//!   swap, the adaptive engine through a novelty trigger and admission,
//!   and one traced router → worker batch. Every emitted (name, kind)
//!   pair must be registered with that kind.
//! * **Reverse.** Every registered name appears as a string literal in
//!   some `crates/*/src` file other than the registry. A literal scan
//!   cannot do the forward check: many names are emitted through tuples
//!   or locals rather than at the call.
//! * **Table sanity.** Names are sorted and unique, help is one
//!   non-empty line the exporter can write unescaped, and no two entries
//!   export the same Prometheus family.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use hom_adapt::{AdaptEvent, AdaptOptions, AdaptiveEngine, IncidentDump};
use hom_classifiers::{Classifier, DecisionTreeLearner, MajorityClassifier};
use hom_cluster::ClusterParams;
use hom_cluster_serve::{Router, WorkerServer, DEFAULT_VNODES};
use hom_core::{build_with, encode_model, BuildOptions, BuildParams, HighOrderModel};
use hom_core::{OnlineOptions, OnlinePredictor};
use hom_data::stream::collect;
use hom_data::{StreamRecord, StreamSource};
use hom_datagen::stagger::{stagger_label, NOVEL_CONCEPT};
use hom_datagen::{StaggerParams, StaggerSource};
use hom_obs::export::family_name;
use hom_obs::registry::{spec, Kind, EVENTS};
use hom_obs::{
    jsonl, Fanout, FlightRecorder, Obs, OwnedEvent, Recorder, TraceBuffer, TraceContext,
};
use hom_serve::{Request, ServeEngine, ServeOptions, ServeTelemetry, StreamStore};
use hom_store::{MemIo, StoreIo, StoreOptions};

/// Distinct (name, kind) pairs a drive emitted.
type Seen = BTreeSet<(String, Kind)>;

fn seen(events: &[OwnedEvent]) -> Seen {
    events
        .iter()
        .map(|e| (e.name().to_string(), Kind::of(&e.as_event())))
        .collect()
}

/// Events of a JSONL document (a trace, a dump).
fn parse_jsonl(doc: &str) -> Vec<OwnedEvent> {
    doc.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| jsonl::parse_line(l).expect("dump line parses"))
        .collect()
}

/// Fail on every pair the registry does not hold under its kind, and on
/// a drive that emitted nothing under `prefix` (a drive that exercises
/// nothing checks nothing).
fn assert_registered(seen: &Seen, prefix: &str) {
    let bad: Vec<String> = seen
        .iter()
        .filter(|(name, kind)| spec(name).map(|s| s.kind) != Some(*kind))
        .map(|(name, kind)| match spec(name) {
            Some(s) => format!("{name} emitted as {kind:?}, registered as {:?}", s.kind),
            None => format!("{name} ({kind:?}) is not registered"),
        })
        .collect();
    assert!(
        bad.is_empty(),
        "unregistered events:\n  {}",
        bad.join("\n  ")
    );
    assert!(
        seen.iter().any(|(name, _)| name.starts_with(prefix)),
        "the drive emitted no {prefix}* event: {seen:?}"
    );
}

/// A Stagger model mined with an observed build (block size 10, seed 3:
/// the `adapt_smoke` model, three concepts, the fourth held out), the
/// build's events, and a live tail of the same stream.
struct Fixture {
    model: Arc<HighOrderModel>,
    build_events: Vec<OwnedEvent>,
    live: Vec<StreamRecord>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut source = StaggerSource::new(StaggerParams {
            lambda: 0.01,
            ..Default::default()
        });
        let (history, _) = collect(&mut source, 3_000);
        let recorder = Arc::new(Recorder::new());
        let (model, _) = build_with(
            &history,
            &DecisionTreeLearner::new(),
            &BuildParams {
                cluster: ClusterParams {
                    block_size: 10,
                    seed: 3,
                    ..Default::default()
                },
                ..Default::default()
            },
            &BuildOptions {
                threads: Some(2),
                sink: Obs::new(Arc::clone(&recorder)),
            },
        );
        Fixture {
            model: Arc::new(model),
            build_events: recorder.events(),
            live: (0..1_200).map(|_| source.next_record()).collect(),
        }
    })
}

#[test]
fn build_and_pool_events_are_registered() {
    let seen = seen(&fixture().build_events);
    assert_registered(&seen, "step2.");
    assert_registered(&seen, "pool.");
}

#[test]
fn online_filter_events_are_registered() {
    let f = fixture();
    let recorder = Arc::new(Recorder::new());
    let mut predictor = OnlinePredictor::with_options(
        Arc::clone(&f.model),
        &OnlineOptions {
            sink: Obs::new(Arc::clone(&recorder)),
        },
    );
    for r in &f.live[..300] {
        predictor.step(&r.x, r.y);
    }
    drop(predictor);
    assert_registered(&seen(&recorder.events()), "online.");
}

#[test]
fn serving_engine_and_store_events_are_registered() {
    let f = fixture();
    let recorder = Arc::new(Recorder::new());
    let obs = Obs::new(Arc::clone(&recorder));
    let io = Arc::new(MemIo::new());
    let store_options = || StoreOptions {
        commit_interval_us: 0,
        segment_bytes: 1_024,
        sink: obs.clone(),
        ..Default::default()
    };
    let store = StreamStore::open_with(Arc::clone(&io) as Arc<dyn StoreIo>, store_options())
        .expect("open store");
    let engine = ServeEngine::with_options(
        Arc::clone(&f.model),
        &ServeOptions {
            shards: Some(4),
            threads: Some(2),
            capacity: Some(1),
            store: Some(Arc::new(store)),
            sink: obs.clone(),
            ..Default::default()
        },
    );
    let streams = 8u64;
    let batch = |r: &StreamRecord| -> Vec<Request> {
        (0..streams)
            .map(|stream| Request::Step {
                stream,
                x: r.x.to_vec(),
                y: r.y,
            })
            .collect()
    };
    for r in &f.live[..150] {
        engine.submit(&batch(r));
    }
    // A model swap, then traffic that unparks and migrates, one batch of
    // it under a trace (the engine's `serve.batch` span).
    let novel: Arc<dyn Classifier> = Arc::new(MajorityClassifier::from_counts(&[0, 1]));
    engine
        .swap_model(Arc::new(f.model.admit_concept(novel, 0.2, 120)))
        .expect("swap");
    {
        let _scope = obs.trace_scope(TraceContext::for_batch(1));
        engine.submit(&batch(&f.live[150]));
    }
    for r in &f.live[151..300] {
        engine.submit(&batch(r));
    }
    engine.flush_trace();
    drop(engine);
    // Reopening the store replays it: the recovery gauges.
    drop(StreamStore::open_with(io, store_options()).expect("reopen store"));

    let seen = seen(&recorder.events());
    assert_registered(&seen, "serve.");
    assert_registered(&seen, "store.");
    for name in [
        "serve.swaps",
        "serve.evictions",
        "store.seals",
        "store.recovery_ns",
    ] {
        assert!(
            seen.iter().any(|(n, _)| n == name),
            "the drive must reach {name}"
        );
    }
}

#[test]
fn adaptive_engine_events_are_registered() {
    let f = fixture();
    let recorder = Arc::new(Recorder::new());
    let obs = Obs::new(Arc::clone(&recorder));
    let engine = AdaptiveEngine::try_new(
        Arc::clone(&f.model),
        &ServeOptions {
            threads: Some(1),
            sink: obs.clone(),
            ..Default::default()
        },
        AdaptOptions {
            window: 40,
            min_segment: 300,
            max_segment: 700,
            sink: obs.clone(),
            ..AdaptOptions::default()
        },
    )
    .expect("valid configuration");
    let dir = std::env::temp_dir().join(format!("hom-event-registry-{}", std::process::id()));
    let flight = Arc::new(FlightRecorder::new(256));
    engine.set_incident_dump(IncidentDump::new(Arc::clone(&flight), &dir));

    // On-model, then the held-out concept until it is admitted.
    let mut source = StaggerSource::new(StaggerParams {
        lambda: 0.01,
        ..Default::default()
    });
    let mut admitted = false;
    for t in 0..1_600 {
        let mut r = source.next_record();
        if t >= 300 {
            r.y = stagger_label(NOVEL_CONCEPT, r.x[0], r.x[1], r.x[2]);
        }
        // The first bystander batch runs under a trace, so an incident
        // dump links to it (`adapt.trigger_trace`).
        let _scope = (t == 0).then(|| obs.trace_scope(TraceContext::for_batch(1)));
        engine.serve().submit(&[Request::Step {
            stream: 1,
            x: r.x.to_vec(),
            y: r.y,
        }]);
        let (_, event) = engine.step_monitor(&r.x, r.y);
        admitted |= matches!(event, Some(AdaptEvent::Admitted { .. }));
        if t % 100 == 0 {
            engine.ingest_fleet_evidence();
        }
        if admitted && t % 100 == 99 {
            break;
        }
    }
    assert!(admitted, "the held-out concept must be admitted");
    engine.serve().flush_trace();
    let _ = std::fs::remove_dir_all(&dir);

    let seen = seen(&recorder.events());
    assert_registered(&seen, "adapt.");
    for name in [
        "adapt.triggers",
        "adapt.swaps",
        "adapt.flight_dumps",
        "adapt.trigger_trace",
    ] {
        assert!(
            seen.iter().any(|(n, _)| n == name),
            "the drive must reach {name}"
        );
    }
}

fn spawn_worker(model: &Arc<HighOrderModel>) -> WorkerServer {
    let telemetry = Arc::new(ServeTelemetry::with_capacities(4_096, 4_096));
    let engine = Arc::new(ServeEngine::with_options(
        Arc::clone(model),
        &ServeOptions {
            shards: Some(4),
            threads: Some(1),
            sink: telemetry.obs(),
            ..Default::default()
        },
    ));
    WorkerServer::bind("127.0.0.1:0".parse().unwrap(), engine, telemetry).expect("worker binds")
}

#[test]
fn cluster_spans_and_dump_trailers_are_registered() {
    let f = fixture();
    let mut workers: Vec<WorkerServer> = (0..2).map(|_| spawn_worker(&f.model)).collect();
    let router = Router::new(
        workers.iter().map(|w| w.addr()).collect(),
        DEFAULT_VNODES,
        Duration::from_secs(10),
    )
    .expect("router");

    // A traced batch, a health sweep, a fleet swap and a rebalance that
    // migrates streams; the federated trace of each holds the router's
    // and every worker's spans.
    let r = &f.live[0];
    let batch: Vec<Request> = (0..16u64)
        .map(|i| Request::Step {
            stream: i * 7919 + 3,
            x: r.x.to_vec(),
            y: r.y,
        })
        .collect();
    router.submit(&batch).expect("submit");
    let mut traces = vec![router.last_trace_id()];
    router.cluster_status();
    traces.push(TraceContext::for_probe(0).trace_id);
    let novel: Arc<dyn Classifier> = Arc::new(MajorityClassifier::from_counts(&[0, 1]));
    let grown = Arc::new(f.model.admit_concept(novel, 0.2, 120));
    router
        .swap(&encode_model(&grown, 1).expect("model encodes"))
        .expect("swap");
    traces.push(router.last_trace_id());
    workers.push(spawn_worker(&grown));
    let report = router.add_worker(workers[2].addr()).expect("rebalance");
    assert!(report.migrated > 0, "the join must move streams");
    traces.push(router.last_trace_id());
    let mut events = Vec::new();
    for id in traces {
        events.extend(parse_jsonl(&router.trace(id).expect("federated trace")));
    }

    // The capped dumps' trailer lines.
    let flight = Arc::new(FlightRecorder::new(64));
    let buffer = Arc::new(TraceBuffer::new(64));
    let ctx = TraceContext::for_batch(7);
    {
        let obs = Obs::new(
            Fanout::new()
                .with(Arc::clone(&flight))
                .with(Arc::clone(&buffer)),
        );
        let _scope = obs.trace_scope(ctx);
        drop(obs.span("cluster.route"));
        drop(obs.span("cluster.merge"));
    }
    events.extend(parse_jsonl(&flight.dump_jsonl_capped(1)));
    events.extend(parse_jsonl(&buffer.slice_jsonl(ctx.trace_id, 1)));

    let seen = seen(&events);
    assert_registered(&seen, "cluster.");
    for name in [
        "cluster.forward",
        "cluster.healthz",
        "cluster.swap_commit",
        "cluster.migrate_in",
        "serve.batch",
        "flight.truncated",
        "trace.truncated",
    ] {
        assert!(
            seen.iter().any(|(n, _)| n == name),
            "the drive must reach {name}"
        );
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_registered_name_appears_in_some_source() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let registry = crates.join("obs/src/registry.rs");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(&crates).expect("crates dir") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let sources: Vec<String> = files
        .iter()
        .filter(|p| **p != registry)
        .map(|p| std::fs::read_to_string(p).expect("readable source"))
        .collect();
    let orphans: Vec<&str> = EVENTS
        .iter()
        .map(|s| s.name)
        .filter(|name| {
            let literal = format!("\"{name}\"");
            !sources.iter().any(|text| text.contains(&literal))
        })
        .collect();
    assert!(
        orphans.is_empty(),
        "registered names no source emits: {orphans:?}"
    );
}

#[test]
fn the_table_is_sorted_and_each_entry_exports_cleanly() {
    for pair in EVENTS.windows(2) {
        assert!(
            pair[0].name < pair[1].name,
            "{} must sort strictly before {}",
            pair[0].name,
            pair[1].name
        );
    }
    for s in EVENTS {
        assert!(!s.help.trim().is_empty(), "{} has no help", s.name);
        assert!(
            !s.help.contains(['\\', '\n', '\r']),
            "{}'s help would need escaping in # HELP",
            s.name
        );
        assert_eq!(spec(s.name), Some(s), "lookup finds {}", s.name);
    }
    let mut families = BTreeSet::new();
    for s in EVENTS {
        let family = family_name(s.name, s.kind);
        assert!(
            families.insert(family.clone()),
            "{} exports as {family}, which another entry already does",
            s.name
        );
    }
}
