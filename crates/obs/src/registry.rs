//! The event registry: every event name the workspace emits, the kind
//! it is emitted as and one line of help. [`EVENTS`] is the only
//! catalogue: `/metrics` writes each family's `# HELP` from it
//! ([`crate::export::to_prometheus`]), `examples/trace_report.rs` rejects
//! a name it does not hold under its kind, and `tests/event_registry.rs`
//! binds it to what the sources emit. The emit path never reads it. A
//! new event is one line here, kept sorted by name.

use crate::event::Event;

/// What an event name is emitted as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A span ([`crate::Obs::span`], [`crate::Obs::span_under`]): both
    /// its `span_start` and `span_end` events.
    Span,
    /// A counter increment ([`crate::Obs::count`]).
    Count,
    /// A point-in-time scalar ([`crate::Obs::gauge`]).
    Gauge,
    /// An indexed vector sample ([`crate::Obs::series`]).
    Series,
    /// A histogram snapshot ([`crate::Obs::hist`]).
    Hist,
}

impl Kind {
    /// The kind `event` is an instance of.
    pub fn of(event: &Event<'_>) -> Kind {
        match event {
            Event::SpanStart { .. } | Event::SpanEnd { .. } => Kind::Span,
            Event::Count { .. } => Kind::Count,
            Event::Gauge { .. } => Kind::Gauge,
            Event::Series { .. } => Kind::Series,
            Event::Hist { .. } => Kind::Hist,
        }
    }
}

/// One registered event name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSpec {
    /// The dot-separated event name, prefixed by the emitting subsystem.
    pub name: &'static str,
    /// What the name is emitted as.
    pub kind: Kind,
    /// One line of help: the exported family's `# HELP` text. Plain
    /// text, no backslash or newline (`push_header` does not escape).
    pub help: &'static str,
}

impl EventSpec {
    const fn new(name: &'static str, kind: Kind, help: &'static str) -> Self {
        EventSpec { name, kind, help }
    }
}

const fn span(name: &'static str, help: &'static str) -> EventSpec {
    EventSpec::new(name, Kind::Span, help)
}

const fn count(name: &'static str, help: &'static str) -> EventSpec {
    EventSpec::new(name, Kind::Count, help)
}

const fn gauge(name: &'static str, help: &'static str) -> EventSpec {
    EventSpec::new(name, Kind::Gauge, help)
}

const fn series(name: &'static str, help: &'static str) -> EventSpec {
    EventSpec::new(name, Kind::Series, help)
}

const fn hist(name: &'static str, help: &'static str) -> EventSpec {
    EventSpec::new(name, Kind::Hist, help)
}

/// Every event the workspace emits, sorted by name.
pub const EVENTS: &[EventSpec] = &[
    gauge("adapt.admission_latency", "segment records at admission"),
    gauge("adapt.admission_similarity", "Eq. 4 match at admission"),
    count("adapt.admissions_matched", "segments admitted as recurring"),
    count("adapt.admissions_novel", "segments admitted as novel"),
    series("adapt.evidence", "windowed mean likelihood and entropy"),
    series("adapt.fleet_evidence", "fleet mean likelihood and entropy"),
    count("adapt.flight_dump_failures", "incident dumps not written"),
    count("adapt.flight_dumps", "incident dumps written"),
    count("adapt.recoveries", "excursions recovered before admission"),
    gauge("adapt.recovery_latency", "segment records at recovery"),
    gauge("adapt.swap_epoch", "model epoch after the last admission"),
    count("adapt.swap_failures", "admission swaps the engine refused"),
    count("adapt.swaps", "admitted models swapped into the engine"),
    gauge("adapt.trigger_likelihood", "windowed likelihood at trigger"),
    count("adapt.trigger_trace", "n is the trace id at an incident"),
    count("adapt.triggers", "novelty triggers: a monitor off-model"),
    span("build", "offline build of the high-order model"),
    span("build.absorb", "absorb concepts below the minimum support"),
    span("build.cluster", "two-step concept clustering"),
    count("build.concepts_absorbed", "concepts absorbed by neighbours"),
    count("build.concepts_retrained", "concepts refit on all records"),
    count("build.occurrences", "concept occurrences in the history"),
    count("build.records", "historical records the build read"),
    span("build.retrain", "refit every concept on all its records"),
    span("build.stats", "occurrence and transition stats (Eq. 6)"),
    series("build.transition_row", "a row of the chi kernel (Eq. 6)"),
    span("cluster.decode", "worker: decode a submitted batch"),
    span("cluster.encode", "worker: encode a batch's responses"),
    span("cluster.forward", "router: one sub-batch to a worker"),
    span("cluster.healthz", "worker: answer a health probe"),
    span("cluster.merge", "router: merge worker replies"),
    span("cluster.migrate", "router: two-phase stream migration"),
    span("cluster.migrate_evict", "worker: drop a migrated stream"),
    span("cluster.migrate_in", "worker: install a migrated-in stream"),
    span("cluster.migrate_snapshot", "worker: snapshot for migration"),
    span("cluster.probe", "router: health sweep over the workers"),
    span("cluster.route", "router: split a batch by stream owner"),
    span("cluster.submit", "worker: serve one submitted batch"),
    span("cluster.swap", "router: two-phase fleet model flip"),
    span("cluster.swap_commit", "worker: commit a prepared swap"),
    span("cluster.swap_prepare", "worker: stage a model swap"),
    count("flight.truncated", "events cut from a capped flight dump"),
    count("online.concepts_consulted", "classifiers run to predict"),
    count("online.label_agree", "labels the MAP concept predicted"),
    hist("online.latency_ns", "predict+observe time per record, ns"),
    series("online.posterior", "concept posterior (Eqs. 5-9)"),
    count("online.prune", "concepts skipped by early stop (III-C)"),
    count("online.pruned_records", "predictions stopped early (III-C)"),
    count("online.records_observed", "labelled records absorbed"),
    count("online.records_predicted", "records predicted"),
    series("pool.worker_busy_us", "busy time per worker of a map, us"),
    series("pool.worker_tasks", "tasks per worker of a parallel map"),
    span("serve.batch", "engine: one traced batch"),
    hist("serve.batch_distinct", "distinct records per fan-out task"),
    hist("serve.batch_latency_ns", "submit time per batch, ns"),
    hist("serve.batch_requests", "requests per fan-out task"),
    count("serve.batches", "batches submitted"),
    series("serve.concept_map_hits", "absorbed records per MAP concept"),
    series("serve.concept_map_streams", "live streams per MAP concept"),
    series("serve.concept_posterior_mass", "posterior mass per concept"),
    count("serve.concepts_consulted", "classifiers run to predict"),
    gauge("serve.dedup_ratio", "records interned per distinct record"),
    count("serve.evictions", "streams evicted from the live table"),
    gauge("serve.fleet_mean_entropy", "mean normalised entropy"),
    gauge("serve.fleet_mean_likelihood", "mean Eq. 7 likelihood"),
    gauge("serve.live_streams", "streams in the live table"),
    gauge("serve.model_epoch", "model generation after the last swap"),
    gauge("serve.parked_streams", "streams parked out of memory"),
    count("serve.pruned_records", "predictions stopped early (III-C)"),
    count("serve.records_observed", "labelled records absorbed"),
    count("serve.records_predicted", "records predicted"),
    series("serve.shard_live", "live streams per shard"),
    series("serve.shard_parked", "parked streams per shard"),
    count("serve.slo_exemplars", "slow-batch exemplars captured"),
    hist("serve.stage_apply_ns", "apply time per task, ns"),
    hist("serve.stage_evaluate_ns", "evaluate time per task, ns"),
    hist("serve.stage_intern_ns", "intern time per task, ns"),
    count("serve.swap_live_migrated", "live streams migrated"),
    count("serve.swap_parked_migrated", "parked streams migrated"),
    hist("serve.swap_pause_ns", "stop-the-world swap pause, ns"),
    count("serve.swaps", "model swaps applied"),
    count("serve.unparks", "parked streams brought back live"),
    span("step1", "step 1: cluster blocks into chunks (II-B)"),
    span("step1.block_fits", "fit one model per block"),
    count("step1.blocks", "blocks the history was cut into"),
    count("step1.candidate_fits", "merged-pair models fitted"),
    count("step1.chunks", "chunks kept by the dendrogram cut"),
    gauge("step1.cut_q", "objective Q of the kept cut (Eq. 1)"),
    span("step1.merge_loop", "greedy merging of adjacent clusters"),
    count("step1.mergers", "adjacent merges accepted"),
    gauge("step1.q", "running objective Q after each merge (Eq. 1)"),
    span("step1.seed_candidates", "fit every adjacent pair of blocks"),
    count("step1.stale_skips", "stale merge candidates skipped"),
    span("step2", "step 2: cluster chunks into concepts (II-C)"),
    count("step2.concepts", "concepts kept by the dendrogram cut"),
    gauge("step2.cut_q", "objective Q of the kept cut (Eq. 1)"),
    span("step2.distance_matrix", "pairwise chunk distances (Eq. 4)"),
    count("step2.distance_rows", "distance rows for merged clusters"),
    count("step2.distances", "distance entries held at the end"),
    span("step2.merge_loop", "greedy merging of concept clusters"),
    count("step2.mergers", "concept merges accepted"),
    span("step2.pred_cache", "cache chunk predictions on the sample"),
    gauge("step2.q", "running objective Q after each merge (Eq. 1)"),
    count("step2.stale_skips", "stale merge candidates skipped"),
    count("store.append_bytes", "bytes appended to the log"),
    count("store.appends", "snapshots appended to the log"),
    count("store.commit_records", "records made durable by commits"),
    count("store.commits", "group commits"),
    count("store.compactions", "segment compactions"),
    hist("store.fsync_ns", "fsync time, ns"),
    count("store.io_errors", "failed store I/O operations"),
    gauge("store.parked", "streams parked on disk"),
    gauge("store.pending_bytes", "appended bytes not yet committed"),
    count("store.reclaimed_bytes", "bytes reclaimed by compaction"),
    gauge("store.recovered_streams", "streams recovered at open"),
    gauge("store.recovery_ns", "recovery time at open, ns"),
    count("store.seals", "log segments sealed"),
    gauge("store.segments", "non-empty segment files"),
    count("store.truncated_bytes", "torn-tail bytes truncated at open"),
    count("store.unparks", "snapshots read back from disk"),
    count("trace.truncated", "events cut from a capped trace dump"),
];

/// The registered spec of `name`, if any.
pub fn spec(name: &str) -> Option<&'static EventSpec> {
    EVENTS
        .binary_search_by(|s| s.name.cmp(name))
        .ok()
        .map(|i| &EVENTS[i])
}
