//! Turn a `HOM_TRACE` JSONL trace back into a human summary.
//!
//! ```sh
//! HOM_TRACE=trace.jsonl cargo run --release --example quickstart
//! cargo run --release --example trace_report trace.jsonl
//! ```
//!
//! The report covers everything the trace observes:
//!
//! * the **offline build**: a span tree with wall time per stage, plus
//!   the clustering counters (blocks, candidate fits, mergers, pruned
//!   stale heap entries) and the objective `Q` at the dendrogram cuts;
//! * the **online filter**: the concept-posterior timeline (the paper's
//!   Fig. 6, as a per-concept sparkline), the prediction-latency
//!   histogram and the early-termination statistics of §III-C;
//! * the **worker pools**: how the parallel maps distributed work;
//! * the **serving engine**: request/eviction/unpark totals, batch
//!   latency, the kernel stage durations (intern / evaluate / apply)
//!   with dedup ratio and batch shape, fleet-wide early termination,
//!   per-concept posterior mass and MAP share, SLO exemplar counts,
//!   per-shard occupancy and hot-swap pauses;
//! * the **adaptation loop**: the evidence windows (mean likelihood and
//!   entropy sparklines, per monitor stream and fleet-wide), trigger →
//!   recovery → admission lifecycle counts and flight-recorder incident
//!   dumps;
//! * the **cluster fleet**: stitched distributed traces — one
//!   cross-process span tree per trace id, each span labelled with the
//!   node that emitted it (`router`, `w0`, …) and every cross-node edge
//!   broken down into remote work vs transport/queue overhead. This is
//!   the shape the router's federated `/trace/<id>` endpoint serves;
//!   the `"node"` label it injects is not part of the event schema, so
//!   this report recovers it by scanning the raw line.
//!
//! Works on `HOM_TRACE` files, on flight-recorder dumps (`/flight`,
//! trigger incident reports) and on `/trace/<id>` responses alike —
//! they share the JSONL format.
//!
//! Exits non-zero on unreadable input, malformed trace lines, **or event
//! names this report does not know**, so CI verifies both the trace
//! format and the event-name registry end to end: an instrumentation
//! point added without teaching the report (and the registry in
//! `hom-obs`'s crate docs) about it fails the build instead of being
//! silently dropped from reports.

use std::collections::BTreeMap;

use high_order_models::obs::{json, jsonl};
use high_order_models::obs::{Histogram, OwnedEvent};

/// Every event name the instrumented pipeline emits — the executable
/// form of the registry in `hom-obs`'s crate docs. `main` rejects names
/// outside this list.
const KNOWN_EVENTS: &[&str] = &[
    // offline build (hom-core, hom-cluster)
    "build",
    "build.absorb",
    "build.cluster",
    "build.concepts_absorbed",
    "build.concepts_retrained",
    "build.occurrences",
    "build.records",
    "build.retrain",
    "build.stats",
    "build.transition_row",
    "step1",
    "step1.block_fits",
    "step1.blocks",
    "step1.candidate_fits",
    "step1.chunks",
    "step1.cut_q",
    "step1.merge_loop",
    "step1.mergers",
    "step1.q",
    "step1.seed_candidates",
    "step1.stale_skips",
    "step2",
    "step2.concepts",
    "step2.cut_q",
    "step2.distance_matrix",
    "step2.distance_rows",
    "step2.distances",
    "step2.merge_loop",
    "step2.mergers",
    "step2.pred_cache",
    "step2.q",
    "step2.stale_skips",
    // online filter (hom-core)
    "online.concepts_consulted",
    "online.label_agree",
    "online.latency_ns",
    "online.posterior",
    "online.predict_ns",
    "online.prune",
    "online.pruned_records",
    "online.records_observed",
    "online.records_predicted",
    // worker pool (hom-parallel)
    "pool.worker_busy_us",
    "pool.worker_tasks",
    // cluster fleet, router side (hom-cluster-serve)
    "cluster.forward",
    "cluster.merge",
    "cluster.migrate",
    "cluster.probe",
    "cluster.route",
    "cluster.swap",
    // cluster fleet, worker side (hom-cluster-serve)
    "cluster.decode",
    "cluster.encode",
    "cluster.healthz",
    "cluster.migrate_evict",
    "cluster.migrate_in",
    "cluster.migrate_snapshot",
    "cluster.submit",
    "cluster.swap_commit",
    "cluster.swap_prepare",
    // capped-dump truncation trailers (hom-obs)
    "flight.truncated",
    "trace.truncated",
    // serving engine (hom-serve)
    "serve.batch",
    "serve.batch_distinct",
    "serve.batch_latency_ns",
    "serve.batch_requests",
    "serve.batches",
    "serve.concept_map_hits",
    "serve.concept_map_streams",
    "serve.concept_posterior_mass",
    "serve.concepts_consulted",
    "serve.dedup_ratio",
    "serve.evictions",
    "serve.fleet_mean_entropy",
    "serve.fleet_mean_likelihood",
    "serve.live_streams",
    "serve.model_epoch",
    "serve.parked_streams",
    "serve.pruned_records",
    "serve.records_observed",
    "serve.records_predicted",
    "serve.shard_live",
    "serve.shard_parked",
    "serve.slo_exemplars",
    "serve.stage_apply_ns",
    "serve.stage_evaluate_ns",
    "serve.stage_intern_ns",
    "serve.swap_live_migrated",
    "serve.swap_parked_migrated",
    "serve.swap_pause_ns",
    "serve.swaps",
    "serve.unparks",
    // durable state tier (hom-store)
    "store.append_bytes",
    "store.appends",
    "store.commit_records",
    "store.commits",
    "store.compactions",
    "store.fsync_ns",
    "store.io_errors",
    "store.parked",
    "store.pending_bytes",
    "store.reclaimed_bytes",
    "store.recovered_streams",
    "store.recovery_ns",
    "store.seals",
    "store.segments",
    "store.truncated_bytes",
    "store.unparks",
    // novelty & maintenance (hom-adapt)
    "adapt.admission_latency",
    "adapt.admission_similarity",
    "adapt.admissions_matched",
    "adapt.admissions_novel",
    "adapt.evidence",
    "adapt.fleet_evidence",
    "adapt.flight_dump_failures",
    "adapt.flight_dumps",
    "adapt.recoveries",
    "adapt.recovery_latency",
    "adapt.swap_epoch",
    "adapt.swap_failures",
    "adapt.swaps",
    "adapt.trigger_likelihood",
    "adapt.trigger_trace",
    "adapt.triggers",
];

/// Aggregated view of one span name: call count and total duration.
#[derive(Default)]
struct SpanAgg {
    calls: u64,
    total_us: u64,
    /// Parent span *name* (via ids), for tree printing.
    parent: Option<String>,
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .or_else(|| std::env::var(high_order_models::obs::TRACE_ENV).ok());
    let Some(path) = path else {
        eprintln!("usage: trace_report <trace.jsonl>  (or set HOM_TRACE)");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("trace_report: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };

    let mut events: Vec<OwnedEvent> = Vec::new();
    // Origin node per event ("" when the line carries no `"node"` label,
    // i.e. everything except stitched `/trace/<id>` responses).
    let mut nodes: Vec<String> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match jsonl::parse_line(line) {
            Ok(ev) => {
                events.push(ev);
                nodes.push(node_of(line));
            }
            Err(e) => {
                eprintln!("trace_report: {path}:{}: bad trace line: {e}", lineno + 1);
                std::process::exit(1);
            }
        }
    }
    if events.is_empty() {
        eprintln!("trace_report: {path} holds no events");
        std::process::exit(1);
    }

    // Unknown names fail the report: an event this binary cannot render
    // is either a typo at the instrumentation point or a new event that
    // must be added to KNOWN_EVENTS (and the hom-obs registry docs).
    let mut unknown: Vec<&str> = events
        .iter()
        .map(OwnedEvent::name)
        .filter(|name| !KNOWN_EVENTS.contains(name))
        .collect();
    unknown.sort_unstable();
    unknown.dedup();
    if !unknown.is_empty() {
        eprintln!(
            "trace_report: {path} holds {} unknown event name(s): {}",
            unknown.len(),
            unknown.join(", ")
        );
        eprintln!("  (new instrumentation? teach examples/trace_report.rs and the hom-obs registry about it)");
        std::process::exit(1);
    }
    println!("trace: {path} ({} events)", events.len());

    report_spans(&events);
    report_traces(&events, &nodes);
    report_counters(&events);
    report_gauges(&events);
    report_pools(&events);
    report_online(&events);
    report_serving(&events);
    report_adapt(&events);
}

/// Span tree: name, calls, total wall time — children indented under the
/// name of their parent span.
fn report_spans(events: &[OwnedEvent]) {
    // Map span ids to names so `parent` ids resolve to a tree of *names*.
    let mut name_of: BTreeMap<u64, String> = BTreeMap::new();
    for e in events {
        if let OwnedEvent::SpanStart { id, name, .. } = e {
            name_of.insert(*id, name.clone());
        }
    }
    let mut aggs: BTreeMap<String, SpanAgg> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new(); // first-seen order
    for e in events {
        if let OwnedEvent::SpanEnd {
            name,
            parent,
            dur_us,
            ..
        } = e
        {
            let agg = aggs.entry(name.clone()).or_insert_with(|| {
                order.push(name.clone());
                SpanAgg {
                    parent: name_of.get(parent).cloned(),
                    ..SpanAgg::default()
                }
            });
            agg.calls += 1;
            agg.total_us += dur_us;
        }
    }
    if aggs.is_empty() {
        return;
    }
    println!("\n== stage wall time (from spans) ==");
    // Print roots first, then children under them, preserving first-seen
    // order within each level.
    fn print_level(
        order: &[String],
        aggs: &BTreeMap<String, SpanAgg>,
        parent: Option<&str>,
        depth: usize,
    ) {
        for name in order {
            let agg = &aggs[name];
            let is_child = match (&agg.parent, parent) {
                (Some(p), Some(q)) => p == q && aggs.contains_key(p),
                (Some(p), None) => !aggs.contains_key(p),
                (None, None) => true,
                (None, Some(_)) => false,
            };
            if !is_child {
                continue;
            }
            println!(
                "  {:indent$}{name:<width$} {:>9}  x{}",
                "",
                fmt_us(agg.total_us),
                agg.calls,
                indent = depth * 2,
                width = 28usize.saturating_sub(depth * 2),
            );
            print_level(order, aggs, Some(name), depth + 1);
        }
    }
    print_level(&order, &aggs, None, 0);
}

/// The `"node"` label the router's federated `/trace/<id>` endpoint
/// injects into each stitched line, or `""` when absent.
/// `jsonl::parse_line` tolerates-but-drops the field, so it is read
/// here as a field of its own (the line has already parsed).
fn node_of(line: &str) -> String {
    json::fields(line, ["node"])
        .and_then(|[node]| node.str())
        .map_or_else(|_| String::new(), String::from)
}

/// Stitched distributed traces: one cross-process span tree per trace
/// id, each span labelled with its origin node, plus a transport/queue
/// breakdown for every cross-node edge (the hop's wall time on the
/// caller minus the remote span's own wall time).
///
/// Span ids are per-process counters, so spans are keyed `(node, id)`;
/// a parent link resolves to the same node first and falls back to any
/// other node — that fallback is exactly the cross-process stitch the
/// `X-HOM-Trace` header carries.
fn report_traces(events: &[OwnedEvent], nodes: &[String]) {
    let mut traces: BTreeMap<u64, Vec<TraceSpan<'_>>> = BTreeMap::new();
    for (e, node) in events.iter().zip(nodes) {
        if let OwnedEvent::SpanEnd {
            id,
            parent,
            trace,
            name,
            dur_us,
            ..
        } = e
        {
            if *trace != 0 {
                traces.entry(*trace).or_default().push((
                    node.as_str(),
                    *id,
                    *parent,
                    name.as_str(),
                    *dur_us,
                ));
            }
        }
    }
    if traces.is_empty() {
        return;
    }
    println!("\n== distributed traces ==");
    const MAX_TREES: usize = 4;
    for (shown, (trace, spans)) in traces.iter().enumerate() {
        if shown == MAX_TREES {
            println!("  ... {} more trace(s) not shown", traces.len() - MAX_TREES);
            break;
        }
        let node_count = {
            let mut seen: Vec<&str> = spans.iter().map(|s| s.0).collect();
            seen.sort_unstable();
            seen.dedup();
            seen.len()
        };
        println!(
            "  trace {trace:016x}  ({} spans across {node_count} node{})",
            spans.len(),
            if node_count == 1 { "" } else { "s" },
        );
        print_subtree(spans, None, 0);
        // Per-hop transport overhead: every edge whose child lives on a
        // different node crossed the wire. The caller-side span covers
        // connect + serialize + remote work + response; subtracting the
        // remote span's own wall time isolates transport + queueing.
        for &(node, _, parent, name, dur_us) in spans {
            let Some((pnode, pid)) = resolve_parent(spans, node, parent) else {
                continue;
            };
            if pnode == node {
                continue;
            }
            let &(_, _, _, pname, pdur) = spans
                .iter()
                .find(|s| s.0 == pnode && s.1 == pid)
                .expect("resolve_parent only returns existing spans");
            println!(
                "    hop {pnode}->{node} ({pname}): {} total, {} remote ({name}), {} transport+queue",
                fmt_us(pdur),
                fmt_us(dur_us),
                fmt_us(pdur.saturating_sub(dur_us)),
            );
        }
    }
}

/// One closed span of a stitched trace: (node, id, parent, name, dur_us),
/// in file order.
type TraceSpan<'a> = (&'a str, u64, u64, &'a str, u64);

/// Resolve a span's parent link to a `(node, id)` key: a same-node span
/// wins (span ids are per-process counters), any other node is the
/// cross-process fallback (the remote parent the `X-HOM-Trace` header
/// carried), and no match at all makes the span a root.
fn resolve_parent<'a>(spans: &[TraceSpan<'a>], node: &str, parent: u64) -> Option<(&'a str, u64)> {
    if parent == 0 {
        return None;
    }
    spans
        .iter()
        .find(|s| s.0 == node && s.1 == parent)
        .or_else(|| spans.iter().find(|s| s.1 == parent))
        .map(|s| (s.0, parent))
}

/// Print the spans whose resolved parent is `want`, then recurse.
fn print_subtree(spans: &[TraceSpan<'_>], want: Option<(&str, u64)>, depth: usize) {
    for &(node, id, parent, name, dur_us) in spans {
        if resolve_parent(spans, node, parent) != want {
            continue;
        }
        let label = if node.is_empty() { "local" } else { node };
        println!(
            "    {label:>6}  {:indent$}{name:<width$} {:>9}",
            "",
            fmt_us(dur_us),
            indent = depth * 2,
            width = 26usize.saturating_sub(depth * 2),
        );
        print_subtree(spans, Some((node, id)), depth + 1);
    }
}

fn report_counters(events: &[OwnedEvent]) {
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for e in events {
        if let OwnedEvent::Count { name, n, .. } = e {
            *totals.entry(name).or_default() += n;
        }
    }
    // `online.prune` is one event per pruned record; its per-record detail
    // is summarized in the online section instead.
    if totals.is_empty() {
        return;
    }
    println!("\n== counters ==");
    for (name, total) in &totals {
        println!("  {name:<28} {total}");
    }
}

fn report_gauges(events: &[OwnedEvent]) {
    // Q trajectories: show first → last plus the cut value when present.
    for step in ["step1", "step2"] {
        let q: Vec<f64> = events
            .iter()
            .filter_map(|e| match e {
                OwnedEvent::Gauge { name, value, .. } if name == &format!("{step}.q") => {
                    Some(*value)
                }
                _ => None,
            })
            .collect();
        let cut: Option<f64> = events.iter().rev().find_map(|e| match e {
            OwnedEvent::Gauge { name, value, .. } if name == &format!("{step}.cut_q") => {
                Some(*value)
            }
            _ => None,
        });
        if q.is_empty() && cut.is_none() {
            continue;
        }
        print!("\n== {step} objective Q (Eq. 1) ==\n  ");
        if let (Some(first), Some(last)) = (q.first(), q.last()) {
            print!("{} mergers: Q {first:.1} -> {last:.1}", q.len());
        }
        if let Some(cut) = cut {
            print!("  (cut kept Q = {cut:.1})");
        }
        println!();
    }
}

fn report_pools(events: &[OwnedEvent]) {
    let mut maps = 0u64;
    let mut tasks = 0.0f64;
    let mut busy_us = 0.0f64;
    let mut widest = 0usize;
    for e in events {
        if let OwnedEvent::Series { name, values, .. } = e {
            match name.as_str() {
                "pool.worker_tasks" => {
                    maps += 1;
                    tasks += values.iter().sum::<f64>();
                    widest = widest.max(values.len());
                }
                "pool.worker_busy_us" => busy_us += values.iter().sum::<f64>(),
                _ => {}
            }
        }
    }
    if maps == 0 {
        return;
    }
    println!("\n== worker pools ==");
    println!("  parallel maps               {maps}");
    println!("  tasks executed              {tasks:.0}");
    println!("  widest distribution         {widest} worker(s)");
    println!("  total worker busy time      {}", fmt_us(busy_us as u64));
}

fn report_online(events: &[OwnedEvent]) {
    // Posterior timeline (Fig. 6): one sparkline per concept.
    let posterior: Vec<&Vec<f64>> = events
        .iter()
        .filter_map(|e| match e {
            OwnedEvent::Series { name, values, .. } if name == "online.posterior" => Some(values),
            _ => None,
        })
        .collect();
    if let Some(first) = posterior.first() {
        let n_concepts = first.len();
        println!(
            "\n== concept posterior timeline ({} records, {} concepts) ==",
            posterior.len(),
            n_concepts
        );
        for c in 0..n_concepts {
            let series: Vec<f64> = posterior
                .iter()
                .map(|p| p.get(c).copied().unwrap_or(0.0))
                .collect();
            let mean = series.iter().sum::<f64>() / series.len() as f64;
            println!(
                "  concept {c}: {}  (mean P = {mean:.2})",
                sparkline(&series, 64)
            );
        }
    }

    // Prediction latency.
    let mut latency = Histogram::new();
    for e in events {
        if let OwnedEvent::Hist { name, hist, .. } = e {
            if name == "online.latency_ns" {
                latency.merge(hist);
            }
        }
    }
    if latency.count() > 0 {
        println!("\n== online prediction latency (per step, ns) ==");
        println!(
            "  n = {}   mean = {:.0}   p50 <= {:.0}   p90 <= {:.0}   p99 <= {:.0}   max = {:.0}",
            latency.count(),
            latency.mean(),
            latency.quantile(0.5),
            latency.quantile(0.9),
            latency.quantile(0.99),
            latency.max(),
        );
    }

    // Early-termination statistics (§III-C).
    let total = |key: &str| -> u64 {
        events
            .iter()
            .filter_map(|e| match e {
                OwnedEvent::Count { name, n, .. } if name == key => Some(*n),
                _ => None,
            })
            .sum()
    };
    let predicted = total("online.records_predicted");
    if predicted > 0 {
        let pruned = total("online.pruned_records");
        let consulted = total("online.concepts_consulted");
        let skipped = total("online.prune");
        let observed = total("online.records_observed");
        let agree = total("online.label_agree");
        println!("\n== online early termination (sec. III-C) ==");
        println!(
            "  records predicted           {predicted} ({pruned} early-terminated, {:.1}%)",
            100.0 * pruned as f64 / predicted as f64
        );
        println!(
            "  classifiers consulted       {consulted} ({:.2} per record, {skipped} skipped)",
            consulted as f64 / predicted as f64
        );
        if observed > 0 {
            println!(
                "  MAP concept agreed with y   {agree}/{observed} labeled records ({:.1}%)",
                100.0 * agree as f64 / observed as f64
            );
        }
    }
}

/// Sum of all `count` events named `key`.
fn counter_total(events: &[OwnedEvent], key: &str) -> u64 {
    events
        .iter()
        .filter_map(|e| match e {
            OwnedEvent::Count { name, n, .. } if name == key => Some(*n),
            _ => None,
        })
        .sum()
}

/// The most recent `gauge` event named `key`, if any.
fn last_gauge(events: &[OwnedEvent], key: &str) -> Option<f64> {
    events.iter().rev().find_map(|e| match e {
        OwnedEvent::Gauge { name, value, .. } if name == key => Some(*value),
        _ => None,
    })
}

/// The most recent `series` event named `key`, if any.
fn last_series<'a>(events: &'a [OwnedEvent], key: &str) -> Option<&'a Vec<f64>> {
    events.iter().rev().find_map(|e| match e {
        OwnedEvent::Series { name, values, .. } if name == key => Some(values),
        _ => None,
    })
}

/// All `hist` events named `key`, merged.
fn merged_hist(events: &[OwnedEvent], key: &str) -> Histogram {
    let mut out = Histogram::new();
    for e in events {
        if let OwnedEvent::Hist { name, hist, .. } = e {
            if name == key {
                out.merge(hist);
            }
        }
    }
    out
}

fn report_serving(events: &[OwnedEvent]) {
    let predicted = counter_total(events, "serve.records_predicted");
    let observed = counter_total(events, "serve.records_observed");
    if predicted + observed == 0 {
        return;
    }
    println!("\n== serving engine ==");
    println!(
        "  records served              {} predicted, {observed} observed in {} batches",
        predicted,
        counter_total(events, "serve.batches"),
    );
    println!(
        "  evictions / unparks         {} / {}",
        counter_total(events, "serve.evictions"),
        counter_total(events, "serve.unparks"),
    );
    let latency = merged_hist(events, "serve.batch_latency_ns");
    if latency.count() > 0 {
        println!(
            "  batch latency (ns)          n = {}   mean = {:.0}   p50 <= {:.0}   p99 <= {:.0}",
            latency.count(),
            latency.mean(),
            latency.quantile(0.5),
            latency.quantile(0.99),
        );
    }

    // Kernel stage taxonomy: per-task durations of the compiled hot
    // path's three stages.
    for (name, label) in [
        ("serve.stage_intern_ns", "stage: intern (ns/task)"),
        ("serve.stage_evaluate_ns", "stage: evaluate (ns/task)"),
        ("serve.stage_apply_ns", "stage: apply (ns/task)"),
    ] {
        let stage = merged_hist(events, name);
        if stage.count() > 0 {
            println!(
                "  {label:<27} n = {}   mean = {:.0}   p99 <= {:.0}",
                stage.count(),
                stage.mean(),
                stage.quantile(0.99),
            );
        }
    }
    let shape = merged_hist(events, "serve.batch_requests");
    let distinct = merged_hist(events, "serve.batch_distinct");
    if shape.count() > 0 {
        print!(
            "  batch shape                 mean {:.0} requests/batch",
            shape.mean()
        );
        if distinct.count() > 0 {
            print!(", {:.0} distinct records", distinct.mean());
        }
        println!();
    }
    if let Some(ratio) = last_gauge(events, "serve.dedup_ratio") {
        println!("  dedup ratio                 {ratio:.2} interned per distinct record");
    }

    // Fleet-wide early termination (sec. III-C on the serving path).
    let pruned = counter_total(events, "serve.pruned_records");
    let consulted = counter_total(events, "serve.concepts_consulted");
    if predicted > 0 && consulted > 0 {
        println!(
            "  early termination           {pruned} pruned ({:.1}%), {:.2} concepts per record",
            100.0 * pruned as f64 / predicted as f64,
            consulted as f64 / predicted as f64,
        );
    }

    // Live concept analytics: the last flushed per-concept series are
    // the fleet's current posterior mass and MAP share.
    if let Some(mass) = last_series(events, "serve.concept_posterior_mass") {
        let total: f64 = mass.iter().sum();
        let normalized: Vec<f64> = mass
            .iter()
            .map(|&v| v / total.max(f64::MIN_POSITIVE))
            .collect();
        println!(
            "  concept posterior mass      {}  ({} concepts)",
            sparkline(&normalized, 32),
            mass.len(),
        );
    }
    if let Some(map) = last_series(events, "serve.concept_map_streams") {
        let peak = map.iter().cloned().fold(0.0f64, f64::max);
        let normalized: Vec<f64> = map.iter().map(|&v| v / peak.max(1.0)).collect();
        println!(
            "  MAP streams per concept     {}  (max {:.0})",
            sparkline(&normalized, 32),
            peak,
        );
    }
    let lik = last_gauge(events, "serve.fleet_mean_likelihood");
    let ent = last_gauge(events, "serve.fleet_mean_entropy");
    if lik.is_some() || ent.is_some() {
        println!(
            "  fleet evidence              mean likelihood {:.3}, mean entropy {:.3}",
            lik.unwrap_or(1.0),
            ent.unwrap_or(0.0),
        );
    }
    let exemplars = counter_total(events, "serve.slo_exemplars");
    if exemplars > 0 {
        println!("  SLO exemplars captured      {exemplars} slow batches sampled");
    }

    // Shard occupancy: the last flushed per-shard series is the final
    // state of the stream table; render live streams per shard.
    for (name, label) in [
        ("serve.shard_live", "live streams per shard"),
        ("serve.shard_parked", "parked streams per shard"),
    ] {
        let last: Option<&Vec<f64>> = events.iter().rev().find_map(|e| match e {
            OwnedEvent::Series {
                name: n, values, ..
            } if n == name => Some(values),
            _ => None,
        });
        let Some(values) = last else { continue };
        let total: f64 = values.iter().sum();
        if total == 0.0 {
            continue;
        }
        let peak = values.iter().cloned().fold(0.0f64, f64::max);
        let normalized: Vec<f64> = values.iter().map(|&v| v / peak.max(1.0)).collect();
        println!(
            "  {label:<27} {}  ({:.0} across {} shards, max {:.0})",
            sparkline(&normalized, 32),
            total,
            values.len(),
            peak,
        );
    }

    // Hot swaps: how many, the epoch reached, and how long traffic was
    // paused (write-lock wait + full state migration).
    let swaps = counter_total(events, "serve.swaps");
    if swaps > 0 {
        let epoch: Option<f64> = events.iter().rev().find_map(|e| match e {
            OwnedEvent::Gauge { name, value, .. } if name == "serve.model_epoch" => Some(*value),
            _ => None,
        });
        let pause = merged_hist(events, "serve.swap_pause_ns");
        print!(
            "  hot swaps                   {swaps} (epoch {:.0}, {} live + {} parked states migrated)",
            epoch.unwrap_or(0.0),
            counter_total(events, "serve.swap_live_migrated"),
            counter_total(events, "serve.swap_parked_migrated"),
        );
        if pause.count() > 0 {
            print!(
                "\n  swap pause                  mean = {}   max = {}",
                fmt_us((pause.mean() / 1e3) as u64),
                fmt_us((pause.max() / 1e3) as u64),
            );
        }
        println!();
    }
}

fn report_adapt(events: &[OwnedEvent]) {
    // Evidence windows: one sample per detector window — (mean
    // likelihood, mean entropy). A trigger shows as likelihood
    // collapsing while entropy saturates.
    let evidence: Vec<&Vec<f64>> = events
        .iter()
        .filter_map(|e| match e {
            OwnedEvent::Series { name, values, .. } if name == "adapt.evidence" => Some(values),
            _ => None,
        })
        .collect();
    let fleet: Vec<&Vec<f64>> = events
        .iter()
        .filter_map(|e| match e {
            OwnedEvent::Series { name, values, .. } if name == "adapt.fleet_evidence" => {
                Some(values)
            }
            _ => None,
        })
        .collect();
    let triggers = counter_total(events, "adapt.triggers");
    if evidence.is_empty() && fleet.is_empty() && triggers == 0 {
        return;
    }
    println!("\n== adaptation (novelty detection & maintenance) ==");
    if !evidence.is_empty() {
        let likelihood: Vec<f64> = evidence.iter().map(|v| v[0]).collect();
        let entropy: Vec<f64> = evidence
            .iter()
            .map(|v| v.get(1).copied().unwrap_or(0.0))
            .collect();
        println!(
            "  evidence windows            {} (one per detector window)",
            evidence.len()
        );
        println!(
            "  mean likelihood (Eq. 7)     {}",
            sparkline(&likelihood, 64)
        );
        println!("  mean entropy  (H/ln N)      {}", sparkline(&entropy, 64));
    }
    if !fleet.is_empty() {
        // Fleet-wide evidence ingested from the serving engine's kernel
        // accumulators: interval mean likelihood + fleet entropy.
        let likelihood: Vec<f64> = fleet.iter().map(|v| v[0]).collect();
        let entropy: Vec<f64> = fleet
            .iter()
            .map(|v| v.get(1).copied().unwrap_or(0.0))
            .collect();
        println!(
            "  fleet evidence intervals    {} (from serving kernel telemetry)",
            fleet.len()
        );
        println!(
            "  fleet mean likelihood       {}",
            sparkline(&likelihood, 64)
        );
        println!("  fleet mean entropy          {}", sparkline(&entropy, 64));
    }
    if triggers > 0 {
        println!(
            "  triggers / recoveries       {triggers} / {}",
            counter_total(events, "adapt.recoveries")
        );
        let novel = counter_total(events, "adapt.admissions_novel");
        let matched = counter_total(events, "adapt.admissions_matched");
        if novel + matched > 0 {
            println!("  admissions                  {novel} novel, {matched} recurrences");
        }
        let dumps = counter_total(events, "adapt.flight_dumps");
        let failed = counter_total(events, "adapt.flight_dump_failures");
        if dumps + failed > 0 {
            println!("  incident dumps              {dumps} written, {failed} failed");
        }
        let swaps = counter_total(events, "adapt.swaps");
        if swaps > 0 {
            let epoch: Option<f64> = events.iter().rev().find_map(|e| match e {
                OwnedEvent::Gauge { name, value, .. } if name == "adapt.swap_epoch" => Some(*value),
                _ => None,
            });
            println!(
                "  model swaps                 {swaps} (serving epoch now {:.0})",
                epoch.unwrap_or(0.0)
            );
        }
    }
}

/// Downsample `series` to at most `cols` buckets (bucket mean) and render
/// each as one of eight block glyphs, 0.0 → lowest, 1.0 → highest.
fn sparkline(series: &[f64], cols: usize) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let per = series.len().div_ceil(cols).max(1);
    series
        .chunks(per)
        .map(|chunk| {
            let mean = chunk.iter().sum::<f64>() / chunk.len() as f64;
            let level = (mean.clamp(0.0, 1.0) * 7.0).round() as usize;
            GLYPHS[level]
        })
        .collect()
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}
