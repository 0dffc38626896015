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
//! Exits non-zero on unreadable input, malformed trace lines, **or
//! events the `hom-obs` registry (`hom_obs::registry::EVENTS`) does not
//! hold under their kind**, so CI checks both the trace format and the
//! registry end to end: a name missing from the table, or emitted as
//! another kind than registered, fails the build instead of being
//! silently dropped from reports.

use std::collections::BTreeMap;

use high_order_models::obs::registry::{self, Kind};
use high_order_models::obs::{json, jsonl};
use high_order_models::obs::{OwnedEvent, Recorder, Sink};

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

    // Unregistered names, and names emitted as another kind than the
    // registry holds, fail the report: either is a typo at the
    // instrumentation point or a new event missing from the registry.
    let mut unknown: Vec<String> = events
        .iter()
        .filter_map(|e| {
            let kind = Kind::of(&e.as_event());
            match registry::spec(e.name()) {
                Some(spec) if spec.kind == kind => None,
                Some(spec) => Some(format!(
                    "{} ({kind:?}, registered as {:?})",
                    e.name(),
                    spec.kind
                )),
                None => Some(format!("{} ({kind:?})", e.name())),
            }
        })
        .collect();
    unknown.sort_unstable();
    unknown.dedup();
    if !unknown.is_empty() {
        eprintln!(
            "trace_report: {path} holds {} unregistered event(s): {}",
            unknown.len(),
            unknown.join(", ")
        );
        eprintln!("  (new instrumentation? register it in hom_obs::registry::EVENTS)");
        std::process::exit(1);
    }
    println!("trace: {path} ({} events)", events.len());

    // The per-name queries below read a Recorder replaying the trace.
    let rec = Recorder::new();
    for e in &events {
        rec.record(&e.as_event());
    }
    report_spans(&events);
    report_traces(&events, &nodes);
    report_counters(&events);
    report_gauges(&rec);
    report_pools(&rec);
    report_online(&rec);
    report_serving(&rec);
    report_adapt(&rec);
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

fn report_gauges(rec: &Recorder) {
    // Q trajectories: show first → last plus the cut value when present.
    for step in ["step1", "step2"] {
        let q = rec.gauges(&format!("{step}.q"));
        let cut = last_gauge(rec, &format!("{step}.cut_q"));
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

fn report_pools(rec: &Recorder) {
    let maps = rec.series("pool.worker_tasks");
    if maps.is_empty() {
        return;
    }
    let tasks: f64 = maps.iter().flat_map(|(_, v)| v).sum();
    let widest = maps.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    let busy_us: f64 = rec
        .series("pool.worker_busy_us")
        .iter()
        .flat_map(|(_, v)| v)
        .sum();
    println!("\n== worker pools ==");
    println!("  parallel maps               {}", maps.len());
    println!("  tasks executed              {tasks:.0}");
    println!("  widest distribution         {widest} worker(s)");
    println!("  total worker busy time      {}", fmt_us(busy_us as u64));
}

fn report_online(rec: &Recorder) {
    // Posterior timeline (Fig. 6): one sparkline per concept.
    let posterior = rec.series("online.posterior");
    if let Some((_, first)) = posterior.first() {
        let n_concepts = first.len();
        println!(
            "\n== concept posterior timeline ({} records, {} concepts) ==",
            posterior.len(),
            n_concepts
        );
        for c in 0..n_concepts {
            let series: Vec<f64> = posterior
                .iter()
                .map(|(_, p)| p.get(c).copied().unwrap_or(0.0))
                .collect();
            let mean = series.iter().sum::<f64>() / series.len() as f64;
            println!(
                "  concept {c}: {}  (mean P = {mean:.2})",
                sparkline(&series, 64)
            );
        }
    }

    // Prediction latency.
    let latency = rec.merged_hist("online.latency_ns");
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
    let predicted = rec.counter_total("online.records_predicted");
    if predicted > 0 {
        let pruned = rec.counter_total("online.pruned_records");
        let consulted = rec.counter_total("online.concepts_consulted");
        let skipped = rec.counter_total("online.prune");
        let observed = rec.counter_total("online.records_observed");
        let agree = rec.counter_total("online.label_agree");
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

/// The most recent `gauge` event named `name`, if any.
fn last_gauge(rec: &Recorder, name: &str) -> Option<f64> {
    rec.gauges(name).last().copied()
}

/// The most recent `series` sample named `name`, if any.
fn last_series(rec: &Recorder, name: &str) -> Option<Vec<f64>> {
    rec.series(name).pop().map(|(_, values)| values)
}

fn report_serving(rec: &Recorder) {
    let predicted = rec.counter_total("serve.records_predicted");
    let observed = rec.counter_total("serve.records_observed");
    if predicted + observed == 0 {
        return;
    }
    println!("\n== serving engine ==");
    println!(
        "  records served              {} predicted, {observed} observed in {} batches",
        predicted,
        rec.counter_total("serve.batches"),
    );
    println!(
        "  evictions / unparks         {} / {}",
        rec.counter_total("serve.evictions"),
        rec.counter_total("serve.unparks"),
    );
    let latency = rec.merged_hist("serve.batch_latency_ns");
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
        let stage = rec.merged_hist(name);
        if stage.count() > 0 {
            println!(
                "  {label:<27} n = {}   mean = {:.0}   p99 <= {:.0}",
                stage.count(),
                stage.mean(),
                stage.quantile(0.99),
            );
        }
    }
    let shape = rec.merged_hist("serve.batch_requests");
    let distinct = rec.merged_hist("serve.batch_distinct");
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
    if let Some(ratio) = last_gauge(rec, "serve.dedup_ratio") {
        println!("  dedup ratio                 {ratio:.2} interned per distinct record");
    }

    // Fleet-wide early termination (sec. III-C on the serving path).
    let pruned = rec.counter_total("serve.pruned_records");
    let consulted = rec.counter_total("serve.concepts_consulted");
    if predicted > 0 && consulted > 0 {
        println!(
            "  early termination           {pruned} pruned ({:.1}%), {:.2} concepts per record",
            100.0 * pruned as f64 / predicted as f64,
            consulted as f64 / predicted as f64,
        );
    }

    // Live concept analytics: the last flushed per-concept series are
    // the fleet's current posterior mass and MAP share.
    if let Some(mass) = last_series(rec, "serve.concept_posterior_mass") {
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
    if let Some(map) = last_series(rec, "serve.concept_map_streams") {
        let peak = map.iter().cloned().fold(0.0f64, f64::max);
        let normalized: Vec<f64> = map.iter().map(|&v| v / peak.max(1.0)).collect();
        println!(
            "  MAP streams per concept     {}  (max {:.0})",
            sparkline(&normalized, 32),
            peak,
        );
    }
    let lik = last_gauge(rec, "serve.fleet_mean_likelihood");
    let ent = last_gauge(rec, "serve.fleet_mean_entropy");
    if lik.is_some() || ent.is_some() {
        println!(
            "  fleet evidence              mean likelihood {:.3}, mean entropy {:.3}",
            lik.unwrap_or(1.0),
            ent.unwrap_or(0.0),
        );
    }
    let exemplars = rec.counter_total("serve.slo_exemplars");
    if exemplars > 0 {
        println!("  SLO exemplars captured      {exemplars} slow batches sampled");
    }

    // Shard occupancy: the last flushed per-shard series is the final
    // state of the stream table; render live streams per shard.
    for (name, label) in [
        ("serve.shard_live", "live streams per shard"),
        ("serve.shard_parked", "parked streams per shard"),
    ] {
        let Some(values) = last_series(rec, name) else {
            continue;
        };
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
    let swaps = rec.counter_total("serve.swaps");
    if swaps > 0 {
        let pause = rec.merged_hist("serve.swap_pause_ns");
        print!(
            "  hot swaps                   {swaps} (epoch {:.0}, {} live + {} parked states migrated)",
            last_gauge(rec, "serve.model_epoch").unwrap_or(0.0),
            rec.counter_total("serve.swap_live_migrated"),
            rec.counter_total("serve.swap_parked_migrated"),
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

fn report_adapt(rec: &Recorder) {
    // Evidence windows: one sample per detector window — (mean
    // likelihood, mean entropy). A trigger shows as likelihood
    // collapsing while entropy saturates.
    let evidence = rec.series("adapt.evidence");
    let fleet = rec.series("adapt.fleet_evidence");
    let triggers = rec.counter_total("adapt.triggers");
    if evidence.is_empty() && fleet.is_empty() && triggers == 0 {
        return;
    }
    println!("\n== adaptation (novelty detection & maintenance) ==");
    // Each sample is (mean likelihood, mean entropy).
    let split = |samples: &[(u64, Vec<f64>)]| -> (Vec<f64>, Vec<f64>) {
        samples
            .iter()
            .map(|(_, v)| (v[0], v.get(1).copied().unwrap_or(0.0)))
            .unzip()
    };
    if !evidence.is_empty() {
        let (likelihood, entropy) = split(&evidence);
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
        let (likelihood, entropy) = split(&fleet);
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
            rec.counter_total("adapt.recoveries")
        );
        let novel = rec.counter_total("adapt.admissions_novel");
        let matched = rec.counter_total("adapt.admissions_matched");
        if novel + matched > 0 {
            println!("  admissions                  {novel} novel, {matched} recurrences");
        }
        let dumps = rec.counter_total("adapt.flight_dumps");
        let failed = rec.counter_total("adapt.flight_dump_failures");
        if dumps + failed > 0 {
            println!("  incident dumps              {dumps} written, {failed} failed");
        }
        let swaps = rec.counter_total("adapt.swaps");
        if swaps > 0 {
            println!(
                "  model swaps                 {swaps} (serving epoch now {:.0})",
                last_gauge(rec, "adapt.swap_epoch").unwrap_or(0.0)
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
