//! End-to-end benchmark of the serving system: three workloads over the
//! in-process engine, the durable store and the router → worker path.
//! `README.md` beside this package explains the design.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is made before set-up starts (see [`inputs`]). Set-up (mine
//! the model, start the system, warm every stream) runs three times and
//! the median is reported. The timed phase then drives the last system
//! for `--seconds`; afterwards a single reference engine replays every
//! request, and any difference in a prediction or a final posterior bit
//! fails the run (exit code 1). `--trace 0` reports the end-to-end
//! metrics; `--trace 1` reports the per-layer breakdown of a traced
//! half-phase beside an untraced one, and fails the run when the layers
//! do not reconcile with the traced wall time. The last line of standard
//! output is one JSON object; the line before it records run conditions.

mod check;
mod drive;
mod inputs;
mod layers;
mod procfs;
mod stats;
mod system;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use drive::{closed_loop, Phase};
use hom_core::HighOrderModel;
use hom_store::StoreStatus;
use inputs::{Inputs, BATCH};
use system::{mine, System, Workload, ENGINE_THREADS, SHARDS, WORKERS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Where a run keeps its files (the store directory), relative to the
/// working directory.
const TMP_DIR: &str = ".bench_tmp";

const USAGE: &str = "usage: e2ebench --workload <engine_hot|engine_churn|cluster_bulk> \
     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad())?;
                    seconds = Some(s).filter(|s| *s > 0.0 && *s <= 60.0);
                    seconds.ok_or_else(bad)?;
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Run the program at its defaults: no `HOM_*` knob from the caller's
/// environment reaches it.
fn clear_hom_env() {
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("HOM_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
}

/// One set-up's parts, seconds.
#[derive(Clone, Copy)]
struct Setup {
    mine: f64,
    fleet: f64,
    warm: f64,
}

impl Setup {
    fn total(&self) -> f64 {
        self.mine + self.fleet + self.warm
    }
}

fn warm(system: &System, inputs: &Inputs) -> Result<(), String> {
    let mut batch = Vec::new();
    for k in 0..inputs.warm_batches() {
        inputs.fill_warm(k, &mut batch);
        let replies = system.submit(&batch)?;
        if replies.len() != batch.len() {
            return Err(format!("warm batch {k}: short reply"));
        }
    }
    Ok(())
}

/// The result line's metrics, in order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number; a non-finite value (which [`run`] rejects for
/// metrics) prints as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn percentile_us(samples: &[f64], p: f64, what: &str) -> Result<f64, String> {
    stats::percentile(samples, p).map(us).ok_or(format!(
        "{what}: {} samples are too few for p{}",
        samples.len(),
        p * 100.0
    ))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    clear_hom_env();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = procfs::pin_to_one_cpu();
    if cpu.is_none() {
        eprintln!("e2ebench: could not pin to one CPU; running unpinned");
    }
    let tmp =
        PathBuf::from(TMP_DIR).join(format!("{}-{}", args.workload.name(), std::process::id()));
    let outcome = run(&args, &tmp, nproc, cpu);
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(TMP_DIR);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Run the benchmark; `Ok(false)` when a correctness or reconciliation
/// check failed (the result line is printed with `"correct": false`).
/// Store directories go under `tmp`, which the caller removes.
fn run(args: &Args, tmp: &Path, nproc: usize, pinned: Option<usize>) -> Result<bool, String> {
    let w = args.workload;
    let inputs = Inputs::new(args.seed, w.streams());

    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..SETUPS {
        // Tear the previous system down first, so set-ups never overlap.
        drop(kept.take());
        let t = Instant::now();
        let model = Arc::new(mine(&inputs.training));
        let mined = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let system = System::start(w, Arc::clone(&model), &tmp.join(rep.to_string()))
            .map_err(|e| format!("starting {}: {e}", w.name()))?;
        let fleet = t.elapsed().as_secs_f64();
        let t = Instant::now();
        warm(&system, &inputs)?;
        setups.push(Setup {
            mine: mined,
            fleet,
            warm: t.elapsed().as_secs_f64(),
        });
        kept = Some((model, system));
    }
    let (model, system) = kept.expect("at least one set-up");

    // Trace mode: the traced half first (the replay engines then only
    // need the warm pass behind them), the untraced half after it.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (store_before, io_before) = (system.store_status(), system.store_io_ns());
    let first = closed_loop(&system, &inputs, 0, seconds);
    let store_after = (system.store_status(), system.store_io_ns() - io_before);
    let second = args
        .trace
        .then(|| closed_loop(&system, &inputs, first.outcomes.len(), seconds));
    let peak_rss_mb = procfs::peak_rss_mb();

    let mut outcomes = first.outcomes.clone();
    if let Some(second) = &second {
        outcomes.extend_from_slice(&second.outcomes);
    }
    let verdict = check::verify(&system, Arc::clone(&model), &inputs, &outcomes);
    let mut problems = verdict.mismatches;

    let attempted = (outcomes.len() * BATCH) as u64;
    let failed = (outcomes.iter().filter(|o| o.failed).count() * BATCH) as u64;
    let timed = second.as_ref().unwrap_or(&first);
    let calm = timed.calm();
    if calm.preds == 0.0 {
        return Err("no batch completed in the calm windows".to_string());
    }
    let preds_per_s = calm.preds / calm.seconds;

    let mut metrics = Metrics::default();
    if args.trace {
        let traced = Traced {
            w,
            system: &system,
            model: &model,
            inputs: &inputs,
            phase: &first,
            store: [store_before, store_after.0],
            store_io_ns: store_after.1,
            setups: &setups,
            untraced_preds_per_s: preds_per_s,
            pinned,
        };
        per_layer(&traced, &mut metrics, &mut problems)?;
    } else {
        let setup_s = stats::median(&setups.iter().map(Setup::total).collect::<Vec<_>>());
        metrics.put("setup_s", setup_s, "s");
        metrics.put("preds_per_s", preds_per_s, "1/s");
        let latencies = &calm.latencies_ns;
        metrics.put(
            "latency_p50_us",
            percentile_us(latencies, 0.5, "latency")?,
            "us",
        );
        metrics.put(
            "latency_p95_us",
            percentile_us(latencies, 0.95, "latency")?,
            "us",
        );
        metrics.put(
            "cpu_us_per_pred",
            calm.cpu.total_s() * 1e6 / calm.preds,
            "us",
        );
        metrics.put("peak_rss_mb", peak_rss_mb, "MB");
        let graded = (check::QUALITY_BATCHES * BATCH) as f64;
        metrics.put(
            "mispredict_rate",
            verdict.mispredicts as f64 / graded,
            "ratio",
        );
    }

    for (name, value, _) in &metrics.0 {
        if !value.is_finite() {
            problems.push(format!("{name} is not a number: {value}"));
        }
    }
    let correct = problems.is_empty() && failed == 0;
    for p in &problems {
        eprintln!("e2ebench: {}: {p}", w.name());
    }
    let whole = timed.cpu();
    println!(
        "conditions {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"pinned_cpu\": {}, \"steal_share\": {}, \"calm_steal_share\": {}, \
         \"calm_windows\": \"{}/{}\", \"window_steal\": [{}], \"user_s\": {}, \"sys_s\": {}, \
         \"wall_s\": {}, \"latency_samples\": {}, \"error_rate\": {}, \"setups_s\": [{}], \
         \"config\": {{\"engine_threads\": {ENGINE_THREADS}, \"shards\": {SHARDS}, \
         \"capacity\": {}, \"store\": {}, \"workers\": {}, \"batch\": {BATCH}, \
         \"streams\": {}, \"router_trace_sample\": 1}}}}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pinned.map_or("null".to_string(), |c| c.to_string()),
        num(timed.steal_share()),
        num(calm.steal_share),
        calm.kept,
        calm.ranked,
        timed
            .window_steal()
            .iter()
            .map(|&s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(", "),
        num(whole.user_s),
        num(whole.sys_s),
        num(timed.wall_s()),
        calm.latencies_ns.len(),
        num(failed as f64 / attempted as f64),
        setups
            .iter()
            .map(|s| num(s.total()))
            .collect::<Vec<_>>()
            .join(", "),
        w.capacity().map_or("null".to_string(), |c| c.to_string()),
        w.capacity().is_some(),
        if w.clustered() { WORKERS } else { 0 },
        w.streams(),
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
    Ok(correct)
}

/// What the per-layer breakdown reads.
struct Traced<'a> {
    w: Workload,
    system: &'a System,
    model: &'a Arc<HighOrderModel>,
    inputs: &'a Inputs,
    /// The traced phase.
    phase: &'a Phase,
    /// Store status before and after the phase (`None` without a store).
    store: [Option<StoreStatus>; 2],
    /// Nanoseconds of store I/O in the phase.
    store_io_ns: u64,
    setups: &'a [Setup],
    untraced_preds_per_s: f64,
    /// The CPU the process is pinned to, if any.
    pinned: Option<usize>,
}

/// The per-layer metrics of the traced phase. Every workload reports the
/// same list; a layer a workload does not use reads 0. A breakdown that
/// does not reconcile with the traced wall time is added to `problems`.
fn per_layer(
    ctx: &Traced,
    metrics: &mut Metrics,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let (w, phase) = (ctx.w, ctx.phase);
    let n = (phase.outcomes.iter().filter(|o| !o.failed).count() * BATCH).max(1) as f64;
    let med = |f: fn(&Setup) -> f64| stats::median(&ctx.setups.iter().map(f).collect::<Vec<_>>());
    metrics.put("setup.mine_s", med(|s| s.mine), "s");
    metrics.put("setup.fleet_s", med(|s| s.fleet), "s");
    metrics.put("setup.warm_s", med(|s| s.warm), "s");

    // The client's own time plus the submit calls must account for the
    // whole phase.
    let walls: f64 = phase.outcomes.iter().map(|o| o.service_ns as f64).sum();
    let wall = phase.wall_s() * 1e9;
    let client = phase.client_s * 1e9;
    match layers::reconcile(
        "client loop",
        wall,
        &[("submit", walls), ("client", client)],
    ) {
        Ok(rest) if rest > layers::TOLERANCE * wall => problems.push(format!(
            "client loop: {:.1}% of the phase is in neither submit nor the client",
            100.0 * rest / wall
        )),
        Ok(_) => {}
        Err(e) => problems.push(e),
    }

    let store_io = ctx.store_io_ns as f64;
    let (serve_ns, serve_calls, transport_us, exchanges, route_ns);
    let mut wire = [0.0; 6];
    if w.clustered() {
        let spans = layers::cluster_spans(ctx.system, ctx.model, ctx.inputs, phase)?;
        let serial = ctx.pinned.is_some();
        let transport = layers::reconcile(
            "Router::submit",
            spans.wall_ns,
            &spans.critical_path(serial),
        )
        .unwrap_or_else(|e| {
            problems.push(e);
            0.0
        });
        let batches = spans.batches.max(1) as f64;
        serve_ns = spans.engine_ns;
        serve_calls = spans.engine_calls as f64;
        transport_us = us(transport) / batches;
        exchanges = spans.exchanges as f64 / batches;
        route_ns = spans.route_ns;
        wire = [
            spans.encode_req_ns,
            spans.decode_req_ns,
            spans.encode_resp_ns,
            spans.decode_resp_ns,
            spans.req_bytes as f64,
            spans.resp_bytes as f64,
        ];
    } else {
        // Store I/O runs inside ServeEngine::submit.
        if let Err(e) = layers::reconcile("ServeEngine::submit", walls, &[("store_io", store_io)]) {
            problems.push(e);
        }
        serve_ns = walls;
        serve_calls = phase.outcomes.len() as f64;
        (transport_us, exchanges, route_ns) = (0.0, 0.0, 0.0);
    }
    let engines = ctx.system.engines();
    metrics.put("serve.ns_per_pred", serve_ns / n, "ns");
    metrics.put("serve.submit_us", us(serve_ns) / serve_calls.max(1.0), "us");
    let live: usize = engines.iter().map(|e| e.live_streams()).sum();
    let parked: usize = engines.iter().map(|e| e.parked_streams()).sum();
    metrics.put("serve.live_streams", live as f64, "count");
    metrics.put("serve.parked_streams", parked as f64, "count");
    let per_kpred = |f: fn(&StoreStatus) -> u64| match &ctx.store {
        [Some(a), Some(b)] => (f(b) as f64 - f(a) as f64) * 1e3 / n,
        _ => 0.0,
    };
    metrics.put("store.commits", per_kpred(|s| s.commits), "count/kpred");
    metrics.put(
        "store.commit_records",
        per_kpred(|s| s.commit_records),
        "count/kpred",
    );
    metrics.put(
        "store.disk_unparks",
        per_kpred(|s| s.disk_unparks),
        "count/kpred",
    );
    metrics.put("store.seals", per_kpred(|s| s.seals), "count/kpred");
    metrics.put(
        "store.compactions",
        per_kpred(|s| s.compactions),
        "count/kpred",
    );
    metrics.put("store.dead_bytes", per_kpred(|s| s.dead_bytes), "B/kpred");
    metrics.put("store.io_ns_per_pred", store_io / n, "ns");
    metrics.put("wire.encode_req_ns_per_pred", wire[0] / n, "ns");
    metrics.put("wire.decode_req_ns_per_pred", wire[1] / n, "ns");
    metrics.put("wire.encode_resp_ns_per_pred", wire[2] / n, "ns");
    metrics.put("wire.decode_resp_ns_per_pred", wire[3] / n, "ns");
    metrics.put("wire.req_bytes_per_pred", wire[4] / n, "B");
    metrics.put("wire.resp_bytes_per_pred", wire[5] / n, "B");
    metrics.put("route.ns_per_pred", route_ns / n, "ns");
    metrics.put("transport.us_per_batch", transport_us, "us");
    metrics.put("transport.exchanges_per_batch", exchanges, "count");
    let cpu = phase.cpu();
    metrics.put(
        "proc.sys_share",
        cpu.sys_s / cpu.total_s().max(1e-9),
        "ratio",
    );
    let calm = phase.calm();
    metrics.put(
        "trace.overhead",
        calm.preds / calm.seconds / ctx.untraced_preds_per_s,
        "ratio",
    );
    Ok(())
}
