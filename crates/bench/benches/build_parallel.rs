//! Parallel offline build — serial vs. threaded wall-clock time.
//!
//! Builds the high-order model over a 100k-record Stagger stream with 1,
//! 2 and all-core worker pools and reports build time per thread count.
//! The models must come out identical (the determinism contract of
//! `hom_parallel`); the bench asserts the cheap observable parts of that
//! and reports the speedup honestly, including the machine's core count —
//! on a single-core machine the expected "speedup" is ~1.0× minus a small
//! scheduling overhead.
//!
//! Each build runs with an in-memory [`hom_obs::Recorder`] attached, so
//! the per-stage wall times (block fits, candidate fits, distance matrix,
//! merge loops, retraining) come from the pipeline's own spans rather
//! than external stopwatches.
//!
//! With `HOM_JSON_DIR` set, a `BENCH_build_parallel.json` snapshot is
//! written there (the checked-in snapshot at the repository root was
//! produced this way).

use std::sync::Arc;
use std::time::{Duration, Instant};

use hom_classifiers::DecisionTreeLearner;
use hom_cluster::ClusterParams;
use hom_core::{build_with, BuildOptions, BuildParams, BuildReport, HighOrderModel};
use hom_data::stream::collect;
use hom_data::Dataset;
use hom_datagen::{StaggerParams, StaggerSource};
use hom_eval::report::{fmt_duration, print_table};
use hom_eval::EvalConfig;
use hom_obs::{Obs, Recorder};

const HISTORICAL: usize = 100_000;
const BLOCK_SIZE: usize = 100;

/// The stages whose span durations the snapshot reports, in pipeline
/// order. Keys are the span names the build emits.
const STAGES: &[&str] = &[
    "step1.block_fits",
    "step1.seed_candidates",
    "step1.merge_loop",
    "step2.pred_cache",
    "step2.distance_matrix",
    "step2.merge_loop",
    "build.retrain",
];

struct Run {
    threads: usize,
    build_secs: f64,
    n_concepts: usize,
    n_chunks: usize,
    /// `(span name, total seconds)` per stage, pipeline order.
    spans: Vec<(&'static str, f64)>,
}

fn timed_build(data: &Dataset, seed: u64, threads: usize) -> (HighOrderModel, BuildReport, Run) {
    let recorder = Arc::new(Recorder::new());
    let start = Instant::now();
    let (model, report) = build_with(
        data,
        &DecisionTreeLearner::new(),
        &BuildParams {
            cluster: ClusterParams {
                block_size: BLOCK_SIZE,
                seed,
                ..Default::default()
            },
            ..Default::default()
        },
        &BuildOptions {
            threads: Some(threads),
            sink: Obs::new(Arc::clone(&recorder)),
        },
    );
    let elapsed = start.elapsed();
    let spans = STAGES
        .iter()
        .map(|&name| {
            let total_us: u64 = recorder.spans(name).iter().map(|&(_, dur)| dur).sum();
            (name, total_us as f64 / 1e6)
        })
        .collect();
    let run = Run {
        threads,
        build_secs: elapsed.as_secs_f64(),
        n_concepts: report.n_concepts,
        n_chunks: report.n_chunks,
        spans,
    };
    (model, report, run)
}

/// One JSON object per run, with a nested `"spans"` stage breakdown, laid
/// out by hand.
fn snapshot_json(cores: usize, runs: &[Run]) -> String {
    let rows_json: Vec<String> = runs
        .iter()
        .map(|run| {
            let spans: Vec<String> = run
                .spans
                .iter()
                .map(|(name, secs)| format!("\"{name}\": {secs:.3}"))
                .collect();
            format!(
                "    {{ \"threads\": {}, \"build_secs\": {:.3}, \
                 \"n_concepts\": {}, \"n_chunks\": {},\n      \"spans\": {{ {} }} }}",
                run.threads,
                run.build_secs,
                run.n_concepts,
                run.n_chunks,
                spans.join(", ")
            )
        })
        .collect();
    format!(
        "{{\n  \"stream\": \"Stagger\",\n  \"historical_records\": {HISTORICAL},\n  \
         \"block_size\": {BLOCK_SIZE},\n  \"machine_cores\": {cores},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows_json.join(",\n")
    )
}

fn main() {
    let config = EvalConfig::from_env();
    println!("{}", config.banner());

    let mut src = StaggerSource::new(StaggerParams {
        lambda: 0.002,
        ..Default::default()
    });
    let (data, _) = collect(&mut src, HISTORICAL);
    eprintln!("  generated {HISTORICAL} Stagger records");

    let cores = hom_parallel::available_threads();
    let mut counts = vec![1usize, 2, cores];
    counts.sort_unstable();
    counts.dedup();

    let mut runs: Vec<Run> = Vec::new();
    let mut table = Vec::new();
    let mut reference: Option<(usize, Vec<(usize, usize)>)> = None;
    let mut serial_secs = 0.0;
    for &threads in &counts {
        let (model, report, run) = timed_build(&data, config.seed, threads);
        // Thread count must never change the model: spot-check the parts
        // that are cheap to compare (the determinism integration test does
        // the exhaustive comparison).
        let shape = (model.n_concepts(), report.occurrences.clone());
        match &reference {
            None => {
                serial_secs = run.build_secs;
                reference = Some(shape);
            }
            Some(r) => assert!(
                *r == shape,
                "threads={threads} changed the model — determinism violated"
            ),
        }
        // The dominant stage, from the build's own spans.
        let (hot_name, hot_secs) = run
            .spans
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("stage list is non-empty");
        table.push(vec![
            threads.to_string(),
            fmt_duration(Duration::from_secs_f64(run.build_secs)),
            format!("{:.2}x", serial_secs / run.build_secs),
            report.n_concepts.to_string(),
            format!("{hot_name} ({hot_secs:.2}s)"),
        ]);
        runs.push(run);
        eprintln!("  done: threads={threads}");
    }

    print_table(
        &format!("Parallel build: {HISTORICAL} Stagger records, {cores}-core machine"),
        &[
            "Threads",
            "Build Time (sec)",
            "Speedup",
            "# of Concepts",
            "Hottest Stage",
        ],
        &table,
    );
    println!("(speedup is relative to threads=1; models are identical by construction)");
    if let Ok(dir) = std::env::var("HOM_JSON_DIR") {
        let path = std::path::Path::new(&dir).join("BENCH_build_parallel.json");
        let _ = std::fs::create_dir_all(&dir);
        let _ = std::fs::write(path, snapshot_json(cores, &runs));
    }
}
