//! Table III — Comparison in Test Times.
//!
//! Test time = classification + additional online training over the test
//! stream. The paper's observation: the high-order model is competitive
//! everywhere (it never trains online), RePro's online relearning makes
//! it the slowest on the complicated streams, WCE stays cheap because its
//! per-chunk models are tiny.

use hom_bench::paper_workloads;
use hom_eval::algo::AlgoKind;
use hom_eval::report::{fmt_duration, maybe_dump_json, print_table};
use hom_eval::runner::run_workload_averaged;
use hom_eval::EvalConfig;

fn main() {
    let config = EvalConfig::from_env();
    println!("{}", config.banner());

    let mut rows = Vec::new();
    let mut dump = Vec::new();
    for workload in paper_workloads(&config) {
        let results = run_workload_averaged(&workload, &AlgoKind::PAPER, config.seed, config.runs);
        let mut row = vec![workload.kind.name().to_string()];
        for r in &results {
            row.push(fmt_duration(r.test_time));
            dump.push((workload.kind.name(), r.algo, r.test_time.as_secs_f64()));
        }
        rows.push(row);
        eprintln!("  done: {}", workload.kind.name());
    }

    print_table(
        "Table III: Comparison in Test Times (sec)",
        &["Data Stream", "High-order", "RePro", "WCE"],
        &rows,
    );
    println!(
        "(paper on 2×P4 2.8GHz, full scale: Stagger 2.1/3.1/6.3, \
         Hyperplane 3.3/24.2/10.0, Intrusion 54.2/182.8/16.1 — absolute \
         values differ on modern hardware and at HOM_SCALE; the ordering \
         is the reproduced shape)"
    );
    maybe_dump_json("table3_test_times", |w| {
        w.array(|w| {
            for (workload, algo, value) in &dump {
                w.array(|w| {
                    w.str(workload).str(algo).f64(*value);
                });
            }
        });
    });
}
