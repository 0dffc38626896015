//! Table II — Comparison in Error Rates.
//!
//! High-order vs RePro vs WCE on the three benchmark streams. The paper's
//! headline result: the high-order model's error is a small fraction
//! (about one tenth to one fifth) of the best competitor's on every
//! stream.

use hom_bench::paper_workloads;
use hom_eval::algo::AlgoKind;
use hom_eval::report::{fmt_err, maybe_dump_json, print_table};
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
            row.push(fmt_err(r.error_rate));
            dump.push((workload.kind.name(), r.algo, r.error_rate));
        }
        rows.push(row);
        eprintln!("  done: {}", workload.kind.name());
    }

    print_table(
        "Table II: Comparison in Error Rates",
        &["Data Stream", "High-order", "RePro", "WCE"],
        &rows,
    );
    println!(
        "(paper at full scale: Stagger 0.0020/0.0275/0.0584, \
         Hyperplane 0.0255/0.1882/0.1141, Intrusion 0.0001/0.0011/0.0015)"
    );
    maybe_dump_json("table2_error_rates", |w| {
        w.array(|w| {
            for (workload, algo, value) in &dump {
                w.array(|w| {
                    w.str(workload).str(algo).f64(*value);
                });
            }
        });
    });
}
