//! Figure 3 — Impact of Changing Rate.
//!
//! Sweeps the inverse changing rate 1/λ (the average concept run length)
//! over 200…2200 for Stagger and Hyperplane and reports, for each of the
//! three algorithms, the error rate and the test time. Paper shape:
//! RePro's and WCE's error climbs steeply as changes get frequent while
//! the high-order model stays flat; RePro's test time explodes with the
//! change rate, WCE's *falls* (instance-based pruning), and the
//! high-order model's is rate-independent.

use hom_bench::fig3_inverse_rates;
use hom_eval::algo::AlgoKind;
use hom_eval::report::{maybe_dump_json, print_series};
use hom_eval::runner::run_workload_averaged;
use hom_eval::workloads::{Workload, WorkloadKind};
use hom_eval::EvalConfig;

fn main() {
    let config = EvalConfig::from_env();
    println!("{}", config.banner());

    let inv_rates = fig3_inverse_rates();
    for kind in [WorkloadKind::Stagger, WorkloadKind::Hyperplane] {
        let mut err: Vec<Vec<f64>> = vec![Vec::new(); AlgoKind::PAPER.len()];
        let mut time: Vec<Vec<f64>> = vec![Vec::new(); AlgoKind::PAPER.len()];
        for &inv in &inv_rates {
            let workload = Workload::paper(kind, config.scale).with_lambda(1.0 / inv);
            let results =
                run_workload_averaged(&workload, &AlgoKind::PAPER, config.seed, config.runs);
            for (i, r) in results.iter().enumerate() {
                err[i].push(r.error_rate);
                time[i].push(r.test_time.as_secs_f64());
            }
            eprintln!("  done: {} 1/rate={inv}", kind.name());
        }

        let err_cols: Vec<(&str, &[f64])> = AlgoKind::PAPER
            .iter()
            .zip(&err)
            .map(|(k, v)| (k.name(), v.as_slice()))
            .collect();
        print_series(
            &format!("Fig 3 ({}, error rate vs 1/changing-rate)", kind.name()),
            "inv_rate",
            &inv_rates,
            &err_cols,
        );
        let time_cols: Vec<(&str, &[f64])> = AlgoKind::PAPER
            .iter()
            .zip(&time)
            .map(|(k, v)| (k.name(), v.as_slice()))
            .collect();
        print_series(
            &format!("Fig 3 ({}, test time vs 1/changing-rate)", kind.name()),
            "inv_rate",
            &inv_rates,
            &time_cols,
        );
        maybe_dump_json(&format!("fig3_{}", kind.name().to_lowercase()), |w| {
            w.array(|w| {
                w.f64s(&inv_rates);
                for rows in [&err, &time] {
                    w.array(|w| {
                        for row in rows {
                            w.f64s(row);
                        }
                    });
                }
            });
        });
    }
    println!(
        "(paper shape: frequent changes (small 1/rate) hurt RePro and WCE \
         sharply, high-order stays flat; RePro time grows with change \
         frequency, WCE time shrinks, high-order time is flat)"
    );
}
