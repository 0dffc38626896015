//! Figure 4 — Impact of the Scale of the Historical Datasets.
//!
//! Sweeps the historical dataset size for Stagger and Hyperplane and
//! reports the high-order model's error rate, build time and test time.
//! Paper shape: error drops with more history (quickly saturating for
//! Stagger, gradually for Hyperplane), build time grows near-linearly,
//! and the effect on test time decays quickly.

use hom_bench::fig4_fractions;
use hom_eval::algo::AlgoKind;
use hom_eval::report::{maybe_dump_json, print_series};
use hom_eval::runner::run_workload_averaged;
use hom_eval::workloads::{Workload, WorkloadKind};
use hom_eval::EvalConfig;

fn main() {
    let config = EvalConfig::from_env();
    println!("{}", config.banner());

    for kind in [WorkloadKind::Stagger, WorkloadKind::Hyperplane] {
        let base = Workload::paper(kind, config.scale);
        let mut sizes = Vec::new();
        let (mut err, mut build, mut test) = (Vec::new(), Vec::new(), Vec::new());
        for &f in &fig4_fractions() {
            let n = ((base.historical_size as f64 * f) as usize).max(200);
            let workload = base.clone().with_historical(n);
            let results =
                run_workload_averaged(&workload, &[AlgoKind::HighOrder], config.seed, config.runs);
            let r = &results[0];
            sizes.push(n as f64);
            err.push(r.error_rate);
            build.push(r.build_time.as_secs_f64());
            test.push(r.test_time.as_secs_f64());
            eprintln!("  done: {} historical={n}", kind.name());
        }

        print_series(
            &format!("Fig 4 ({}, high-order vs historical scale)", kind.name()),
            "historical_records",
            &sizes,
            &[
                ("error_rate", &err[..]),
                ("build_time_s", &build[..]),
                ("test_time_s", &test[..]),
            ],
        );
        maybe_dump_json(&format!("fig4_{}", kind.name().to_lowercase()), |w| {
            w.array(|w| {
                for column in [&sizes, &err, &build, &test] {
                    w.f64s(column);
                }
            });
        });
    }
    println!(
        "(paper shape: error falls with historical size — fast saturation \
         on Stagger, gradual on Hyperplane; build time near-linear in \
         historical size; test time roughly flat)"
    );
}
