//! Table IV — Building Phase in High-order Model.
//!
//! Build time of the offline concept-mining phase and the number of
//! concepts it discovers (paper: 3 for Stagger, 4 for Hyperplane, 11 ± 2
//! for the intrusion stream).

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
        let results =
            run_workload_averaged(&workload, &[AlgoKind::HighOrder], config.seed, config.runs);
        let r = &results[0];
        let concepts = match (r.n_concepts, r.concepts_min_max) {
            (Some(avg), Some((lo, hi))) if lo != hi => {
                format!("{avg:.1} (range {lo}–{hi})")
            }
            (Some(avg), _) => format!("{avg:.0}"),
            _ => "-".into(),
        };
        dump.push((
            workload.kind.name(),
            r.build_time.as_secs_f64(),
            r.n_concepts,
        ));
        rows.push(vec![
            workload.kind.name().to_string(),
            fmt_duration(r.build_time),
            concepts,
        ]);
        eprintln!("  done: {}", workload.kind.name());
    }

    print_table(
        "Table IV: Building Phase in High-order Model",
        &["Data Stream", "Build Time (sec)", "# of Concepts"],
        &rows,
    );
    println!(
        "(paper at full scale: Stagger 13.0s / 3 concepts, \
         Hyperplane 52.7s / 4, Intrusion 714.1s / 11±2)"
    );
    maybe_dump_json("table4_build_phase", |w| {
        w.array(|w| {
            for (workload, build_s, concepts) in &dump {
                w.array(|w| {
                    w.str(workload).f64(*build_s);
                    match concepts {
                        Some(n) => w.f64(*n),
                        None => w.null(),
                    };
                });
            }
        });
    });
}
