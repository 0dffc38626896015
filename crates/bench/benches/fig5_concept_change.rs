//! Figure 5 — Error Rates during Concept Change.
//!
//! Per-timestamp error aligned on concept changes, averaged over many
//! switches, for all three algorithms on Stagger (abrupt shift) and
//! Hyperplane (gradual 100-step drift). Paper shape: the high-order model
//! recovers within a handful of records after a shift (and tracks the
//! drift with only a mid-drift bump), while RePro waits for its trigger
//! window and WCE for its next chunk.

use hom_data::StreamSource;
use hom_datagen::{HyperplaneParams, HyperplaneSource, StaggerParams, StaggerSource};
use hom_eval::algo::{build_algo, AlgoKind};
use hom_eval::curves::{error_curve, CurveSpec};
use hom_eval::report::{maybe_dump_json, print_series};
use hom_eval::runner::{config_for, default_learner};
use hom_eval::workloads::{Workload, WorkloadKind};
use hom_eval::EvalConfig;

/// Segment length between scripted switches; matches the paper's plots
/// (changes at timestamp ≈1000).
const PERIOD: usize = 1000;

fn scripted_source(kind: WorkloadKind, seed: u64) -> Box<dyn StreamSource> {
    match kind {
        WorkloadKind::Stagger => Box::new(StaggerSource::new(StaggerParams {
            period: Some(PERIOD),
            seed,
            ..Default::default()
        })),
        WorkloadKind::Hyperplane => Box::new(HyperplaneSource::new(HyperplaneParams {
            period: Some(PERIOD),
            seed,
            ..Default::default()
        })),
        WorkloadKind::Intrusion => unreachable!("Fig. 5 covers Stagger and Hyperplane"),
    }
}

fn main() {
    let config = EvalConfig::from_env();
    println!("{}", config.banner());

    let spec = CurveSpec {
        pre: 50,
        post: 200,
        period: PERIOD,
        // More runs ⇒ more aligned switches averaged (the paper uses 1000
        // runs of one switch; we use one long stream of many switches).
        n_switches: (6 * config.runs).max(6),
    };
    let learner = default_learner();

    for kind in [WorkloadKind::Stagger, WorkloadKind::Hyperplane] {
        let workload = Workload::paper(kind, config.scale);
        let (historical, _, _) = workload.split(config.seed);
        let algo_config = config_for(&workload, config.seed);

        let mut curves: Vec<Vec<f64>> = Vec::new();
        for &algo_kind in &AlgoKind::PAPER {
            let mut built = build_algo(algo_kind, &historical, &learner, &algo_config);
            let mut source = scripted_source(kind, config.seed ^ 0x5eed);
            curves.push(error_curve(built.algo.as_mut(), source.as_mut(), &spec));
            eprintln!("  done: {} {}", kind.name(), algo_kind.name());
        }

        let xs: Vec<f64> = spec.offsets().iter().map(|&o| o as f64).collect();
        let cols: Vec<(&str, &[f64])> = AlgoKind::PAPER
            .iter()
            .zip(&curves)
            .map(|(k, v)| (k.name(), v.as_slice()))
            .collect();
        print_series(
            &format!(
                "Fig 5 ({}, error rate around a concept change at offset 0)",
                kind.name()
            ),
            "offset",
            &xs,
            &cols,
        );
        maybe_dump_json(&format!("fig5_{}", kind.name().to_lowercase()), |w| {
            w.array(|w| {
                w.f64s(&xs).array(|w| {
                    for curve in &curves {
                        w.f64s(curve);
                    }
                });
            });
        });
    }
    println!(
        "(paper shape: Stagger — high-order error returns to ~0 a few \
         records after the shift, RePro recovers after its trigger window \
         fills, WCE after about one chunk; Hyperplane — high-order error \
         peaks mid-drift and returns to optimal when drift completes)"
    );
}
