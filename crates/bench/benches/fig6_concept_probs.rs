//! Figure 6 — Probabilities of Stable Concepts during Concept Change.
//!
//! The high-order model's active probabilities of the outgoing ("old")
//! and incoming ("new") concept, aligned on concept changes. Paper shape:
//! on Stagger the probabilities cross within a few records of the shift;
//! on Hyperplane they cross gradually across the 100-step drift, with the
//! most similar historical concept holding the largest probability
//! mid-drift.

use hom_data::StreamSource;
use hom_datagen::{HyperplaneParams, HyperplaneSource, StaggerParams, StaggerSource};
use hom_eval::algo::build_high_order;
use hom_eval::curves::{probability_curves, CurveSpec};
use hom_eval::report::{maybe_dump_json, print_series};
use hom_eval::runner::{config_for, default_learner};
use hom_eval::workloads::{Workload, WorkloadKind};
use hom_eval::EvalConfig;

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
        WorkloadKind::Intrusion => unreachable!("Fig. 6 covers Stagger and Hyperplane"),
    }
}

fn main() {
    let config = EvalConfig::from_env();
    println!("{}", config.banner());

    let spec = CurveSpec {
        pre: 30,
        post: 170,
        period: PERIOD,
        n_switches: (6 * config.runs).max(6),
    };
    let learner = default_learner();

    for kind in [WorkloadKind::Stagger, WorkloadKind::Hyperplane] {
        let workload = Workload::paper(kind, config.scale);
        let (historical, _, _) = workload.split(config.seed);
        let algo_config = config_for(&workload, config.seed);
        let (mut algo, _, n_concepts) = build_high_order(&historical, &learner, &algo_config);
        let mut source = scripted_source(kind, config.seed ^ 0x5eed);
        let (p_old, p_new) = probability_curves(&mut algo, source.as_mut(), &spec);
        eprintln!("  done: {} ({n_concepts} mined concepts)", kind.name());

        let xs: Vec<f64> = spec.offsets().iter().map(|&o| o as f64).collect();
        print_series(
            &format!(
                "Fig 6 ({}, active probabilities around a change at offset 0)",
                kind.name()
            ),
            "offset",
            &xs,
            &[("old_concept", &p_old[..]), ("new_concept", &p_new[..])],
        );
        maybe_dump_json(&format!("fig6_{}", kind.name().to_lowercase()), |w| {
            w.array(|w| {
                w.f64s(&xs).f64s(&p_old).f64s(&p_new);
            });
        });
    }
    println!(
        "(paper shape: Stagger — probabilities cross within a few records \
         of the shift; Hyperplane — gradual crossover spanning the \
         100-step drift)"
    );
}
