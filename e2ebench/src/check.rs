//! The correctness gate: a single in-process engine, fed the same
//! requests in the same order, must reproduce every prediction and every
//! stream's final posterior bit for bit.

use std::sync::Arc;

use hom_core::HighOrderModel;
use hom_serve::ServeEngine;

use crate::drive::{digest, Outcome};
use crate::inputs::Inputs;
use crate::system::{engine_options, System};

/// Batches over which `mispredict_rate` is taken: a fixed prefix of the
/// request sequence, so the figure depends on the seed and the program's
/// predictions but not on how many batches the timed phase got through.
pub const QUALITY_BATCHES: usize = 512;

/// What the reference replay found.
pub struct Verdict {
    /// Mismatches, described; empty when the system is correct.
    pub mismatches: Vec<String>,
    /// `Step` predictions of batches `0..QUALITY_BATCHES` that missed the
    /// label.
    pub mispredicts: u64,
}

/// Replay the warm pass and timed batches `0..outcomes.len()` through a
/// fresh engine and compare with what `system` answered and holds; then
/// go on to [`QUALITY_BATCHES`] if the phase stopped short of it.
pub fn verify(
    system: &System,
    model: Arc<HighOrderModel>,
    inputs: &Inputs,
    outcomes: &[Outcome],
) -> Verdict {
    let reference = ServeEngine::with_options(model, &engine_options());
    let mut batch = Vec::new();
    for k in 0..inputs.warm_batches() {
        inputs.fill_warm(k, &mut batch);
        reference.submit(&batch);
    }
    let mut mismatches = Vec::new();
    let mut mispredicts = 0;
    let mut replay = |k: usize, batch: &mut Vec<_>| {
        inputs.fill(k, batch);
        let (h, miss) = digest(k, batch, &reference.submit(batch))
            .expect("the reference engine answers every request");
        if k < QUALITY_BATCHES {
            mispredicts += miss;
        }
        h
    };
    for (k, outcome) in outcomes.iter().enumerate() {
        if replay(k, &mut batch) != outcome.digest && !outcome.failed && mismatches.len() < 5 {
            mismatches.push(format!("batch {k}: prediction digest differs"));
        }
    }
    let ids = reference.stream_ids();
    let held: usize = system
        .engines()
        .iter()
        .map(|e| e.live_streams() + e.parked_streams())
        .sum();
    if held != ids.len() {
        mismatches.push(format!(
            "system holds {held} streams, reference {}",
            ids.len()
        ));
    }
    let bits = |p: Option<Vec<f64>>| p.map(|p| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    let differing = ids
        .iter()
        .filter(|&&id| bits(system.posterior(id)) != bits(reference.posterior(id)))
        .count();
    if differing > 0 {
        mismatches.push(format!("{differing} streams end on a different posterior"));
    }
    for k in outcomes.len()..QUALITY_BATCHES {
        replay(k, &mut batch);
    }
    Verdict {
        mismatches,
        mispredicts,
    }
}
