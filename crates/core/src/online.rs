//! Online concept identification and prediction (paper §III).
//!
//! The predictor maintains each concept's **active probability**. Per
//! timestamp `t` the lifecycle is:
//!
//! 1. the *prior* `Pₜ⁻(c)` is obtained from the previous posterior through
//!    the transition kernel χ (Eq. 5);
//! 2. unlabeled records of timestamp `t` are classified with the
//!    prior-weighted ensemble (Eq. 10) — the paper's Eq. 10 uses `Pₜ⁻`
//!    because the label of timestamp `t` is not yet available;
//! 3. the labeled record `yₜ` arrives and the *posterior* `Pₜ(c)` is
//!    computed by Bayes' rule with the likelihood proxy `ψ` (Eqs. 7–9).
//!
//! [`OnlinePredictor::step`] performs 1–3 for the common benchmark loop
//! where every record is both predicted and then revealed.
//!
//! All of the filter math lives in [`FilterState`] (the cloneable
//! per-stream state, shared with the `hom-serve` engine); the predictor
//! owns one state, pins it to one `Arc<HighOrderModel>`, and layers the
//! observability — a prediction-latency histogram, posterior traces,
//! §III-C prune events and label-agreement counters — on top.

use std::sync::Arc;
use std::time::Instant;

use hom_classifiers::argmax;
use hom_data::ClassId;
use hom_obs::{Histogram, Obs};

use crate::build::HighOrderModel;
use crate::filter::FilterState;

/// Execution options of the online filter. Like
/// [`crate::build::BuildOptions`], options never change a prediction —
/// observability only measures.
#[derive(Debug, Clone)]
pub struct OnlineOptions {
    /// Observability sink the predictor emits its per-record metrics to
    /// (posterior trace, prediction-latency histogram, prune events,
    /// label-agreement counters). The default comes from
    /// [`Obs::from_env`]: disabled unless `HOM_TRACE=path.jsonl` is set.
    pub sink: Obs,
}

impl Default for OnlineOptions {
    fn default() -> Self {
        OnlineOptions {
            sink: Obs::from_env(),
        }
    }
}

/// One stream's online filter: a [`FilterState`] bound to its model, plus
/// batched observability.
pub struct OnlinePredictor {
    model: Arc<HighOrderModel>,
    /// The per-stream state (posterior, prior, prune order, scratch).
    state: FilterState,
    /// Observability handle; disabled by default (one branch per record).
    obs: Obs,
    /// Metrics accumulated locally while observed, emitted by
    /// [`Self::flush_trace`]. Latency of [`Self::step`] in nanoseconds.
    latency: Histogram,
    observed: u64,
    predicted: u64,
    consulted: u64,
    pruned_records: u64,
    map_agree: u64,
}

impl OnlinePredictor {
    /// Start a predictor with the uniform initial distribution
    /// `P₁(c) = 1/N` (§III-B), with default [`OnlineOptions`] (tracing
    /// via the `HOM_TRACE` hook only).
    pub fn new(model: Arc<HighOrderModel>) -> Self {
        Self::with_options(model, &OnlineOptions::default())
    }

    /// [`OnlinePredictor::new`] with explicit execution options.
    pub fn with_options(model: Arc<HighOrderModel>, options: &OnlineOptions) -> Self {
        let state = FilterState::new(&model);
        Self::from_state(model, state, options)
    }

    /// Resume a predictor from an existing state — e.g. one restored from
    /// a [`FilterState::restore`] snapshot. The continued run is
    /// bit-identical to never having stopped.
    ///
    /// # Panics
    /// Panics if `state` does not match the model's concept count.
    pub fn from_state(
        model: Arc<HighOrderModel>,
        state: FilterState,
        options: &OnlineOptions,
    ) -> Self {
        assert_eq!(
            state.n_concepts(),
            model.n_concepts(),
            "state does not match the model"
        );
        OnlinePredictor {
            model,
            state,
            obs: options.sink.clone(),
            latency: Histogram::new(),
            observed: 0,
            predicted: 0,
            consulted: 0,
            pruned_records: 0,
            map_agree: 0,
        }
    }

    /// The model this predictor runs.
    pub fn model(&self) -> &Arc<HighOrderModel> {
        &self.model
    }

    /// The per-stream filter state (read-only; the predictor's methods
    /// are the mutation surface).
    pub fn state(&self) -> &FilterState {
        &self.state
    }

    /// Give up the predictor, keeping its state — the handoff direction
    /// of [`Self::from_state`] (flushes any batched metrics first).
    pub fn into_state(mut self) -> FilterState {
        self.flush_trace();
        self.state.clone()
    }

    /// The active probabilities used for prediction at the current
    /// timestamp (`Pₜ⁻`).
    pub fn concept_probs(&self) -> &[f64] {
        self.state.prior()
    }

    /// The most likely current concept.
    pub fn current_concept(&self) -> usize {
        self.state.current_concept()
    }

    /// Advance one timestamp: posterior → prior through χ (Eq. 5).
    ///
    /// Called automatically by [`Self::observe`]; call it directly
    /// (possibly several times) when timestamps pass without labeled data
    /// — e.g. a variable-rate stream where `k` unlabeled records arrive
    /// between labels (§III-B notes the equations adapt to variable rate).
    pub fn advance(&mut self) {
        self.state.advance(&self.model);
    }

    /// Absorb the labeled record of the current timestamp: posterior ∝
    /// prior · ψ(c, yₜ), normalized (Eqs. 7–9), then advance to the next
    /// timestamp's prior.
    pub fn observe(&mut self, x: &[f64], y: ClassId) {
        self.state.absorb(&self.model, x, y);
        if self.obs.enabled() {
            self.observed += 1;
            // Did the most probable concept's model agree with the label?
            // ψ returns `1 − Err` exactly when it did (Eq. 8).
            let map = argmax(self.state.prior());
            if self.state.psi[map] == self.model.concepts()[map].psi_outcomes().0 {
                self.map_agree += 1;
            }
            // Posterior trace P_t(c) — the paper's Fig. 6 timeline.
            self.obs
                .series("online.posterior", self.observed, self.state.posterior());
        }
        // Pre-compute the next timestamp's prior.
        self.state.roll_prior(&self.model);
    }

    /// Advance `k` timestamps at once — the variable-rate adaptation the
    /// paper mentions in §III-B ("if records are generated in variable
    /// rate, the equations can be easily revised"): when `k` unlabeled
    /// records passed between two labeled ones, the prior must diffuse
    /// through χ once per elapsed timestamp.
    pub fn advance_by(&mut self, k: usize) {
        self.state.advance_by(&self.model, k);
    }

    /// Class-probability prediction for an unlabeled record (Eq. 10):
    /// `Highorder(l|x) = Σ_c Pₜ⁻(c)·M_c(l|x)`, one entry per class.
    ///
    /// # Panics
    ///
    /// If `out` is not exactly the model's class count long.
    pub fn predict_proba(&mut self, x: &[f64], out: &mut [f64]) {
        self.state.predict_proba(&self.model, x, out);
    }

    /// Unique-class prediction (Eq. 11): the argmax of Eq. 10.
    pub fn predict(&mut self, x: &[f64]) -> ClassId {
        self.state.predict(&self.model, x)
    }

    /// Unique-class prediction with the early-terminated enumeration of
    /// §III-C: concepts are consulted in decreasing order of active
    /// probability, and enumeration stops as soon as the remaining
    /// probability mass cannot change the argmax. In the usual case of a
    /// clearly-identified current concept, exactly one classifier runs.
    pub fn predict_pruned(&mut self, x: &[f64]) -> ClassId {
        let (pred, consulted) = self.state.predict_pruned(&self.model, x);
        if self.obs.enabled() {
            self.predicted += 1;
            self.consulted += consulted as u64;
            let skipped = self.model.n_concepts() - consulted;
            if skipped > 0 {
                self.pruned_records += 1;
                // One event per early-terminated prediction: the remaining
                // posteriors were too small to change the argmax (§III-C).
                self.obs.count("online.prune", skipped as u64);
            }
        }
        pred
    }

    /// Predict the unlabeled record of timestamp `t`, then absorb its
    /// label — the benchmark loop used by all experiments (the prediction
    /// never sees `yₜ`, matching the paper's protocol where `xₜ` is
    /// predicted with labels `y₁ … y_{t−1}`).
    pub fn step(&mut self, x: &[f64], y: ClassId) -> ClassId {
        if !self.obs.enabled() {
            let pred = self.predict_pruned(x);
            self.observe(x, y);
            return pred;
        }
        let t0 = Instant::now();
        let pred = self.predict_pruned(x);
        self.observe(x, y);
        self.latency.record(t0.elapsed().as_nanos() as f64);
        pred
    }

    /// Emit the metrics accumulated since the last flush — the latency
    /// histogram, record/consultation/prune counters and the
    /// label-agreement count — and reset them. A no-op when unobserved or
    /// nothing accumulated; called automatically on drop, so short-lived
    /// predictors still land in the trace (and a drop after an explicit
    /// flush emits nothing twice).
    pub fn flush_trace(&mut self) {
        if !self.obs.enabled() || (self.observed == 0 && self.predicted == 0) {
            return;
        }
        if self.latency.count() > 0 {
            self.obs.hist("online.latency_ns", &self.latency);
        }
        self.obs.count("online.records_predicted", self.predicted);
        self.obs.count("online.records_observed", self.observed);
        self.obs.count("online.concepts_consulted", self.consulted);
        self.obs.count("online.pruned_records", self.pruned_records);
        self.obs.count("online.label_agree", self.map_agree);
        self.latency = Histogram::new();
        self.observed = 0;
        self.predicted = 0;
        self.consulted = 0;
        self.pruned_records = 0;
        self.map_agree = 0;
    }
}

impl Drop for OnlinePredictor {
    fn drop(&mut self) {
        self.flush_trace();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, BuildParams};
    use crate::transition::TransitionStats;
    use crate::Concept;
    use hom_classifiers::{DecisionTreeLearner, MajorityClassifier};
    use hom_cluster::ClusterParams;
    use hom_data::stream::collect;
    use hom_data::{Attribute, Schema, StreamSource};
    use hom_datagen::stagger::stagger_label;
    use hom_datagen::{StaggerParams, StaggerSource};

    /// Hand-built two-concept model: concept 0 always predicts class 0,
    /// concept 1 always predicts class 1, both with error 0.1.
    fn toy_model() -> Arc<HighOrderModel> {
        let schema = Schema::new(vec![Attribute::numeric("x")], ["a", "b"]);
        let concepts = vec![
            Concept {
                id: 0,
                model: Arc::new(MajorityClassifier::from_counts(&[10, 0])),
                err: 0.1,
                n_records: 100,
                n_occurrences: 1,
            },
            Concept {
                id: 1,
                model: Arc::new(MajorityClassifier::from_counts(&[0, 10])),
                err: 0.1,
                n_records: 100,
                n_occurrences: 1,
            },
        ];
        let stats = TransitionStats::from_occurrences(2, &[(0, 100), (1, 100)]);
        Arc::new(HighOrderModel::from_parts(schema, concepts, stats))
    }

    #[test]
    fn probabilities_start_uniform_and_stay_normalized() {
        let mut p = OnlinePredictor::new(toy_model());
        assert_eq!(p.concept_probs(), &[0.5, 0.5]);
        for t in 0..50 {
            let y = u32::from(t % 2 == 0);
            p.observe(&[0.0], y);
            let sum: f64 = p.concept_probs().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "sum = {sum} at t = {t}");
        }
    }

    #[test]
    fn evidence_concentrates_on_consistent_concept() {
        let mut p = OnlinePredictor::new(toy_model());
        for _ in 0..20 {
            p.observe(&[0.0], 1); // always class b: concept 1's prediction
        }
        assert_eq!(p.current_concept(), 1);
        assert!(p.concept_probs()[1] > 0.9);
        assert_eq!(p.predict(&[0.0]), 1);
        assert_eq!(p.predict_pruned(&[0.0]), 1);
    }

    #[test]
    fn filter_recovers_after_concept_change() {
        let mut p = OnlinePredictor::new(toy_model());
        for _ in 0..30 {
            p.observe(&[0.0], 0);
        }
        assert_eq!(p.current_concept(), 0);
        // concept changes: labels flip
        let mut recovered_at = None;
        for t in 0..30 {
            p.observe(&[0.0], 1);
            if recovered_at.is_none() && p.current_concept() == 1 {
                recovered_at = Some(t);
            }
        }
        let t = recovered_at.expect("filter never recovered");
        assert!(t <= 5, "recovery took {t} records");
    }

    #[test]
    fn pruned_prediction_matches_full_ensemble() {
        let mut src = StaggerSource::new(StaggerParams {
            lambda: 0.01,
            ..Default::default()
        });
        let (data, _) = collect(&mut src, 3000);
        let (model, _) = build(
            &data,
            &DecisionTreeLearner::new(),
            &BuildParams {
                cluster: ClusterParams {
                    block_size: 10,
                    seed: 9,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let model = Arc::new(model);
        let mut a = OnlinePredictor::new(Arc::clone(&model));
        let mut b = OnlinePredictor::new(model);
        let mut src2 = StaggerSource::new(StaggerParams {
            lambda: 0.01,
            seed: 5,
            ..Default::default()
        });
        for _ in 0..500 {
            let r = src2.next_record();
            assert_eq!(
                a.predict(&r.x),
                b.predict_pruned(&r.x),
                "pruned and full predictions diverged"
            );
            a.observe(&r.x, r.y);
            b.observe(&r.x, r.y);
        }
    }

    #[test]
    fn tracks_stagger_stream_with_low_error() {
        let mut src = StaggerSource::new(StaggerParams {
            lambda: 0.01,
            ..Default::default()
        });
        let (data, _) = collect(&mut src, 4000);
        let (model, _) = build(
            &data,
            &DecisionTreeLearner::new(),
            &BuildParams {
                cluster: ClusterParams {
                    block_size: 10,
                    seed: 1,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let mut p = OnlinePredictor::new(Arc::new(model));
        // fresh test stream continuing from the same generator
        let mut wrong = 0usize;
        let n = 4000;
        for _ in 0..n {
            let r = src.next_record();
            if p.step(&r.x, r.y) != r.y {
                wrong += 1;
            }
        }
        let err = wrong as f64 / n as f64;
        assert!(err < 0.05, "online error = {err}");
    }

    #[test]
    fn advance_without_labels_diffuses_probability() {
        let mut p = OnlinePredictor::new(toy_model());
        for _ in 0..20 {
            p.observe(&[0.0], 0);
        }
        let before = p.concept_probs()[0];
        // 200 unlabeled timestamps: mass should leak toward concept 1
        for _ in 0..200 {
            p.advance();
        }
        let after = p.concept_probs()[0];
        assert!(after < before);
        let sum: f64 = p.concept_probs().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stagger_concept_models_are_usable_after_identification() {
        let mut src = StaggerSource::new(StaggerParams {
            lambda: 0.01,
            ..Default::default()
        });
        let (data, _) = collect(&mut src, 4000);
        let (model, _) = build(
            &data,
            &DecisionTreeLearner::new(),
            &BuildParams {
                cluster: ClusterParams {
                    block_size: 10,
                    seed: 2,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let mut p = OnlinePredictor::new(Arc::new(model));
        // Feed 100 labeled records from pure concept 2, then check fresh
        // predictions match concept 2's ground truth.
        let mut rng = hom_data::rng::seeded(4242);
        use rand::Rng;
        let mut gen = || {
            let x = [
                f64::from(rng.gen_range(0..3u8)),
                f64::from(rng.gen_range(0..3u8)),
                f64::from(rng.gen_range(0..3u8)),
            ];
            let y = stagger_label(2, x[0], x[1], x[2]);
            (x, y)
        };
        for _ in 0..100 {
            let (x, y) = gen();
            p.observe(&x, y);
        }
        let mut wrong = 0;
        for _ in 0..200 {
            let (x, y) = gen();
            if p.predict_pruned(&x) != y {
                wrong += 1;
            }
        }
        assert!(wrong <= 6, "wrong = {wrong}/200");
    }

    #[test]
    fn predictor_and_bare_state_agree_exactly() {
        let model = toy_model();
        let mut p = OnlinePredictor::new(Arc::clone(&model));
        let mut s = FilterState::new(&model);
        for t in 0..60u32 {
            let x = [f64::from(t % 3)];
            let y = u32::from(t % 5 == 0);
            assert_eq!(p.predict_pruned(&x), s.predict_pruned(&model, &x).0);
            p.observe(&x, y);
            s.observe(&model, &x, y);
            let pb: Vec<u64> = p.state().posterior().iter().map(|v| v.to_bits()).collect();
            let sb: Vec<u64> = s.posterior().iter().map(|v| v.to_bits()).collect();
            assert_eq!(pb, sb, "posterior diverged at t = {t}");
        }
    }

    #[test]
    fn state_handoff_resumes_bit_identically() {
        let model = toy_model();
        let mut a = OnlinePredictor::new(Arc::clone(&model));
        let mut b = OnlinePredictor::new(Arc::clone(&model));
        for t in 0..25u32 {
            a.step(&[0.0], t % 2);
            b.step(&[0.0], t % 2);
        }
        // hand b's state to a fresh predictor mid-stream
        let state = b.into_state();
        let mut b = OnlinePredictor::from_state(model, state, &OnlineOptions::default());
        for t in 0..25u32 {
            assert_eq!(a.step(&[0.0], t % 3), b.step(&[0.0], t % 3));
        }
        let ab: Vec<u64> = a.concept_probs().iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u64> = b.concept_probs().iter().map(|v| v.to_bits()).collect();
        assert_eq!(ab, bb);
    }
}
