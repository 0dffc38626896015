//! `hom-adapt` — novel-concept detection and live model maintenance.
//!
//! The paper mines the high-order model **once** from historical data and
//! assumes the stream forever revisits those concepts. Real streams do
//! not oblige: sooner or later the data enters a concept the history
//! never contained, and the Bayesian filter (Eqs. 7–9) — which can only
//! redistribute belief among mined concepts — quietly serves the least
//! bad wrong answer. This crate closes the loop with three cooperating
//! pieces, none of which touches the filter's mathematics:
//!
//! 1. **Detect** ([`NoveltyDetector`]): the filter already computes the
//!    evidence. The Eq. 7 normalizer `Σ_c Pₜ⁻(c)·ψ(c, yₜ)` — exposed as
//!    [`hom_core::FilterState::last_likelihood`] — sits near `1 − Err`
//!    of the active concept while *some* concept explains the labels,
//!    and collapses when none does; simultaneously the posterior stops
//!    settling and its normalized entropy
//!    ([`hom_core::FilterState::posterior_entropy`]) saturates. The
//!    detector fires when the windowed means of **both** signals cross
//!    their thresholds ([`AdaptOptions`]) — either alone is a false-alarm
//!    generator (label noise dents the likelihood; slow concept switches
//!    raise the entropy).
//! 2. **Degrade** ([`AdaptivePredictor`]): while off-model, predictions
//!    come from an incremental fallback learner
//!    ([`hom_classifiers::HoeffdingTree`]) started fresh at the trigger
//!    (records preceding it straddle the change point and would poison
//!    the tree's first, irreversible split) — the serving path never
//!    panics and is never worse than running the fallback standalone,
//!    because that is exactly what it serves off-model.
//! 3. **Repair** ([`AdaptivePredictor`] → [`AdaptiveEngine`]): the
//!    off-model segment is buffered until the fallback's prequential
//!    error plateaus, then clustered against the mined concepts with the
//!    Eq. 4 prediction-agreement similarity
//!    ([`hom_cluster::model_similarity`]) on the segment's own records.
//!    A match becomes a new historical occurrence
//!    ([`hom_core::HighOrderModel::record_occurrence`]); a miss admits
//!    the fallback as a **new concept**
//!    ([`hom_core::HighOrderModel::admit_concept`]), with the transition
//!    kernel χ re-normalized from the updated totals (Eq. 6). Either way
//!    the result is a *new immutable model*; [`AdaptiveEngine`] hot-swaps
//!    it into a [`hom_serve::ServeEngine`] under load, migrating every
//!    live and parked [`hom_core::FilterState`].
//!
//! Everything is deterministic: the detector is windowed arithmetic, the
//! fallback's splits depend only on the replayed records, and the swap
//! migration is bit-exact — the same stream produces the same triggers,
//! admissions and predictions at any thread count.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use hom_adapt::{AdaptEvent, AdaptOptions, AdaptiveEngine};
//! use hom_classifiers::MajorityClassifier;
//! use hom_core::{Concept, HighOrderModel, TransitionStats};
//! use hom_data::{Attribute, Schema};
//!
//! // Normally `hom_core::build` mines the model; hand-build a tiny one.
//! let schema = Schema::new(vec![Attribute::numeric("x")], ["a", "b"]);
//! let concepts = vec![
//!     Concept { id: 0, model: Arc::new(MajorityClassifier::from_counts(&[9, 1])),
//!               err: 0.1, n_records: 50, n_occurrences: 1 },
//!     Concept { id: 1, model: Arc::new(MajorityClassifier::from_counts(&[1, 9])),
//!               err: 0.1, n_records: 50, n_occurrences: 1 },
//! ];
//! let stats = TransitionStats::from_occurrences(2, &[(0, 50), (1, 50)]);
//! let model = Arc::new(HighOrderModel::from_parts(schema, concepts, stats));
//!
//! let opts = AdaptOptions { window: 20, min_segment: 40, max_segment: 120,
//!                           ..Default::default() };
//! let engine = AdaptiveEngine::new(model, opts);
//! // Labels neither constant concept explains: alternating every record.
//! let mut admitted = false;
//! for t in 0..400u32 {
//!     let (_, event) = engine.step_monitor(&[f64::from(t % 2)], t % 2);
//!     if let Some(AdaptEvent::Admitted { novel, .. }) = event {
//!         admitted = novel;
//!         break;
//!     }
//! }
//! assert!(admitted, "the unexplained regime becomes a third concept");
//! assert_eq!(engine.model().n_concepts(), 3);
//! ```
//!
//! # Environment knobs
//!
//! | Variable | Effect |
//! |---|---|
//! | [`WINDOW_ENV`] (`HOM_ADAPT_WINDOW`) | evidence window, labeled records |
//! | [`LIKELIHOOD_ENV`] (`HOM_ADAPT_LIKELIHOOD`) | likelihood trigger threshold |
//! | [`ENTROPY_ENV`] (`HOM_ADAPT_ENTROPY`) | entropy trigger threshold |
//! | [`MIN_SEGMENT_ENV`] (`HOM_ADAPT_MIN_SEGMENT`) | min segment before admission |
//! | [`MAX_SEGMENT_ENV`] (`HOM_ADAPT_MAX_SEGMENT`) | segment size forcing admission |
//! | [`MATCH_ENV`] (`HOM_ADAPT_MATCH`) | Eq. 4 recurrence-vs-novel threshold |
//!
//! [`AdaptOptions::from_env`] reads them. Text that does not parse is an
//! [`AdaptConfigError::InvalidEnv`] naming the variable
//! ([`AdaptOptions::try_from_env`]; `from_env` panics with it), and a
//! value out of range is a typed error at construction — never a silent
//! fallback or clamp, the same contract as `hom-serve`'s `ConfigError`.

#![warn(missing_docs)]

pub mod detector;
pub mod engine;
pub mod options;
pub mod predictor;

pub use detector::NoveltyDetector;
pub use engine::{AdaptiveEngine, EngineConfigError, IncidentDump, SwapPropagator};
pub use options::{
    AdaptConfigError, AdaptOptions, ENTROPY_ENV, LIKELIHOOD_ENV, MATCH_ENV, MAX_SEGMENT_ENV,
    MIN_SEGMENT_ENV, WINDOW_ENV,
};
pub use predictor::{AdaptEvent, AdaptivePredictor, Mode};
