//! The per-stream state of the online Bayesian filter (paper §III).
//!
//! [`FilterState`] is everything that changes as one stream's labels
//! arrive — the posterior/prior over concepts, the prune order and the
//! scratch buffers — with the immutable [`HighOrderModel`] factored out.
//! The split is what makes the model servable: one `Arc<HighOrderModel>`
//! can back any number of independent streams, each a compact, cloneable
//! `FilterState` (see the `hom-serve` crate, which multiplexes millions
//! of them over a sharded table).
//!
//! Every method takes the model by reference and is bit-identical to the
//! corresponding [`crate::OnlinePredictor`] operation — the predictor is
//! now a thin wrapper that adds observability around this state. A state
//! must only ever be used with the model it was created (or restored)
//! for; methods assert the concept count matches.
//!
//! The update equations themselves live in one place: [`FilterView`]'s
//! `*_at` methods (with `TransitionStats::advance_at` for Eq. 5), the
//! §III core, generic over the concept and class counts ([`Width`]).
//! `FilterState` runs it at runtime widths, with rows from the
//! classifiers; the compiled serving kernel ([`crate::compiled`]) runs
//! the same source at the widths each compiled model epoch has — fixed
//! at compile time for up to 16 concepts and for binary models — with
//! rows from its batch table. No option selects between them.
//!
//! States can be serialized to a small versioned binary snapshot and
//! restored bit-identically later ([`FilterState::snapshot`] /
//! [`FilterState::restore`] in [`crate::snapshot`]) — the mechanism the
//! serving layer uses to evict idle streams and resume them without any
//! drift.

use hom_classifiers::argmax;
use hom_data::ClassId;

use crate::build::HighOrderModel;
use crate::transition::TransitionStats;

/// The mutable per-stream state of the online filter: a probability
/// distribution over concepts plus the scratch the update equations need.
///
/// Cheap to clone (a handful of `n_concepts`-sized vectors, no model) and
/// independent of every other stream's state.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterState {
    /// Posterior `P_{t-1}(c)` after the last observed label.
    pub(crate) posterior: Vec<f64>,
    /// Prior `Pₜ⁻(c)` for the current timestamp (derived from
    /// `posterior`), the distribution predictions use.
    pub(crate) prior: Vec<f64>,
    /// Concept order sorted by descending prior (for pruned prediction).
    pub(crate) order: Vec<u32>,
    /// Scratch buffer for per-concept class distributions.
    scratch: Vec<f64>,
    /// Scratch buffer for ψ(c, yₜ) — each entry costs one classifier
    /// prediction, so [`Self::absorb`] computes it exactly once.
    pub(crate) psi: Vec<f64>,
    /// The marginal likelihood `Σ_c Pₜ⁻(c)·ψ(c, yₜ)` of the last absorbed
    /// label — the Eq. 7 normalizer, exported as novelty evidence
    /// ([`Self::last_likelihood`]). `1.0` until a label is absorbed.
    last_likelihood: f64,
}

impl FilterState {
    /// The uniform initial state `P₁(c) = 1/N` (§III-B) for `model`.
    ///
    /// # Panics
    /// Panics if the model has no concepts.
    pub fn new(model: &HighOrderModel) -> Self {
        let n = model.n_concepts();
        assert!(n > 0, "model has no concepts");
        let uniform = vec![1.0 / n as f64; n];
        let n_classes = model.schema().n_classes();
        FilterState {
            posterior: uniform.clone(),
            prior: uniform,
            order: (0..n as u32).collect(),
            scratch: vec![0.0; n_classes],
            psi: vec![0.0; n],
            last_likelihood: 1.0,
        }
    }

    /// Rebuild a state from its distribution parts (the snapshot codec's
    /// entry point). `order` must already be the descending-prior
    /// permutation the state was saved with — re-sorting here could break
    /// bit-identical resumption on tied priors.
    pub(crate) fn from_parts(
        model: &HighOrderModel,
        posterior: Vec<f64>,
        prior: Vec<f64>,
        order: Vec<u32>,
    ) -> Self {
        let n = model.n_concepts();
        debug_assert_eq!(posterior.len(), n);
        FilterState {
            posterior,
            prior,
            order,
            scratch: vec![0.0; model.schema().n_classes()],
            psi: vec![0.0; n],
            last_likelihood: 1.0,
        }
    }

    /// Assemble a state from distributions stored elsewhere — the way a
    /// serving layer's structure-of-arrays stream table materializes one
    /// of its rows into an owned state (for introspection, snapshots or
    /// migration). `order` must be the descending-prior permutation the
    /// row was maintained with, and `last_likelihood` the row's Eq. 7
    /// normalizer; all values are copied bit-for-bit.
    pub fn assemble(
        model: &HighOrderModel,
        posterior: Vec<f64>,
        prior: Vec<f64>,
        order: Vec<u32>,
        last_likelihood: f64,
    ) -> Self {
        let mut state = FilterState::from_parts(model, posterior, prior, order);
        state.last_likelihood = last_likelihood;
        state
    }

    #[inline]
    fn check(&self, model: &HighOrderModel) {
        assert_eq!(
            self.posterior.len(),
            model.n_concepts(),
            "FilterState used with a different model than it was created for"
        );
    }

    /// Number of concepts this state tracks.
    pub fn n_concepts(&self) -> usize {
        self.posterior.len()
    }

    /// The active probabilities used for prediction at the current
    /// timestamp (`Pₜ⁻`).
    pub fn prior(&self) -> &[f64] {
        &self.prior
    }

    /// The posterior `P_{t-1}(c)` after the last observed label.
    pub fn posterior(&self) -> &[f64] {
        &self.posterior
    }

    /// Concept ids in descending order of active probability (the §III-C
    /// enumeration order).
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// The most likely current concept.
    pub fn current_concept(&self) -> usize {
        argmax(&self.prior)
    }

    /// The marginal likelihood `Σ_c Pₜ⁻(c)·ψ(c, yₜ)` of the **last
    /// absorbed label** — the normalizer of Eq. 7, and the filter's
    /// native measure of how well *any* mined concept explains the
    /// stream. On-model it hovers near `1 − Err` of the active concept;
    /// on a concept the history never contained it collapses toward the
    /// concepts' error rates. `1.0` until the first label is absorbed.
    /// The novelty detector of `hom-adapt` windows this value.
    pub fn last_likelihood(&self) -> f64 {
        self.last_likelihood
    }

    /// ψ(c, yₜ) per concept for the last absorbed label (Eqs. 7–8).
    /// All-zero until the first label is absorbed.
    pub fn last_psi(&self) -> &[f64] {
        &self.psi
    }

    /// Shannon entropy of the posterior, normalized by `ln N` to `[0, 1]`
    /// (0 = one concept certain, 1 = uniform confusion). Saturating
    /// entropy is the second novelty signal: when no mined concept
    /// explains the labels, the posterior keeps being pulled between
    /// concepts and never settles. `0` for a single-concept model.
    pub fn posterior_entropy(&self) -> f64 {
        let n = self.posterior.len();
        if n <= 1 {
            return 0.0;
        }
        let h: f64 = self
            .posterior
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| -p * p.ln())
            .sum();
        h / (n as f64).ln()
    }

    /// An owned, self-describing snapshot of the observable filter
    /// quantities — what a live introspection endpoint (the `/streams/…`
    /// route of `hom-serve`'s metrics listener) serves without holding
    /// any lock on the stream. Values are copied bit-for-bit from the
    /// state; taking a snapshot never mutates anything.
    pub fn introspect(&self) -> FilterIntrospection {
        FilterIntrospection {
            posterior: self.posterior.clone(),
            prior: self.prior.clone(),
            order: self.order.clone(),
            current_concept: self.current_concept(),
            last_likelihood: self.last_likelihood,
            posterior_entropy: self.posterior_entropy(),
        }
    }

    /// Carry this state over to `model`, a model that contains every
    /// concept of the state's original model at the same id (plus,
    /// possibly, newly admitted ones) — the per-stream migration a
    /// serving engine performs when it hot-swaps an extended model in.
    ///
    /// Newly admitted concepts receive their **stationary frequency**
    /// `Freq_j` as posterior/prior mass (the model's own estimate of the
    /// probability an arbitrary record belongs to them), existing
    /// concepts keep their relative weights scaled by the remaining
    /// mass, and both distributions are re-normalized. With an unchanged
    /// concept count (a stats-only rebuild after a matched occurrence)
    /// migration preserves the distributions bit-identically.
    ///
    /// # Panics
    /// Panics if `model` has fewer concepts than the state (shrinking
    /// never happens through the extension API; a serving layer rejects
    /// it before migrating — see `hom-serve`'s `SwapError`).
    pub fn migrate(&self, model: &HighOrderModel) -> FilterState {
        migrate_parts(model, &self.posterior, &self.prior, &self.order)
    }
    /// Borrow the distributions as a [`FilterView`] — the form the batch
    /// kernel ([`crate::compiled`]) operates on. Updates made through the
    /// view are updates of this state.
    pub fn as_view(&mut self) -> FilterView<'_> {
        FilterView {
            posterior: &mut self.posterior,
            prior: &mut self.prior,
            order: &mut self.order,
            last_likelihood: &mut self.last_likelihood,
        }
    }

    /// Disjoint borrows of the distribution fields (as a [`FilterView`])
    /// and the two scratch fields (concept-space ψ, class-space rows) —
    /// the delegation plumbing that routes every update through the same
    /// view core regardless of where the distributions are stored.
    fn split(&mut self) -> (FilterView<'_>, &mut [f64], &mut [f64]) {
        (
            FilterView {
                posterior: &mut self.posterior,
                prior: &mut self.prior,
                order: &mut self.order,
                last_likelihood: &mut self.last_likelihood,
            },
            &mut self.psi,
            &mut self.scratch,
        )
    }

    /// Advance one timestamp without a label: posterior → prior through χ
    /// (Eq. 5), with the posterior defaulting to the prior until a label
    /// arrives.
    pub fn advance(&mut self, model: &HighOrderModel) {
        self.as_view().advance(model);
    }

    /// Advance `k` timestamps at once (the variable-rate adaptation of
    /// §III-B).
    pub fn advance_by(&mut self, model: &HighOrderModel, k: usize) {
        for _ in 0..k {
            self.advance(model);
        }
    }

    /// Absorb the labeled record of the current timestamp: posterior ∝
    /// prior · ψ(c, yₜ), normalized (Eqs. 7–9). Does **not** advance to
    /// the next timestamp — callers that need the full lifecycle use
    /// [`Self::observe`]; the split exists so the predictor can read the
    /// fresh posterior (and ψ) for its metrics before the prior rolls.
    pub fn absorb(&mut self, model: &HighOrderModel, x: &[f64], y: ClassId) {
        let (mut view, psi, _) = self.split();
        view.absorb(model, x, y, psi);
    }

    /// Pre-compute the next timestamp's prior from the posterior (the
    /// tail of Eq. 5 after an observation) and refresh the prune order.
    pub fn roll_prior(&mut self, model: &HighOrderModel) {
        self.check(model);
        self.as_view()
            .roll_prior_at(model.n_concepts(), model.stats());
    }

    /// The full labeled-record lifecycle: [`Self::absorb`] then
    /// [`Self::roll_prior`].
    pub fn observe(&mut self, model: &HighOrderModel, x: &[f64], y: ClassId) {
        self.absorb(model, x, y);
        self.roll_prior(model);
    }

    /// Class-probability prediction for an unlabeled record (Eq. 10):
    /// `Highorder(l|x) = Σ_c Pₜ⁻(c)·M_c(l|x)`, one entry per class.
    ///
    /// # Panics
    ///
    /// If `out` is not exactly `model`'s class count long.
    pub fn predict_proba(&mut self, model: &HighOrderModel, x: &[f64], out: &mut [f64]) {
        let (view, _, classes) = self.split();
        view.predict_proba(model, x, out, classes);
    }

    /// Unique-class prediction (Eq. 11): the argmax of Eq. 10.
    pub fn predict(&mut self, model: &HighOrderModel, x: &[f64]) -> ClassId {
        let (view, _, classes) = self.split();
        view.predict(model, x, classes)
    }

    /// The §III-C early-terminated enumeration; returns the prediction and
    /// how many concept classifiers were consulted before the margin test
    /// terminated it. Identical to [`Self::predict`] in result, usually
    /// much cheaper: in the common case of a clearly-identified current
    /// concept exactly one classifier runs.
    pub fn predict_pruned(&mut self, model: &HighOrderModel, x: &[f64]) -> (ClassId, usize) {
        let (view, _, classes) = self.split();
        view.predict_pruned(model, x, classes)
    }
}

/// A mutable borrow of one stream's filter distributions, wherever they
/// live — a [`FilterState`]'s own vectors, or one row of a serving
/// layer's structure-of-arrays stream table.
///
/// Every update equation of §III runs through this view, which is what
/// makes the storage layout irrelevant to results: the scalar
/// [`FilterState`] methods and the batch kernel of [`crate::compiled`]
/// both borrow their operands as a `FilterView` and execute the *same*
/// floating-point code — the generic `*_at` methods, at runtime or
/// compile-time widths — so a posterior is bit-identical no matter which
/// path, width instance or memory layout produced it.
///
/// Scratch buffers are passed in explicitly (a view owns nothing): ψ is
/// concept-sized, the class scratch is class-sized. Callers reuse them
/// across streams; a [`FilterState`] passes its own.
pub struct FilterView<'a> {
    /// Posterior `P_{t-1}(c)` after the last observed label.
    pub posterior: &'a mut [f64],
    /// Prior `Pₜ⁻(c)` for the current timestamp.
    pub prior: &'a mut [f64],
    /// Concept ids sorted by descending prior (the §III-C enumeration).
    pub order: &'a mut [u32],
    /// Marginal likelihood of the last absorbed label (Eq. 7 normalizer).
    pub last_likelihood: &'a mut f64,
}

impl FilterView<'_> {
    #[inline]
    fn check(&self, model: &HighOrderModel) {
        assert_eq!(
            self.posterior.len(),
            model.n_concepts(),
            "FilterState used with a different model than it was created for"
        );
    }

    /// Advance one timestamp without a label (Eq. 5 against `model`'s χ).
    pub fn advance(&mut self, model: &HighOrderModel) {
        self.check(model);
        self.advance_at(model.n_concepts(), model.stats());
    }

    /// Advance `k` timestamps at once (the variable-rate adaptation of
    /// §III-B).
    pub fn advance_by(&mut self, model: &HighOrderModel, k: usize) {
        for _ in 0..k {
            self.advance(model);
        }
    }

    /// Absorb a labeled record the scalar way: ψ(c, yₜ) once per concept
    /// (Eq. 8, one classifier prediction each) into the `psi` scratch,
    /// then the Eq. 7–9 update (`absorb_at`).
    pub fn absorb(&mut self, model: &HighOrderModel, x: &[f64], y: ClassId, psi: &mut [f64]) {
        self.check(model);
        let concepts = model.concepts();
        self.absorb_at(model.n_concepts(), psi, |c| concepts[c].psi(x, y));
    }

    /// The full labeled-record lifecycle: [`Self::absorb`] then the
    /// prior roll against `model`'s χ.
    pub fn observe(&mut self, model: &HighOrderModel, x: &[f64], y: ClassId, psi: &mut [f64]) {
        self.absorb(model, x, y, psi);
        self.roll_prior_at(model.n_concepts(), model.stats());
    }

    /// Re-sort the §III-C enumeration order by descending prior.
    pub fn resort(&mut self) {
        self.resort_at(self.order.len());
    }

    /// Class-probability prediction for an unlabeled record (Eq. 10):
    /// `Highorder(l|x) = Σ_c Pₜ⁻(c)·M_c(l|x)`. `out` holds one entry per
    /// class; `classes` is class-sized scratch for the per-concept rows.
    ///
    /// # Panics
    ///
    /// If `out` is not exactly `model`'s class count long.
    pub fn predict_proba(
        &self,
        model: &HighOrderModel,
        x: &[f64],
        out: &mut [f64],
        classes: &mut [f64],
    ) {
        self.check(model);
        let (k, c) = (model.n_concepts(), model.schema().n_classes());
        assert_eq!(
            out.len(),
            c,
            "predict_proba: `out` has {} entries, the model has {c} classes",
            out.len()
        );
        let mut rows = ClassifierRows { model, x, classes };
        self.ensemble_at(k, c, &mut rows, out);
    }

    /// Unique-class prediction (Eq. 11): the argmax of Eq. 10.
    pub fn predict(&self, model: &HighOrderModel, x: &[f64], classes: &mut [f64]) -> ClassId {
        self.check(model);
        let (k, c) = (model.n_concepts(), model.schema().n_classes());
        let mut scores = vec![0.0; c];
        let mut rows = ClassifierRows { model, x, classes };
        self.predict_at(k, c, &mut rows, &mut scores)
    }

    /// The §III-C early-terminated enumeration; returns the prediction and
    /// how many concept classifiers were consulted before the margin test
    /// terminated it. Identical to [`Self::predict`] in result, usually
    /// much cheaper.
    pub fn predict_pruned(
        &self,
        model: &HighOrderModel,
        x: &[f64],
        classes: &mut [f64],
    ) -> (ClassId, usize) {
        self.check(model);
        let (k, c) = (model.n_concepts(), model.schema().n_classes());
        let mut scores = vec![0.0; c];
        let mut rows = ClassifierRows { model, x, classes };
        self.predict_pruned_at(k, c, &mut rows, &mut scores)
    }
}

/// A width of the §III update core — the concept count `K` or the class
/// count `C` — either a compile-time constant ([`Fixed`]) or a runtime
/// `usize`.
///
/// The core ([`FilterView`]'s `*_at` methods, `TransitionStats::advance_at`)
/// is written once against `Width`. Instantiated at `Fixed` widths its
/// loops have constant trip counts, so the compiler unrolls them and
/// drops the per-element bounds checks; instantiated at `usize` it is the
/// general form. Either way it is the same source, evaluating the same
/// floating-point expressions in the same order, so every instance
/// produces the same bits.
pub trait Width: Copy {
    /// The width's value.
    fn get(self) -> usize;
}

/// A width fixed at compile time (see [`Width`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fixed<const N: usize>;

impl<const N: usize> Width for Fixed<N> {
    #[inline(always)]
    fn get(self) -> usize {
        N
    }
}

impl Width for usize {
    #[inline(always)]
    fn get(self) -> usize {
        self
    }
}

/// The source of the Eq. 10 rows `M_c(l|x)` for one record: the
/// classifiers themselves on the scalar path, the compiled kernel's
/// batch table (or its `Dyn` fallback) on the serving path.
pub(crate) trait Rows {
    /// Concept `c`'s class-probability row (at least `C` entries).
    fn row(&mut self, c: usize) -> &[f64];
}

/// Rows straight from the model's classifiers, one `predict_proba` per
/// consulted concept into a class-sized buffer — the scalar path.
struct ClassifierRows<'r> {
    model: &'r HighOrderModel,
    x: &'r [f64],
    classes: &'r mut [f64],
}

impl Rows for ClassifierRows<'_> {
    fn row(&mut self, c: usize) -> &[f64] {
        self.model.concepts()[c]
            .model
            .predict_proba(self.x, self.classes);
        self.classes
    }
}

/// The §III update core, generic over the concept count `K` and the
/// class count `C` ([`Width`]). Every filter update in the workspace runs
/// through these methods: the scalar [`FilterState`] path at runtime
/// widths, the compiled serving kernel at the widths its model was
/// compiled for. Views must be `K` concepts wide.
impl FilterView<'_> {
    /// Eq. 10 into `scores[..C]`: `Σ_c Pₜ⁻(c)·M_c(l|x)`, accumulated in
    /// concept-id order, skipping concepts with zero prior.
    #[inline]
    pub(crate) fn ensemble_at<K: Width, C: Width>(
        &self,
        k: K,
        c: C,
        rows: &mut impl Rows,
        scores: &mut [f64],
    ) {
        let c = c.get();
        let scores = &mut scores[..c];
        scores.fill(0.0);
        for (ci, &p) in self.prior[..k.get()].iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            add_scaled(scores, p, &rows.row(ci)[..c]);
        }
    }

    /// Eq. 11: the argmax of [`Self::ensemble_at`].
    #[inline]
    pub(crate) fn predict_at<K: Width, C: Width>(
        &self,
        k: K,
        c: C,
        rows: &mut impl Rows,
        scores: &mut [f64],
    ) -> ClassId {
        self.ensemble_at(k, c, rows, scores);
        argmax(&scores[..c.get()]) as ClassId
    }

    /// The §III-C early-terminated enumeration: concepts in descending
    /// prior order, stopping once the leader's margin exceeds the
    /// remaining probability mass. Returns the prediction and how many
    /// concepts were consulted.
    #[inline]
    pub(crate) fn predict_pruned_at<K: Width, C: Width>(
        &self,
        k: K,
        c: C,
        rows: &mut impl Rows,
        scores: &mut [f64],
    ) -> (ClassId, usize) {
        let (k, c) = (k.get(), c.get());
        let prior = &self.prior[..k];
        let scores = &mut scores[..c];
        scores.fill(0.0);
        // Remaining probability mass after each prefix of the enumeration.
        let mut remaining: f64 = prior.iter().sum();
        for (rank, &ci) in self.order[..k].iter().enumerate() {
            let p = prior[ci as usize];
            remaining -= p;
            if p > 0.0 {
                add_scaled(scores, p, &rows.row(ci as usize)[..c]);
            }
            // A remaining concept can add at most `remaining` to any one
            // class; if the leader's margin exceeds that, the answer is
            // decided (§III-C).
            let (best, best_v, runner_up) = leader_and_runner_up(scores);
            if best_v - runner_up > remaining {
                return (best as ClassId, rank + 1);
            }
        }
        (argmax(scores) as ClassId, k)
    }

    /// The Eq. 7–9 posterior update: ψ(c, yₜ) from `psi_of` into
    /// `psi[..K]` (Eq. 8), the normalizer `Σ_c Pₜ⁻(c)·ψ(c, yₜ)` exported
    /// as the last likelihood, and `posterior ∝ prior · ψ` — or the
    /// uniform reset when no concept has mass left.
    #[inline]
    pub(crate) fn absorb_at<K: Width>(
        &mut self,
        k: K,
        psi: &mut [f64],
        mut psi_of: impl FnMut(usize) -> f64,
    ) {
        let k = k.get();
        let psi = &mut psi[..k];
        for (c, slot) in psi.iter_mut().enumerate() {
            *slot = psi_of(c);
        }
        let prior = &self.prior[..k];
        let mut sum = 0.0;
        for (p, psi) in prior.iter().zip(psi.iter()) {
            sum += p * psi;
        }
        *self.last_likelihood = sum.max(0.0);
        let posterior = &mut self.posterior[..k];
        if sum <= 0.0 {
            // All concepts had zero probability mass (cannot happen with
            // clamped errors, but stay safe): reset to uniform.
            posterior.fill(1.0 / k as f64);
        } else {
            for ((q, p), psi) in posterior.iter_mut().zip(prior).zip(psi.iter()) {
                *q = p * psi / sum;
            }
        }
    }

    /// Roll the prior to the next timestamp after an absorb (the tail of
    /// Eq. 5: the posterior through χ, straight into the prior) and
    /// refresh the §III-C order.
    #[inline]
    pub(crate) fn roll_prior_at<K: Width>(&mut self, k: K, stats: &TransitionStats) {
        stats.advance_at(k, self.posterior, self.prior);
        self.resort_at(k);
    }

    /// Advance one timestamp without a label (Eq. 5), the posterior
    /// defaulting to the new prior until a label arrives.
    #[inline]
    pub(crate) fn advance_at<K: Width>(&mut self, k: K, stats: &TransitionStats) {
        stats.advance_at(k, self.posterior, self.prior);
        let n = k.get();
        self.posterior[..n].copy_from_slice(&self.prior[..n]);
        self.resort_at(k);
    }

    /// Re-sort the §III-C order by descending prior (`f64::total_cmp`).
    #[inline]
    pub(crate) fn resort_at<K: Width>(&mut self, k: K) {
        let k = k.get();
        let prior = &self.prior[..k];
        self.order[..k].sort_unstable_by(|&a, &b| prior[b as usize].total_cmp(&prior[a as usize]));
    }
}

/// `scores[l] += p · row[l]` — the one Eq. 10 accumulation.
#[inline(always)]
fn add_scaled(scores: &mut [f64], p: f64, row: &[f64]) {
    for (s, &v) in scores.iter_mut().zip(row) {
        *s += p * v;
    }
}

/// The §III-C margin-test operands in one pass over the score vector:
/// the leading class (same index as [`argmax`] — strict `>`, ties toward
/// the lower index), its score, and the best score among the *other*
/// classes. Equivalent to `argmax` followed by a max over the remaining
/// entries — it runs once per enumerated concept, so the fused form
/// matters on the serving hot path.
#[inline]
pub(crate) fn leader_and_runner_up(scores: &[f64]) -> (usize, f64, f64) {
    let mut best = 0usize;
    let mut best_v = f64::NEG_INFINITY;
    let mut runner_up = f64::NEG_INFINITY;
    for (i, &v) in scores.iter().enumerate() {
        if v > best_v {
            runner_up = best_v;
            best_v = v;
            best = i;
        } else if v > runner_up {
            // Covers ties with the leader too: a score equal to `best_v`
            // at a higher index is one of the "other" classes and is
            // exactly what the runner-up max would have picked.
            runner_up = v;
        }
    }
    (best, best_v, runner_up)
}

/// A point-in-time copy of one stream's observable filter quantities —
/// the payload of [`FilterState::introspect`]. Everything the paper
/// treats as the filter's running evidence in one owned struct: the
/// Eq. 7–9 distributions, the §III-C prune order, and the novelty
/// signals `hom-adapt` windows (marginal likelihood, normalized
/// posterior entropy).
#[derive(Debug, Clone, PartialEq)]
pub struct FilterIntrospection {
    /// Posterior `P_{t-1}(c)` after the last observed label.
    pub posterior: Vec<f64>,
    /// Prior `Pₜ⁻(c)` for the current timestamp.
    pub prior: Vec<f64>,
    /// Concept ids in descending order of active probability (the
    /// §III-C pruned-prediction enumeration order).
    pub order: Vec<u32>,
    /// The most likely current concept (argmax of the prior).
    pub current_concept: usize,
    /// Marginal likelihood of the last absorbed label (Eq. 7
    /// normalizer); `1.0` until a label is absorbed.
    pub last_likelihood: f64,
    /// Posterior Shannon entropy normalized to `[0, 1]`.
    pub posterior_entropy: f64,
}

/// The distribution-level core of [`FilterState::migrate`], shared with
/// the snapshot codec's migration-aware restore (which has parts but no
/// old-model `FilterState` to call the method on).
pub(crate) fn migrate_parts(
    model: &HighOrderModel,
    posterior: &[f64],
    prior: &[f64],
    order: &[u32],
) -> FilterState {
    let n_old = posterior.len();
    let n_new = model.n_concepts();
    assert!(
        n_new >= n_old,
        "cannot migrate a {n_old}-concept state into a {n_new}-concept model"
    );
    if n_new == n_old {
        return FilterState::from_parts(model, posterior.to_vec(), prior.to_vec(), order.to_vec());
    }
    let added: f64 = (n_old..n_new).map(|j| model.stats().freq(j)).sum();
    // Admitted concepts always have at least one occurrence, so
    // `added` is in (0, 1) and the old concepts keep positive mass.
    let keep = (1.0 - added).max(0.0);
    let extend = |p: &[f64]| -> Vec<f64> {
        let mut out: Vec<f64> = p.iter().map(|&v| v * keep).collect();
        out.extend((n_old..n_new).map(|j| model.stats().freq(j)));
        let sum: f64 = out.iter().sum();
        if sum > 0.0 {
            for v in &mut out {
                *v /= sum;
            }
        }
        out
    };
    let posterior = extend(posterior);
    let prior = extend(prior);
    // Rebuild the §III-C enumeration order over the grown space with
    // a deterministic tie-break (descending prior, then id).
    let mut order: Vec<u32> = (0..n_new as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        prior[b as usize]
            .total_cmp(&prior[a as usize])
            .then(a.cmp(&b))
    });
    FilterState::from_parts(model, posterior, prior, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transition::TransitionStats;
    use crate::Concept;
    use hom_classifiers::MajorityClassifier;
    use hom_data::{Attribute, Schema};
    use std::sync::Arc;

    fn toy_model() -> HighOrderModel {
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
        HighOrderModel::from_parts(schema, concepts, stats)
    }

    #[test]
    fn starts_uniform_and_concentrates() {
        let m = toy_model();
        let mut s = FilterState::new(&m);
        assert_eq!(s.prior(), &[0.5, 0.5]);
        for _ in 0..20 {
            s.observe(&m, &[0.0], 1);
        }
        assert_eq!(s.current_concept(), 1);
        assert!(s.posterior()[1] > 0.9);
        assert_eq!(s.predict(&m, &[0.0]), 1);
        assert_eq!(s.predict_pruned(&m, &[0.0]).0, 1);
    }

    #[test]
    #[should_panic(expected = "predict_proba: `out` has 3 entries, the model has 2 classes")]
    fn predict_proba_wants_one_entry_per_class() {
        let m = toy_model();
        FilterState::new(&m).predict_proba(&m, &[0.0], &mut [0.0; 3]);
    }

    #[test]
    fn clone_is_independent() {
        let m = toy_model();
        let mut a = FilterState::new(&m);
        for _ in 0..5 {
            a.observe(&m, &[0.0], 0);
        }
        let mut b = a.clone();
        b.observe(&m, &[0.0], 1);
        // the original is untouched by the clone's update
        assert_ne!(a.posterior()[0].to_bits(), b.posterior()[0].to_bits());
        let sum: f64 = a.posterior().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn absorb_then_roll_equals_observe() {
        let m = toy_model();
        let mut a = FilterState::new(&m);
        let mut b = FilterState::new(&m);
        for t in 0..30u32 {
            let y = t % 2;
            a.observe(&m, &[0.0], y);
            b.absorb(&m, &[0.0], y);
            b.roll_prior(&m);
            assert_eq!(a.posterior(), b.posterior());
            assert_eq!(a.prior(), b.prior());
            assert_eq!(a.order(), b.order());
        }
    }

    #[test]
    fn evidence_tracks_model_fit() {
        let m = toy_model();
        let mut s = FilterState::new(&m);
        assert_eq!(s.last_likelihood(), 1.0, "no label absorbed yet");
        // Labels concept 1's model explains: likelihood near 1 − err,
        // entropy collapsing toward 0.
        for _ in 0..20 {
            s.observe(&m, &[0.0], 1);
        }
        assert!(s.last_likelihood() > 0.85, "lik = {}", s.last_likelihood());
        assert!(s.posterior_entropy() < 0.1, "H = {}", s.posterior_entropy());
        assert_eq!(s.last_psi(), &[0.1, 0.9]);
        // A label neither constant classifier can track for long: the
        // likelihood of each single surprise collapses to ~err.
        s.observe(&m, &[0.0], 0);
        assert!(s.last_likelihood() < 0.3, "lik = {}", s.last_likelihood());
    }

    #[test]
    fn migrate_same_size_preserves_bits() {
        let m = toy_model();
        let mut s = FilterState::new(&m);
        for t in 0..15u32 {
            s.observe(&m, &[0.0], t % 2);
        }
        // a stats-only rebuild: same concepts, new occurrence totals
        let rebuilt = m.record_occurrence(0, 50);
        let migrated = s.migrate(&rebuilt);
        let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(migrated.posterior()), bits(s.posterior()));
        assert_eq!(bits(migrated.prior()), bits(s.prior()));
        assert_eq!(migrated.order(), s.order());
    }

    #[test]
    fn migrate_extends_with_stationary_frequency() {
        use hom_classifiers::MajorityClassifier;
        let m = toy_model();
        let mut s = FilterState::new(&m);
        for _ in 0..20 {
            s.observe(&m, &[0.0], 1);
        }
        let grown = m.admit_concept(Arc::new(MajorityClassifier::from_counts(&[5, 5])), 0.2, 100);
        let migrated = s.migrate(&grown);
        assert_eq!(migrated.n_concepts(), 3);
        // freq_2 = 1/3 of occurrences: the new concept gets that mass
        let f = grown.stats().freq(2);
        assert!((migrated.posterior()[2] - f).abs() < 1e-12);
        // old concepts keep their relative weights
        let old_ratio = s.posterior()[1] / s.posterior()[0];
        let new_ratio = migrated.posterior()[1] / migrated.posterior()[0];
        assert!((old_ratio - new_ratio).abs() < 1e-6);
        // both distributions are normalized and the order is a
        // descending-prior permutation
        for p in [migrated.posterior(), migrated.prior()] {
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        for w in migrated.order().windows(2) {
            assert!(
                migrated.prior()[w[0] as usize] >= migrated.prior()[w[1] as usize],
                "order not descending"
            );
        }
        // and the migrated state is usable against the new model
        let mut migrated = migrated;
        migrated.observe(&grown, &[0.0], 1);
        let sum: f64 = migrated.posterior().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot migrate")]
    fn migrate_rejects_shrinking() {
        let m = toy_model();
        let schema = Schema::new(vec![Attribute::numeric("x")], ["a", "b"]);
        let one = HighOrderModel::from_parts(
            schema,
            vec![Concept {
                id: 0,
                model: Arc::new(MajorityClassifier::from_counts(&[1, 0])),
                err: 0.1,
                n_records: 1,
                n_occurrences: 1,
            }],
            TransitionStats::from_occurrences(1, &[(0, 10)]),
        );
        FilterState::new(&m).migrate(&one);
    }

    #[test]
    #[should_panic(expected = "different model")]
    fn rejects_wrong_model() {
        let m = toy_model();
        let schema = Schema::new(vec![Attribute::numeric("x")], ["a", "b"]);
        let one = HighOrderModel::from_parts(
            schema,
            vec![Concept {
                id: 0,
                model: Arc::new(MajorityClassifier::from_counts(&[1, 0])),
                err: 0.1,
                n_records: 1,
                n_occurrences: 1,
            }],
            TransitionStats::from_occurrences(1, &[(0, 10)]),
        );
        let mut s = FilterState::new(&m);
        s.advance(&one);
    }
}
