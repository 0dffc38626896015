//! The batch-vectorized filter hot path: a [`CompiledModel`] plus the
//! shared-record kernel it evaluates batches with.
//!
//! # Why a compiled form exists
//!
//! The scalar [`FilterState`](crate::FilterState) path — what
//! `OnlinePredictor` runs per stream — re-walks the same
//! [`HighOrderModel`] for every record
//! of every stream: each `ψ(c, yₜ)` (Eq. 8) is a virtual call into a
//! pointer-chasing tree, and each `M_c(l|x)` row (Eq. 10) is a Laplace
//! computation repeated per call. When a serving engine drives thousands
//! of streams over the *same* few distinct records per batch, almost all
//! of that work is redundant. Compiling the mined model once per model
//! epoch fixes both costs:
//!
//! * every tree classifier is flattened to a [`FlatTree`] (one array of
//!   node structs, precomputed probability rows — see
//!   `hom_classifiers::flat`);
//! * the per-concept ψ outcomes `1 − Err_c` / `Err_c` (Eq. 8, with the
//!   build-time clamp already applied to `Err_c`) are laid out in two
//!   linear arrays indexed by concept;
//! * the transition kernel χ (Eq. 6) is carried as its row-major matrix,
//!   scanned linearly by the Eq. 5 advance.
//!
//! A batch then makes **one pass over the concept set**: for each
//! concept, every *distinct* record in the batch is pushed through the
//! flat tree exactly once ([`CompiledModel::evaluate`]), eight records
//! at a time in lockstep ([`FlatTree::descend_lanes`]) so their
//! independent walks overlap, and the per-stream updates afterwards are
//! pure array arithmetic against the resulting [`BatchTable`] — no
//! classifier runs per stream.
//!
//! # Widths: one core, compiled per concept and class count
//!
//! The per-stream updates are the §III core on [`FilterView`] — the
//! Eq. 10/11 predictions (pruned and full), the Eq. 7–9 absorb, the
//! Eq. 5 roll and the §III-C resort — written once, generic over the
//! concept count `K` and the class count `C` ([`Width`]). The paper's
//! models are narrow (2–16 concepts over a handful of classes), and at
//! those widths runtime-length loops cost more than the arithmetic in
//! them. So [`CompiledModel::dispatch`] runs a caller's loop
//! ([`KernelTask`]) in the [`Kernel`] instance for the model's own
//! widths: `K` is a compile-time [`Fixed`] for 1..=16 concepts, `C` is
//! `Fixed<2>` for binary models, and either is a runtime `usize`
//! otherwise (anything wider than 16 concepts runs the runtime instance
//! of the same source). The instance follows the compiled epoch — a
//! swap that admits a concept recompiles, and the next batch dispatches
//! to the new width. There is no option, environment variable or `cfg`
//! behind the choice; the engine picks once per batch task, never per
//! request.
//!
//! # Bit-identity contract
//!
//! Every kernel operation produces **bit-identical** `f64` state to its
//! scalar [`FilterState`](crate::FilterState) counterpart, because the
//! floating-point core is the *same code*: the kernel and the scalar
//! path are both thin callers of [`FilterView`]'s generic `*_at`
//! methods, differing only in where the inputs come from — the kernel
//! supplies the Eq. 10 rows from its batch table, ψ from its
//! hit/miss tables and χ from its clone of the model's
//! [`TransitionStats`]; the scalar path asks the classifiers. A `Fixed`
//! width only fixes loop trip counts; it evaluates the same expressions
//! in the same order as the runtime instance. That is what lets
//! `hom-serve` serve every request through the kernel (at any batch
//! size, shard count, thread count or width instance) while matching a
//! dedicated `FilterState` per stream bit for bit — the differential
//! suites in `hom-serve/tests` enforce this.
//!
//! Classifiers with no flat form (e.g. naive Bayes) fall back to dynamic
//! dispatch inside the same kernel instance, still amortized per
//! distinct record.

use std::sync::Arc;

use hom_classifiers::flat::LANES;
use hom_classifiers::{Classifier, FlatTree};
use hom_data::ClassId;

use crate::build::HighOrderModel;
use crate::filter::{FilterView, Fixed, Rows, Width};
use crate::transition::TransitionStats;

/// How one concept's classifier is evaluated by the kernel.
enum ConceptEval {
    /// Flattened to a node array: descended [`LANES`] records at a time,
    /// probability rows read straight out of the row arena.
    Flat(FlatTree),
    /// No flat form; the kernel calls the trained model through the
    /// trait object (still once per distinct record, not per stream).
    Dyn(Arc<dyn Classifier>),
}

/// A [`HighOrderModel`] compiled into its flattened evaluation form.
///
/// Built once per model epoch ([`CompiledModel::compile`]) and shared
/// read-only by every serving thread; a hot-swap to a new model simply
/// compiles the new model and drops this one. Holds no per-stream state.
pub struct CompiledModel {
    n_concepts: usize,
    n_classes: usize,
    /// Per-concept evaluators, indexed by concept id.
    evals: Vec<ConceptEval>,
    /// `ψ(c, yₜ)` when concept `c`'s classifier predicts `yₜ` correctly:
    /// `1 − Err_c` (Eq. 8), precomputed per concept.
    hit: Vec<f64>,
    /// `ψ(c, yₜ)` on a miss: `Err_c` (Eq. 8).
    miss: Vec<f64>,
    /// The transition kernel χ (Eq. 6), row-major — a clone of the
    /// model's stats, so the Eq. 5 advance runs the identical matrix.
    stats: TransitionStats,
    /// How many concepts compiled to flat form (the rest are `Dyn`).
    n_flat: usize,
}

impl CompiledModel {
    /// Flatten `model` into its batch-evaluation form. Classifiers that
    /// support it ([`Classifier::flatten`]) become [`FlatTree`]s; the
    /// rest keep their trait object.
    pub fn compile(model: &HighOrderModel) -> Self {
        let n_concepts = model.n_concepts();
        let n_classes = model.schema().n_classes();
        let mut evals = Vec::with_capacity(n_concepts);
        let mut hit = Vec::with_capacity(n_concepts);
        let mut miss = Vec::with_capacity(n_concepts);
        let mut n_flat = 0;
        for concept in model.concepts() {
            // A flat row is read as-is, so it must be one entry per class.
            evals.push(match concept.model.flatten() {
                Some(flat) if flat.n_classes() == n_classes => {
                    n_flat += 1;
                    ConceptEval::Flat(flat)
                }
                _ => ConceptEval::Dyn(Arc::clone(&concept.model)),
            });
            // The ψ values `Concept::psi` picks between per record
            // (Eq. 8), tabulated at compile time.
            let (h, m) = concept.psi_outcomes();
            hit.push(h);
            miss.push(m);
        }
        CompiledModel {
            n_concepts,
            n_classes,
            evals,
            hit,
            miss,
            stats: model.stats().clone(),
            n_flat,
        }
    }

    /// Number of concepts in the compiled model.
    pub fn n_concepts(&self) -> usize {
        self.n_concepts
    }

    /// Number of classes the concept classifiers predict over.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// How many concepts compiled to a flat tree (the remainder run
    /// through dynamic dispatch inside the kernel).
    pub fn n_flattened(&self) -> usize {
        self.n_flat
    }

    /// The concept-outer evaluation pass: push every distinct record of
    /// the batch through every concept's classifier exactly once,
    /// filling the table's `(record, concept)` node/class entries. This
    /// is where ψ's classifier work (Eq. 8) and the tree descents behind
    /// `M_c(l|x)` (Eq. 10) are amortized across all streams that share a
    /// record. Flat trees take the records in chunks of [`LANES`]
    /// ([`FlatTree::descend_lanes`]).
    pub fn evaluate(&self, table: &mut BatchTable<'_>) {
        let n = self.n_concepts;
        let n_records = table.xs.len();
        table.node.clear();
        table.node.resize(n_records * n, u32::MAX);
        table.class.clear();
        table.class.resize(n_records * n, u32::MAX);
        for (c, eval) in self.evals.iter().enumerate() {
            match eval {
                ConceptEval::Flat(tree) => {
                    for (k, chunk) in table.xs.chunks(LANES).enumerate() {
                        // A short last chunk repeats its own last record
                        // in the empty lanes; their results are dropped.
                        let last = chunk.len() - 1;
                        let lanes = std::array::from_fn(|i| chunk[i.min(last)]);
                        let nodes = tree.descend_lanes(&lanes);
                        for (i, &node) in nodes[..chunk.len()].iter().enumerate() {
                            let at = (k * LANES + i) * n + c;
                            table.node[at] = node;
                            table.class[at] = tree.node_class(node);
                        }
                    }
                }
                ConceptEval::Dyn(model) => {
                    // A dyn predict is as costly as the scalar path's, so
                    // only records some request will absorb (ψ needs the
                    // predicted class) pay for it; prediction rows are
                    // computed lazily at use.
                    for (r, &x) in table.xs.iter().enumerate() {
                        if table.need_class[r] {
                            table.class[r * n + c] = model.predict(x);
                        }
                    }
                }
            }
        }
    }

    /// Concept `c`'s class-probability row `M_c(l|x)` (Eq. 10) for the
    /// interned record `rec` — a borrow from the flat tree's arena, or a
    /// lazy dyn evaluation into `dyn_row`. `k` is the concept count.
    #[inline]
    fn row<'r, K: Width>(
        &'r self,
        k: K,
        table: &'r BatchTable<'_>,
        rec: u32,
        c: usize,
        dyn_row: &'r mut [f64],
    ) -> &'r [f64] {
        match &self.evals[c] {
            ConceptEval::Flat(tree) => tree.proba_row(table.node[rec as usize * k.get() + c]),
            ConceptEval::Dyn(model) => {
                model.predict_proba(table.xs[rec as usize], dyn_row);
                dyn_row
            }
        }
    }

    /// The kernel at runtime widths: the same source as every
    /// [`Self::dispatch`] instance, for one-off calls. A serving loop
    /// takes the width-specialised instance through `dispatch` instead.
    pub fn runtime(&self) -> Kernel<'_, usize, usize> {
        Kernel {
            model: self,
            k: self.n_concepts,
            c: self.n_classes,
        }
    }

    /// Run `task` against the kernel instance for this model's widths:
    /// `Fixed` concept counts 1..=16 (a `Fixed<2>` class count for
    /// binary models, a runtime one otherwise), and the runtime instance
    /// of the same source for anything wider. One `match` per call, so a
    /// caller dispatches once per batch task, not per request.
    pub fn dispatch<T: KernelTask>(&self, task: T) -> T::Output {
        macro_rules! instances {
            ($($k:literal)*) => {
                match (self.n_concepts, self.n_classes) {
                    $(
                        ($k, 2) => task.run(Kernel { model: self, k: Fixed::<$k>, c: Fixed::<2> }),
                        ($k, c) => task.run(Kernel { model: self, k: Fixed::<$k>, c }),
                    )*
                    (k, c) => task.run(Kernel { model: self, k, c }),
                }
            };
        }
        instances!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
    }
}

/// A computation over the kernel at whatever widths the model has — the
/// generic-closure form [`CompiledModel::dispatch`] takes, so the caller's
/// whole loop is compiled once per instance.
pub trait KernelTask {
    /// What the task returns.
    type Output;
    /// Run against the kernel instance picked for the model.
    fn run<K: Width, C: Width>(self, kernel: Kernel<'_, K, C>) -> Self::Output;
}

/// A [`CompiledModel`] bound to its concept count `K` and class count `C`
/// ([`Width`]): the per-stream operations, each a thin caller of the
/// [`FilterView`] core with rows, ψ and χ supplied by the compiled model.
/// Obtained from [`CompiledModel::dispatch`] (or, at runtime widths,
/// [`CompiledModel::runtime`]).
#[derive(Clone, Copy)]
pub struct Kernel<'m, K: Width, C: Width> {
    model: &'m CompiledModel,
    k: K,
    c: C,
}

/// The Eq. 10 rows of one interned record, read from the batch table.
struct TableRows<'r, 't, K: Width> {
    model: &'r CompiledModel,
    k: K,
    table: &'r BatchTable<'t>,
    rec: u32,
    dyn_row: &'r mut [f64],
}

impl<K: Width> Rows for TableRows<'_, '_, K> {
    #[inline]
    fn row(&mut self, c: usize) -> &[f64] {
        self.model
            .row(self.k, self.table, self.rec, c, self.dyn_row)
    }
}

impl<K: Width, C: Width> Kernel<'_, K, C> {
    /// The compiled model this kernel runs.
    pub fn model(&self) -> &CompiledModel {
        self.model
    }

    #[inline]
    fn check(&self, f: &FilterView<'_>) {
        assert_eq!(
            f.posterior.len(),
            self.k.get(),
            "FilterState used with a different model than it was created for"
        );
    }

    /// The full-ensemble prediction (Eqs. 10–11):
    /// `argmax_l Σ_c Pₜ⁻(c)·M_c(l|x)` (`FilterView::predict_at`).
    #[inline]
    pub fn predict(
        &self,
        f: &FilterView<'_>,
        table: &BatchTable<'_>,
        rec: u32,
        scratch: &mut KernelScratch,
    ) -> ClassId {
        self.check(f);
        let KernelScratch {
            scores, dyn_row, ..
        } = scratch;
        let mut rows = TableRows {
            model: self.model,
            k: self.k,
            table,
            rec,
            dyn_row,
        };
        f.predict_at(self.k, self.c, &mut rows, scores)
    }

    /// The §III-C early-terminated prediction
    /// (`FilterView::predict_pruned_at`): the prediction and how many
    /// concepts were consulted.
    #[inline]
    pub fn predict_pruned(
        &self,
        f: &FilterView<'_>,
        table: &BatchTable<'_>,
        rec: u32,
        scratch: &mut KernelScratch,
    ) -> (ClassId, usize) {
        self.check(f);
        let KernelScratch {
            scores, dyn_row, ..
        } = scratch;
        let mut rows = TableRows {
            model: self.model,
            k: self.k,
            table,
            rec,
            dyn_row,
        };
        f.predict_pruned_at(self.k, self.c, &mut rows, scores)
    }

    /// Absorb a labeled record (Eqs. 7–9, `FilterView::absorb_at`) with
    /// ψ from the hit/miss tables: `1 − Err_c` when the table's predicted
    /// class for `(rec, c)` equals `y`, else `Err_c` (Eq. 8).
    #[inline]
    pub fn absorb(
        &self,
        f: &mut FilterView<'_>,
        table: &BatchTable<'_>,
        rec: u32,
        y: ClassId,
        scratch: &mut KernelScratch,
    ) {
        self.check(f);
        debug_assert!(
            table.need_class[rec as usize],
            "record was interned without need_class but is being absorbed"
        );
        let n = self.k.get();
        let base = rec as usize * n;
        let classes = &table.class[base..base + n];
        let (hit, miss) = (&self.model.hit[..n], &self.model.miss[..n]);
        f.absorb_at(self.k, &mut scratch.psi, |c| {
            if classes[c] == y {
                hit[c]
            } else {
                miss[c]
            }
        });
    }

    /// Roll the prior to the next timestamp after an absorb (the tail of
    /// Eq. 5) and refresh the §III-C order (`FilterView::roll_prior_at`).
    #[inline]
    pub fn roll_prior(&self, f: &mut FilterView<'_>) {
        self.check(f);
        f.roll_prior_at(self.k, &self.model.stats);
    }

    /// Advance one timestamp without a label (Eq. 5), posterior
    /// defaulting to the prior (`FilterView::advance_at`).
    #[inline]
    pub fn advance(&self, f: &mut FilterView<'_>) {
        self.check(f);
        f.advance_at(self.k, &self.model.stats);
    }

    /// Advance `k` timestamps at once (the variable-rate adaptation of
    /// §III-B).
    pub fn advance_by(&self, f: &mut FilterView<'_>, k: usize) {
        for _ in 0..k {
            self.advance(f);
        }
    }

    /// The full labeled-record lifecycle against the table:
    /// [`Self::absorb`] then [`Self::roll_prior`].
    #[inline]
    pub fn observe(
        &self,
        f: &mut FilterView<'_>,
        table: &BatchTable<'_>,
        rec: u32,
        y: ClassId,
        scratch: &mut KernelScratch,
    ) {
        self.absorb(f, table, rec, y, scratch);
        self.roll_prior(f);
    }
}

/// The per-batch table of distinct records and their per-concept
/// evaluation results.
///
/// Callers intern each request's record ([`BatchTable::intern`] —
/// duplicates collapse onto one slot), run one
/// [`CompiledModel::evaluate`] pass, then apply per-stream updates that
/// read the table. Borrows the records, so a table lives only as long as
/// the batch it was built from.
pub struct BatchTable<'a> {
    /// Distinct records, in first-appearance order.
    xs: Vec<&'a [f64]>,
    /// Whether any request absorbs this record (ψ needs its predicted
    /// class; predict-only records skip eager dyn predicts).
    need_class: Vec<bool>,
    /// [`hash_record`] value per distinct record (kept for rehashing on
    /// growth).
    hashes: Vec<u64>,
    /// Open-addressing dedup slots: `(hash, record_index)`,
    /// `u32::MAX` = empty. Power-of-two capacity, grown at 50% load.
    slots: Vec<(u64, u32)>,
    /// `slots.len() - 1`, the probe mask.
    mask: usize,
    /// Flat-tree node reached per `(record, concept)`, row-major by
    /// record; `u32::MAX` for dyn concepts. Filled by `evaluate`.
    node: Vec<u32>,
    /// Predicted class per `(record, concept)`; `u32::MAX` where it was
    /// not needed. Filled by `evaluate`.
    class: Vec<u32>,
    /// Total [`BatchTable::intern`] calls (including duplicates) — the
    /// numerator of the batch's dedup ratio; [`Self::n_records`] is the
    /// denominator.
    interned: u64,
}

/// Word-at-a-time multiplicative mix over the record's f64 bit patterns
/// (one rotate–xor–multiply per attribute, in the style of FxHash) —
/// deterministic, seedless, and collision-checked against the stored
/// record before dedup, so a collision can never merge two different
/// records. Hash quality only affects probe length, never correctness.
fn hash_record(x: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in x {
        h = (h.rotate_left(5) ^ v.to_bits()).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    h
}

impl<'a> BatchTable<'a> {
    /// A table expecting up to `expected` interns (more still work: the
    /// probe table rehashes into double the capacity whenever it reaches
    /// 50% load).
    pub fn with_capacity(expected: usize) -> Self {
        let slots = (2 * expected.max(1)).next_power_of_two();
        BatchTable {
            xs: Vec::with_capacity(expected),
            need_class: Vec::with_capacity(expected),
            hashes: Vec::with_capacity(expected),
            slots: vec![(0, u32::MAX); slots],
            mask: slots - 1,
            node: Vec::new(),
            class: Vec::new(),
            interned: 0,
        }
    }

    /// Intern `x`, returning its record index: a previous index if an
    /// identical record (same length, same f64 bits) was already
    /// interned, a fresh one otherwise. `need_class` is OR-ed into the
    /// record's flag.
    pub fn intern(&mut self, x: &'a [f64], need_class: bool) -> u32 {
        self.interned += 1;
        if 2 * self.xs.len() >= self.slots.len() {
            self.grow();
        }
        let hash = hash_record(x);
        let mut at = hash as usize & self.mask;
        loop {
            let (slot_hash, rec) = self.slots[at];
            if rec == u32::MAX {
                let rec = self.xs.len() as u32;
                self.slots[at] = (hash, rec);
                self.xs.push(x);
                self.need_class.push(need_class);
                self.hashes.push(hash);
                return rec;
            }
            // Equal hash alone is not enough: compare the records
            // bitwise. A true collision keeps probing and gets its own
            // slot — dedup is an optimization, never a correctness risk.
            if slot_hash == hash && bits_equal(self.xs[rec as usize], x) {
                self.need_class[rec as usize] |= need_class;
                return rec;
            }
            at = (at + 1) & self.mask;
        }
    }

    /// Double the probe table and re-seat every record.
    fn grow(&mut self) {
        let slots = self.slots.len() * 2;
        self.slots = vec![(0, u32::MAX); slots];
        self.mask = slots - 1;
        for (rec, &hash) in self.hashes.iter().enumerate() {
            let mut at = hash as usize & self.mask;
            while self.slots[at].1 != u32::MAX {
                at = (at + 1) & self.mask;
            }
            self.slots[at] = (hash, rec as u32);
        }
    }

    /// Number of distinct records interned so far.
    pub fn n_records(&self) -> usize {
        self.xs.len()
    }

    /// Total [`Self::intern`] calls, duplicates included. The batch's
    /// dedup ratio is `n_interned / n_records` — how many stream
    /// requests each concept-outer evaluation was amortized across.
    pub fn n_interned(&self) -> u64 {
        self.interned
    }
}

/// Exact f64-bit equality of two records (NaN-safe: two NaNs with equal
/// bits compare equal, which is precisely what dedup wants).
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Reusable per-worker scratch for the kernel — the score accumulator of
/// Eqs. 10–11, a row buffer for concepts that evaluate through dynamic
/// dispatch, and the concept-sized ψ buffer the posterior update borrows
/// (a [`FilterView`] owns no scratch of its own).
pub struct KernelScratch {
    /// Per-class score accumulator.
    scores: Vec<f64>,
    /// Row buffer for `Dyn` concept evaluations.
    dyn_row: Vec<f64>,
    /// ψ(c, yₜ) per concept for the record being absorbed (Eq. 8).
    psi: Vec<f64>,
}

impl KernelScratch {
    /// Scratch sized for `model`'s concept and class counts.
    pub fn new(model: &CompiledModel) -> Self {
        KernelScratch {
            scores: vec![0.0; model.n_classes],
            dyn_row: vec![0.0; model.n_classes],
            psi: vec![0.0; model.n_concepts],
        }
    }
}

/// Batch-amortized kernel telemetry: everything one processing task
/// learned about its slice of a batch, accumulated with plain adds and
/// folded upward once per batch — never one clock read or atomic per
/// stream-record.
///
/// The accumulator is deliberately *derivable on both kernel paths*:
/// the scalar loop and the compiled kernel bump the same fields from
/// the same logical events (a prediction served, a record absorbed, a
/// §III-C early termination), so a fully-instrumented compiled run and
/// an uninstrumented scalar run can be compared counter-for-counter —
/// the differential property `hom-serve/tests/obs_differential.rs`
/// enforces. Stage durations (`*_ns`) are the only fields exclusive to
/// whoever actually timed a stage, and they are measured per *task*,
/// so per-record costs fall out by division.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchStats {
    /// Requests processed (every request kind).
    pub requests: u64,
    /// [`BatchTable::intern`] calls (compiled path; equals the number of
    /// records the task pushed through the dedup table).
    pub interned: u64,
    /// Distinct records after dedup (the kernel evaluated each once).
    pub distinct: u64,
    /// Predictions served (`Predict` + `Step` requests).
    pub predicted: u64,
    /// Labeled records absorbed (`Observe` + `Step` requests).
    pub observed: u64,
    /// Predictions the §III-C pruning terminated early (consulted fewer
    /// than all concepts).
    pub pruned: u64,
    /// Total concepts consulted across pruned predictions — the
    /// prune-depth numerator (`consulted / predicted` = mean depth).
    pub consulted: u64,
    /// Σ of Eq. 7 likelihoods `P(yₜ | y₁..yₜ₋₁)` over absorbed records —
    /// the fleet-evidence numerator (`likelihood / observed` = mean).
    pub likelihood: f64,
    /// Wall-clock spent interning + resolving records, per task.
    pub intern_ns: u64,
    /// Wall-clock spent in [`CompiledModel::evaluate`] (the
    /// concept-outer classifier pass), per task.
    pub evaluate_ns: u64,
    /// Wall-clock spent applying per-stream updates (absorb / advance /
    /// predict array passes), per task.
    pub apply_ns: u64,
    /// Per-concept MAP hits: after each absorb+roll, the concept with
    /// the largest prior (the stream's current MAP concept) gets one
    /// hit. Indexed by concept id; length is the model's concept count
    /// (empty until the first absorb when constructed via `default`).
    pub map_hits: Vec<u64>,
}

impl BatchStats {
    /// An empty accumulator with `map_hits` sized for `n_concepts`.
    pub fn new(n_concepts: usize) -> Self {
        BatchStats {
            map_hits: vec![0; n_concepts],
            ..BatchStats::default()
        }
    }

    /// Record a MAP hit for `concept`, growing `map_hits` on demand (so
    /// a `default()`-constructed accumulator still counts correctly).
    #[inline]
    pub fn map_hit(&mut self, concept: usize) {
        if self.map_hits.len() <= concept {
            self.map_hits.resize(concept + 1, 0);
        }
        self.map_hits[concept] += 1;
    }

    /// Fold another task's accumulator into this one (element-wise adds;
    /// `map_hits` grows to the longer of the two).
    pub fn merge(&mut self, other: &BatchStats) {
        self.requests += other.requests;
        self.interned += other.interned;
        self.distinct += other.distinct;
        self.predicted += other.predicted;
        self.observed += other.observed;
        self.pruned += other.pruned;
        self.consulted += other.consulted;
        self.likelihood += other.likelihood;
        self.intern_ns += other.intern_ns;
        self.evaluate_ns += other.evaluate_ns;
        self.apply_ns += other.apply_ns;
        if self.map_hits.len() < other.map_hits.len() {
            self.map_hits.resize(other.map_hits.len(), 0);
        }
        for (a, &b) in self.map_hits.iter_mut().zip(other.map_hits.iter()) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, BuildParams};
    use crate::filter::FilterState;
    use hom_classifiers::DecisionTreeLearner;
    use hom_cluster::ClusterParams;
    use hom_data::stream::collect;
    use hom_data::{Attribute, Schema, StreamSource};
    use hom_datagen::{StaggerParams, StaggerSource};

    fn bits(p: &[f64]) -> Vec<u64> {
        p.iter().map(|v| v.to_bits()).collect()
    }

    fn stagger_model() -> (HighOrderModel, Vec<hom_data::StreamRecord>) {
        let mut src = StaggerSource::new(StaggerParams {
            lambda: 0.01,
            ..Default::default()
        });
        let (data, _) = collect(&mut src, 2000);
        let (model, _) = build(
            &data,
            &DecisionTreeLearner::new(),
            &BuildParams {
                cluster: ClusterParams {
                    block_size: 10,
                    seed: 5,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let test = (0..400).map(|_| src.next_record()).collect();
        (model, test)
    }

    /// Drive one stream through the scalar FilterState and the compiled
    /// kernel in lockstep: every posterior, prior, prediction and consult
    /// count must match to the bit.
    #[test]
    fn kernel_matches_scalar_filter_bit_for_bit() {
        let (model, test) = stagger_model();
        let compiled = CompiledModel::compile(&model);
        assert_eq!(compiled.n_flattened(), compiled.n_concepts());
        let mut scalar = FilterState::new(&model);
        let mut batched = FilterState::new(&model);
        let mut scratch = KernelScratch::new(&compiled);
        let kernel = compiled.runtime();
        for (t, r) in test.iter().enumerate() {
            let mut table = BatchTable::with_capacity(1);
            let rec = table.intern(&r.x, true);
            compiled.evaluate(&mut table);

            let want_full = scalar.predict(&model, &r.x);
            let got_full = kernel.predict(&batched.as_view(), &table, rec, &mut scratch);
            assert_eq!(got_full, want_full, "full predict diverged at t = {t}");

            let want = scalar.predict_pruned(&model, &r.x);
            let got = kernel.predict_pruned(&batched.as_view(), &table, rec, &mut scratch);
            assert_eq!(got, want, "pruned predict diverged at t = {t}");

            scalar.observe(&model, &r.x, r.y);
            kernel.observe(&mut batched.as_view(), &table, rec, r.y, &mut scratch);
            assert_eq!(
                bits(scalar.posterior()),
                bits(batched.posterior()),
                "posterior diverged at t = {t}"
            );
            assert_eq!(bits(scalar.prior()), bits(batched.prior()));
            assert_eq!(scalar.order(), batched.order());
            assert_eq!(
                scalar.last_likelihood().to_bits(),
                batched.last_likelihood().to_bits()
            );
        }
    }

    #[test]
    fn advance_matches_scalar() {
        let (model, test) = stagger_model();
        let compiled = CompiledModel::compile(&model);
        let mut scalar = FilterState::new(&model);
        let mut batched = FilterState::new(&model);
        let mut scratch = KernelScratch::new(&compiled);
        let kernel = compiled.runtime();
        let mut table = BatchTable::with_capacity(1);
        let rec = table.intern(&test[0].x, true);
        compiled.evaluate(&mut table);
        scalar.observe(&model, &test[0].x, test[0].y);
        kernel.observe(&mut batched.as_view(), &table, rec, test[0].y, &mut scratch);
        scalar.advance_by(&model, 3);
        kernel.advance_by(&mut batched.as_view(), 3);
        assert_eq!(bits(scalar.posterior()), bits(batched.posterior()));
        assert_eq!(bits(scalar.prior()), bits(batched.prior()));
        assert_eq!(scalar.order(), batched.order());
    }

    /// A model of `k` constant concepts over `c` classes (concept `i`
    /// leans towards class `i % c`), every concept occurring.
    fn constant_model(k: usize, c: usize) -> HighOrderModel {
        let schema = Schema::new(
            vec![Attribute::numeric("x")],
            (0..c).map(|l| format!("l{l}")),
        );
        let concepts = (0..k)
            .map(|i| crate::concept::Concept {
                id: i,
                model: Arc::new(hom_classifiers::MajorityClassifier::from_counts(
                    &(0..c)
                        .map(|l| 1 + 5 * usize::from(l == i % c))
                        .collect::<Vec<_>>(),
                )),
                err: 0.05 + 0.01 * i as f64,
                n_records: 10,
                n_occurrences: 1,
            })
            .collect();
        let occurrences: Vec<(usize, usize)> = (0..k).map(|i| (i, 10 + 7 * i)).collect();
        HighOrderModel::from_parts(
            schema,
            concepts,
            TransitionStats::from_occurrences(k, &occurrences),
        )
    }

    /// Reports the instance [`CompiledModel::dispatch`] picked.
    struct Instance;

    impl KernelTask for Instance {
        type Output = (&'static str, &'static str);

        fn run<K: Width, C: Width>(self, _: Kernel<'_, K, C>) -> Self::Output {
            (std::any::type_name::<K>(), std::any::type_name::<C>())
        }
    }

    #[test]
    fn dispatch_fixes_up_to_sixteen_concepts_and_two_classes() {
        let fixed = |n: usize| format!("hom_core::filter::Fixed<{n}>");
        for (k, c) in [(1, 2), (3, 2), (16, 2), (3, 5), (16, 5), (17, 2), (24, 5)] {
            let (kw, cw) = CompiledModel::compile(&constant_model(k, c)).dispatch(Instance);
            assert_eq!(kw, if k <= 16 { fixed(k) } else { "usize".into() }, "K={k}");
            let c_fixed = c == 2 && k <= 16;
            assert_eq!(
                cw,
                if c_fixed { fixed(2) } else { "usize".into() },
                "K={k} C={c}"
            );
        }
    }

    /// One stream's lifecycle over `records` through a kernel instance:
    /// every prediction (full and pruned) and the state after each step.
    struct Lifecycle<'a> {
        records: &'a [hom_data::StreamRecord],
        state: FilterState,
    }

    type Trace = Vec<(ClassId, (ClassId, usize), Vec<u64>, Vec<u64>, Vec<u32>, u64)>;

    impl KernelTask for Lifecycle<'_> {
        type Output = Trace;

        fn run<K: Width, C: Width>(mut self, kernel: Kernel<'_, K, C>) -> Trace {
            let mut scratch = KernelScratch::new(kernel.model());
            let mut trace = Vec::new();
            for (t, r) in self.records.iter().enumerate() {
                let mut table = BatchTable::with_capacity(1);
                let rec = table.intern(&r.x, true);
                kernel.model().evaluate(&mut table);
                let mut view = self.state.as_view();
                let full = kernel.predict(&view, &table, rec, &mut scratch);
                let pruned = kernel.predict_pruned(&view, &table, rec, &mut scratch);
                if t % 7 == 3 {
                    kernel.advance_by(&mut view, 2);
                } else {
                    kernel.observe(&mut view, &table, rec, r.y, &mut scratch);
                }
                let s = &self.state;
                trace.push((
                    full,
                    pruned,
                    bits(s.posterior()),
                    bits(s.prior()),
                    s.order().to_vec(),
                    s.last_likelihood().to_bits(),
                ));
            }
            trace
        }
    }

    /// The width-specialised instance and the runtime instance are one
    /// source: on a mined model they agree on every bit, as does the
    /// scalar path.
    #[test]
    fn fixed_and_runtime_instances_agree_bit_for_bit() {
        let (model, test) = stagger_model();
        let compiled = CompiledModel::compile(&model);
        assert!(compiled.n_concepts() <= 16 && compiled.n_classes() == 2);
        let lifecycle = || Lifecycle {
            records: &test,
            state: FilterState::new(&model),
        };
        let fixed = compiled.dispatch(lifecycle());
        let runtime = lifecycle().run(compiled.runtime());
        assert_eq!(fixed, runtime);
        let mut scalar = FilterState::new(&model);
        for (t, (r, step)) in test.iter().zip(&fixed).enumerate() {
            assert_eq!(scalar.predict(&model, &r.x), step.0, "t = {t}");
            assert_eq!(scalar.predict_pruned(&model, &r.x), step.1, "t = {t}");
            if t % 7 == 3 {
                scalar.advance_by(&model, 2);
            } else {
                scalar.observe(&model, &r.x, r.y);
            }
            assert_eq!(bits(scalar.posterior()), step.2, "t = {t}");
            assert_eq!(bits(scalar.prior()), step.3, "t = {t}");
            assert_eq!(scalar.order(), &step.4[..], "t = {t}");
            assert_eq!(scalar.last_likelihood().to_bits(), step.5, "t = {t}");
        }
    }

    #[test]
    fn interning_dedups_identical_records() {
        let mut table = BatchTable::with_capacity(4);
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![1.0, 2.0, 4.0];
        let a2 = a.clone();
        let r0 = table.intern(&a, false);
        let r1 = table.intern(&b, true);
        let r2 = table.intern(&a2, true);
        assert_eq!(r0, r2, "identical records share a slot");
        assert_ne!(r0, r1);
        assert_eq!(table.n_records(), 2);
        // the dup's need_class OR-ed into the original
        assert!(table.need_class[r0 as usize]);
    }

    #[test]
    fn interning_distinguishes_negative_zero() {
        // -0.0 == 0.0 under f64 comparison but differs in bits; dedup is
        // bitwise so the records stay distinct (classifiers could in
        // principle route them differently — never merge).
        let mut table = BatchTable::with_capacity(2);
        let pos = vec![0.0];
        let neg = vec![-0.0];
        assert_ne!(table.intern(&pos, false), table.intern(&neg, false));
    }

    /// A classifier that refuses to flatten, to force the kernel's dyn
    /// fallback path.
    struct Opaque(hom_classifiers::MajorityClassifier);
    impl Classifier for Opaque {
        fn n_classes(&self) -> usize {
            self.0.n_classes()
        }
        fn predict(&self, x: &[f64]) -> ClassId {
            self.0.predict(x)
        }
        fn predict_proba(&self, x: &[f64], out: &mut [f64]) {
            self.0.predict_proba(x, out);
        }
    }

    #[test]
    fn dyn_fallback_matches_scalar() {
        use crate::concept::Concept;
        let schema = Schema::new(vec![Attribute::numeric("x")], ["a", "b"]);
        let concepts = vec![
            Concept {
                id: 0,
                model: Arc::new(Opaque(hom_classifiers::MajorityClassifier::from_counts(&[
                    8, 2,
                ]))),
                err: 0.2,
                n_records: 10,
                n_occurrences: 1,
            },
            Concept {
                id: 1,
                model: Arc::new(hom_classifiers::MajorityClassifier::from_counts(&[1, 9])),
                err: 0.1,
                n_records: 10,
                n_occurrences: 1,
            },
        ];
        let stats = TransitionStats::from_occurrences(2, &[(0, 50), (1, 50)]);
        let model = HighOrderModel::from_parts(schema, concepts, stats);
        let compiled = CompiledModel::compile(&model);
        assert_eq!(compiled.n_flattened(), 1, "one concept must stay dyn");
        let mut scalar = FilterState::new(&model);
        let mut batched = FilterState::new(&model);
        let mut scratch = KernelScratch::new(&compiled);
        let kernel = compiled.runtime();
        for t in 0..40u32 {
            let x = vec![t as f64];
            let y = t % 2;
            let mut table = BatchTable::with_capacity(1);
            let rec = table.intern(&x, true);
            compiled.evaluate(&mut table);
            assert_eq!(
                kernel.predict_pruned(&batched.as_view(), &table, rec, &mut scratch),
                scalar.predict_pruned(&model, &x)
            );
            scalar.observe(&model, &x, y);
            kernel.observe(&mut batched.as_view(), &table, rec, y, &mut scratch);
            assert_eq!(bits(scalar.posterior()), bits(batched.posterior()));
        }
    }

    #[test]
    #[should_panic(expected = "different model")]
    fn rejects_mismatched_state() {
        let (model, _) = stagger_model();
        let compiled = CompiledModel::compile(&model);
        let schema = Schema::new(vec![Attribute::numeric("x")], ["a", "b"]);
        let other = HighOrderModel::from_parts(
            schema,
            vec![crate::concept::Concept {
                id: 0,
                model: Arc::new(hom_classifiers::MajorityClassifier::from_counts(&[1, 1])),
                err: 0.1,
                n_records: 2,
                n_occurrences: 1,
            }],
            TransitionStats::from_occurrences(1, &[(0, 10)]),
        );
        let mut state = FilterState::new(&other);
        if state.n_concepts() == compiled.n_concepts() {
            // the toy model happening to match sizes would defeat the test
            panic!("different model sizes expected");
        }
        compiled.runtime().advance(&mut state.as_view());
    }

    /// `evaluate` over batches of 1..=17 distinct records (one partial
    /// lockstep pass, up to two full passes and one more record) must
    /// leave every `(record, concept)` entry on the class and
    /// probability row the unflattened classifier gives that record, to
    /// the bit. The concepts are a 40+-level chain tree alternating
    /// categorical and numeric splits, a bushy tree over the same
    /// attributes and a constant model; the records mix the chain's
    /// full walk with one-step walks and with NaN, ±∞, −0.0 and
    /// fractional, negative or out-of-range category codes.
    #[test]
    fn lockstep_evaluate_matches_source_classifiers() {
        use hom_classifiers::MajorityClassifier;
        use hom_data::Dataset;
        const GROUPS: usize = 44;
        let attrs = (0..GROUPS)
            .map(|g| {
                if g % 2 == 0 {
                    Attribute::categorical(format!("c{g}"), ["no", "yes", "maybe"])
                } else {
                    Attribute::numeric(format!("x{g}"))
                }
            })
            .collect();
        let schema = Schema::new(attrs, (0..GROUPS).map(|g| format!("k{g}")));
        let deep = vec![0.0; GROUPS];
        let one_hot = |g: usize, v: f64| {
            let mut x = deep.clone();
            x[g] = v;
            x
        };
        // Each group peels off in its own split: a chain.
        let mut chain = Dataset::new(Arc::clone(&schema));
        for g in 0..GROUPS {
            for _ in 0..3 {
                chain.push(&one_hot(g, 1.0), g as u32);
            }
        }
        // Labels driven by a few categorical and numeric attributes.
        let mut bushy_data = Dataset::new(Arc::clone(&schema));
        for i in 0..600u32 {
            let x: Vec<f64> = (0..GROUPS)
                .map(|g| {
                    let h = (i as usize * 31 + g * 17) % 97;
                    if g % 2 == 0 {
                        (h % 3) as f64
                    } else {
                        h as f64 / 97.0 - 0.5
                    }
                })
                .collect();
            let y = u32::from(x[0] == 1.0) + 2 * u32::from(x[1] > 0.0) + 4 * u32::from(x[2] == 2.0);
            bushy_data.push(&x, y);
        }
        let chain = DecisionTreeLearner::unpruned().fit_tree(&chain);
        assert!(chain.depth() >= 40, "chain depth {}", chain.depth());
        let bushy = DecisionTreeLearner::unpruned().fit_tree(&bushy_data);
        assert!(bushy.n_leaves() >= 8, "bushy leaves {}", bushy.n_leaves());
        let sources: Vec<Arc<dyn Classifier>> = vec![
            Arc::new(chain),
            Arc::new(bushy),
            Arc::new(MajorityClassifier::from_counts(&[3; GROUPS])),
        ];
        let concepts = sources
            .iter()
            .enumerate()
            .map(|(id, model)| crate::concept::Concept {
                id,
                model: Arc::clone(model),
                err: 0.1,
                n_records: 10,
                n_occurrences: 1,
            })
            .collect();
        let stats = TransitionStats::from_occurrences(3, &[(0, 10), (1, 10), (2, 10)]);
        let model = HighOrderModel::from_parts(schema, concepts, stats);
        let compiled = CompiledModel::compile(&model);
        assert_eq!(compiled.n_flattened(), 3);

        let weird = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.5,
            -1.0,
            3.0,
            2.5,
            1e300,
        ];
        let mut want = vec![0.0; GROUPS];
        let mut dyn_row = vec![0.0; GROUPS];
        for g in 0..GROUPS {
            // The chain's full walk first, then walks that end at group
            // `g`'s split (one of them at the root) or stop part-way.
            let records: Vec<Vec<f64>> = [1.0, 2.0, weird[g % weird.len()]]
                .map(|v| one_hot(g, v))
                .into_iter()
                .chain([deep.clone()])
                .rev()
                .chain(bushy_data.iter().skip(g).take(13).map(|(x, _)| x.to_vec()))
                .collect();
            for n in 1..=17 {
                let batch = &records[..n];
                let mut table = BatchTable::with_capacity(n);
                for x in batch {
                    table.intern(x, true);
                }
                assert_eq!(table.n_records(), n, "records are distinct");
                compiled.evaluate(&mut table);
                for (r, x) in batch.iter().enumerate() {
                    for (c, source) in sources.iter().enumerate() {
                        let at = r * compiled.n_concepts() + c;
                        assert_eq!(table.class[at], source.predict(x), "class, c{c} {x:?}");
                        source.predict_proba(x, &mut want);
                        let row =
                            compiled.row(compiled.n_concepts(), &table, r as u32, c, &mut dyn_row);
                        assert_eq!(bits(row), bits(&want), "row, c{c} {x:?}");
                    }
                }
            }
        }
    }

    /// A constant model never reads the record, so even an empty one
    /// evaluates (the kernel does not check a record's width).
    #[test]
    fn constant_model_evaluates_an_empty_record() {
        let schema = Schema::new(vec![Attribute::numeric("x")], ["a", "b", "c"]);
        let majority = hom_classifiers::MajorityClassifier::from_counts(&[3, 7, 2]);
        let mut want = [0.0; 3];
        majority.predict_proba(&[], &mut want);
        let concepts = vec![crate::concept::Concept {
            id: 0,
            model: Arc::new(majority),
            err: 0.1,
            n_records: 12,
            n_occurrences: 1,
        }];
        let model = HighOrderModel::from_parts(
            schema,
            concepts,
            TransitionStats::from_occurrences(1, &[(0, 10)]),
        );
        let compiled = CompiledModel::compile(&model);
        assert_eq!(compiled.n_flattened(), 1);
        let mut table = BatchTable::with_capacity(1);
        let rec = table.intern(&[], true);
        compiled.evaluate(&mut table);
        assert_eq!(table.class[0], 1);
        let row = compiled.row(1, &table, rec, 0, &mut [0.0; 3]).to_vec();
        assert_eq!(bits(&row), bits(&want));
    }

    /// Interning far more records than the expected capacity must still
    /// be correct: the probe table rehashes as it fills.
    #[test]
    fn overflowing_expected_capacity_stays_correct() {
        let xs: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64 * 0.5]).collect();
        let mut table = BatchTable::with_capacity(2);
        let seen: Vec<u32> = xs.iter().map(|x| table.intern(x, false)).collect();
        // all distinct, and re-interning finds the same ids
        assert_eq!(table.n_records(), 64);
        for (x, &want) in xs.iter().zip(&seen) {
            assert_eq!(table.intern(x, false), want);
        }
    }
}
