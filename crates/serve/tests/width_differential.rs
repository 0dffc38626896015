//! Differential proof of the width-specialised kernel: an engine serving
//! a model of `K` concepts and `C` classes runs the §III core compiled
//! for those widths (`Fixed` concept counts up to 16, a `Fixed` class
//! count for binary models, the runtime instance beyond), and must match
//! a scalar [`FilterState`] per stream — which runs the same core at
//! runtime widths — bit for bit.
//!
//! The models are generated, not mined, so the grid covers
//! `K ∈ {1, 2, 3, 8, 16, 17, 24}` and `C ∈ {2, 5}` on both sides of the
//! instance boundary (16 → 17) and of the library's insertion-sort
//! length (20 → 24). Each mixes flat concepts (decision trees, constant
//! models) with `Dyn` ones (naive Bayes), and each carries the filter's
//! edge cases:
//!
//! * tied priors: the uniform start, duplicated concepts (same
//!   classifier, error and totals, hence duplicated χ rows and columns)
//!   and never-occurring concepts, whose priors are all exactly zero;
//! * a zero χ column (a concept with no occurrences), so the `p == 0`
//!   skips of the Eq. 5 roll and of both predictions run;
//! * zero-error concepts and labels no concept predicts, so the Eq. 7
//!   normalizer is zero and the posterior takes the uniform reset.
//!
//! Every request kind runs (Predict, Observe, Step, Advance), with
//! §III-C pruning on and off, inline and fanned out over threads.

use std::sync::Arc;

use hom_classifiers::{
    Classifier, DecisionTreeLearner, Learner, MajorityClassifier, NaiveBayesLearner,
};
use hom_core::{CompiledModel, Concept, FilterState, HighOrderModel, TransitionStats};
use hom_data::{Attribute, ClassId, Dataset, Schema};
use hom_serve::{Request, ServeEngine, ServeOptions};

const STREAMS: u64 = 12;
const ROUNDS: usize = 40;

/// A small seedable generator (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn bits(p: &[f64]) -> Vec<u64> {
    p.iter().map(|v| v.to_bits()).collect()
}

/// A model of `k` concepts over two numeric attributes and `c` classes.
/// Concept `i` is a constant model when `i % 4 == 0`, naive Bayes (no
/// flat form) when `i % 4 == 1`, and a decision tree otherwise, each
/// fitted to its own labelling rule; the last concept of a model with
/// three or more repeats the one before it (same classifier, error and
/// totals), and from three concepts up every concept `i ≡ 2 (mod 5)`
/// (concept 0 at `k = 3`) never occurs. With
/// `exact`, every concept has error 0, so a label no concept predicts
/// zeroes the Eq. 7 normalizer.
fn generated_model(k: usize, c: usize, exact: bool, rng: &mut Rng) -> Arc<HighOrderModel> {
    let schema = Schema::new(
        vec![Attribute::numeric("u"), Attribute::numeric("v")],
        (0..c).map(|l| format!("l{l}")),
    );
    let mut concepts: Vec<Concept> = Vec::with_capacity(k);
    let mut count = Vec::with_capacity(k);
    let mut records = Vec::with_capacity(k);
    for i in 0..k {
        if k >= 3 && i == k - 1 {
            let twin = concepts[i - 1].clone();
            concepts.push(Concept { id: i, ..twin });
            count.push(count[i - 1]);
            records.push(records[i - 1]);
            break;
        }
        let model: Arc<dyn Classifier> = if i % 4 == 0 {
            let counts: Vec<usize> = (0..c).map(|_| rng.below(9) as usize).collect();
            Arc::new(MajorityClassifier::from_counts(&counts))
        } else {
            // A rule over (u, v) that differs per concept.
            let (a, b, shift) = (rng.unit(), rng.unit(), rng.below(c as u64) as usize);
            let mut data = Dataset::new(Arc::clone(&schema));
            for _ in 0..160 {
                let (u, v) = (rng.unit(), rng.unit());
                let y = ((u * a * 3.0 + v * b * 2.0) as usize + shift) % c;
                data.push(&[u, v], y as ClassId);
            }
            if i % 4 == 1 {
                NaiveBayesLearner.fit(&data).into()
            } else {
                DecisionTreeLearner::new().fit(&data).into()
            }
        };
        let err = if exact { 0.0 } else { 0.02 + 0.4 * rng.unit() };
        concepts.push(Concept {
            id: i,
            model,
            err,
            n_records: 10,
            n_occurrences: 1,
        });
        let occurs = k < 3 || !(i % 5 == 2 || (k == 3 && i == 0));
        count.push(if occurs { 1 + rng.below(4) as usize } else { 0 });
        records.push(if occurs {
            20 + rng.below(200) as usize
        } else {
            0
        });
    }
    let stats = TransitionStats::from_totals(&count, &records);
    Arc::new(HighOrderModel::from_parts(schema, concepts, stats))
}

/// The request sequence: per round and stream, mostly `Step`s, with
/// `Predict`, `Observe` and `Advance` (k = 0..=2) mixed in. Records come
/// from a small pool, so batches repeat records across streams; labels
/// run over every class.
fn requests(c: usize, rng: &mut Rng) -> Vec<Request> {
    let pool: Vec<Vec<f64>> = (0..24).map(|_| vec![rng.unit(), rng.unit()]).collect();
    let mut out = Vec::new();
    for _ in 0..ROUNDS {
        for stream in 0..STREAMS {
            let x = pool[rng.below(pool.len() as u64) as usize].clone();
            let y = rng.below(c as u64) as ClassId;
            out.push(match rng.below(8) {
                0 => Request::Predict { stream, x },
                1 => Request::Observe { stream, x, y },
                2 => Request::Advance {
                    stream,
                    k: rng.below(3) as usize,
                },
                _ => Request::Step { stream, x, y },
            });
        }
    }
    out
}

/// The scalar reference: one [`FilterState`] per stream, one request at
/// a time. Also counts the absorbs whose Eq. 7 normalizer was zero (the
/// uniform reset).
fn reference(
    model: &HighOrderModel,
    requests: &[Request],
    prune: bool,
) -> (Vec<Option<ClassId>>, Vec<FilterState>, usize) {
    let mut resets = 0;
    let mut states: Vec<FilterState> = (0..STREAMS).map(|_| FilterState::new(model)).collect();
    let predict = |state: &mut FilterState, x: &[f64]| {
        if prune {
            state.predict_pruned(model, x).0
        } else {
            state.predict(model, x)
        }
    };
    let answers = requests
        .iter()
        .map(|request| match request {
            Request::Predict { stream, x } => Some(predict(&mut states[*stream as usize], x)),
            Request::Step { stream, x, y } => {
                let state = &mut states[*stream as usize];
                let pred = predict(state, x);
                state.observe(model, x, *y);
                resets += usize::from(state.last_likelihood() == 0.0);
                Some(pred)
            }
            Request::Observe { stream, x, y } => {
                let state = &mut states[*stream as usize];
                state.observe(model, x, *y);
                resets += usize::from(state.last_likelihood() == 0.0);
                None
            }
            Request::Advance { stream, k } => {
                states[*stream as usize].advance_by(model, *k);
                None
            }
        })
        .collect();
    (answers, states, resets)
}

fn assert_engine_matches(model: &Arc<HighOrderModel>, requests: &[Request], ctx: &str) {
    for prune in [true, false] {
        let (want, states, _) = reference(model, requests, prune);
        for (threads, batch) in [(1, 64), (4, 7)] {
            let ctx = format!("{ctx} prune={prune} threads={threads} batch={batch}");
            let engine = ServeEngine::with_options(
                Arc::clone(model),
                &ServeOptions {
                    shards: Some(8),
                    threads: Some(threads),
                    prune,
                    fanout: Some(1),
                    ..Default::default()
                },
            );
            let mut got = Vec::with_capacity(requests.len());
            for chunk in requests.chunks(batch) {
                got.extend(engine.submit(chunk).into_iter().map(|r| r.prediction));
            }
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g, w, "{ctx}: request {i}");
            }
            for (s, state) in states.iter().enumerate() {
                engine
                    .peek(s as u64, |served| {
                        assert_eq!(
                            bits(served.posterior()),
                            bits(state.posterior()),
                            "{ctx}: posterior of stream {s}"
                        );
                        assert_eq!(
                            bits(served.prior()),
                            bits(state.prior()),
                            "{ctx}: prior of stream {s}"
                        );
                        assert_eq!(served.order(), state.order(), "{ctx}: order of stream {s}");
                        assert_eq!(
                            served.last_likelihood().to_bits(),
                            state.last_likelihood().to_bits(),
                            "{ctx}: likelihood of stream {s}"
                        );
                    })
                    .expect("every stream was addressed");
            }
        }
    }
}

/// The whole grid; `exact` selects the zero-error variant.
fn grid(exact: bool) {
    let mut resets = 0;
    let mut ties = 0;
    for k in [1, 2, 3, 8, 16, 17, 24] {
        for c in [2, 5] {
            let mut rng = Rng(0x5EED ^ ((k as u64) << 8) ^ c as u64 ^ (u64::from(exact) << 16));
            let model = generated_model(k, c, exact, &mut rng);
            let compiled = CompiledModel::compile(&model);
            if k >= 2 {
                assert!(compiled.n_flattened() > 0, "K={k}: some concept is flat");
                assert!(
                    compiled.n_flattened() < k,
                    "K={k}: some concept is Dyn (naive Bayes)"
                );
            }
            let requests = requests(c, &mut rng);
            // The edge cases must actually occur in the reference run.
            let (_, states, zeroed) = reference(&model, &requests, true);
            resets += zeroed;
            for state in &states {
                let prior = state.prior();
                ties += usize::from(
                    state
                        .order()
                        .windows(2)
                        .any(|w| prior[w[0] as usize].to_bits() == prior[w[1] as usize].to_bits()),
                );
            }
            if k >= 3 {
                let zero = model.stats();
                assert!(
                    (0..k).any(|j| (0..k).all(|i| zero.chi(i, j) == 0.0)),
                    "K={k}: a zero χ column"
                );
            }
            assert_engine_matches(&model, &requests, &format!("K={k} C={c} exact={exact}"));
        }
    }
    assert!(ties > 0, "some final order has tied priors");
    assert_eq!(
        resets > 0,
        exact,
        "uniform resets happen exactly with zero errors"
    );
}

#[test]
fn generated_models_match_the_scalar_filter_bit_for_bit() {
    grid(false);
}

#[test]
fn zero_error_models_with_uniform_resets_match_the_scalar_filter() {
    grid(true);
}
