//! Differential proof of the batch-vectorized kernel: an engine serving
//! through the compiled [`hom_core::CompiledModel`] produces
//! **bit-identical** predictions and posteriors to a dedicated scalar
//! [`FilterState`] per stream — on tree models mined from Stagger and
//! Hyperplane streams and on a naive-Bayes model (the kernel's dynamic
//! dispatch fallback), across batch sizes {1, 7, 64}, thread counts
//! {1, 8}, and §III-C pruning both on and off. Batches deliberately
//! contain duplicate records across streams so the kernel's record-dedup
//! path (ψ evaluated once per *distinct* record per concept) is
//! exercised, and `fanout: Some(1)` forces real multi-task fan-out at 8
//! threads.

use std::sync::Arc;

use hom_classifiers::{DecisionTreeLearner, Learner, NaiveBayesLearner};
use hom_cluster::ClusterParams;
use hom_core::{build, BuildParams, CompiledModel, FilterState, HighOrderModel};
use hom_data::stream::collect;
use hom_data::{StreamRecord, StreamSource};
use hom_datagen::{HyperplaneParams, HyperplaneSource, StaggerParams, StaggerSource};
use hom_serve::{Request, ServeEngine, ServeOptions};

const STREAMS: u64 = 16;

fn bits(p: &[f64]) -> Vec<u64> {
    p.iter().map(|v| v.to_bits()).collect()
}

/// A model mined from a Stagger stream by `learner`, plus held-out test
/// records from the same stream.
fn stagger_fixture(learner: &dyn Learner) -> (Arc<HighOrderModel>, Vec<StreamRecord>) {
    let mut src = StaggerSource::new(StaggerParams {
        lambda: 0.01,
        ..Default::default()
    });
    let (data, _) = collect(&mut src, 3000);
    let (model, _) = build(
        &data,
        learner,
        &BuildParams {
            cluster: ClusterParams {
                block_size: 10,
                seed: 9,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let test: Vec<StreamRecord> = (0..300).map(|_| src.next_record()).collect();
    (Arc::new(model), test)
}

fn hyperplane_fixture() -> (Arc<HighOrderModel>, Vec<StreamRecord>) {
    let mut src = HyperplaneSource::new(HyperplaneParams {
        lambda: 0.001,
        ..Default::default()
    });
    let (data, _) = collect(&mut src, 6000);
    let (model, _) = build(
        &data,
        &DecisionTreeLearner::new(),
        &BuildParams {
            cluster: ClusterParams {
                block_size: 50,
                seed: 7,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let test: Vec<StreamRecord> = (0..300).map(|_| src.next_record()).collect();
    (Arc::new(model), test)
}

/// Both learners the Stagger grid runs over: trees serve through the
/// kernel's flattened form, naive Bayes through its `Dyn` fallback.
fn stagger_fixtures() -> Vec<(Arc<HighOrderModel>, Vec<StreamRecord>)> {
    let fixtures = vec![
        stagger_fixture(&DecisionTreeLearner::new()),
        stagger_fixture(&NaiveBayesLearner),
    ];
    assert_eq!(
        CompiledModel::compile(&fixtures[1].0).n_flattened(),
        0,
        "naive Bayes must exercise the kernel's dynamic-dispatch fallback"
    );
    fixtures
}

fn engine(model: &Arc<HighOrderModel>, threads: usize, prune: bool) -> ServeEngine {
    ServeEngine::with_options(
        Arc::clone(model),
        &ServeOptions {
            shards: Some(8),
            threads: Some(threads),
            prune,
            // Force real fan-out even on tiny batches, so the chunked
            // multi-task path is what this test actually exercises.
            fanout: Some(1),
            ..Default::default()
        },
    )
}

/// The record stream `s` sees in round `t`. Streams 2k and 2k+1 share
/// each round's record, so every interleaved batch carries duplicates
/// and the kernel's dedup table collapses them.
fn record_for(test: &[StreamRecord], t: usize, s: u64) -> &StreamRecord {
    &test[(t + (s as usize / 2)) % test.len()]
}

/// Build the full interleaved request sequence: one Step per stream per
/// round, an Advance for every stream every 16 rounds (exercising the
/// kernel's χ-only path in the middle of batches), and an extra
/// stateless Predict on stream 0 every 8 rounds (a record interned
/// without `need_class`, later upgraded by the Steps that share it).
fn request_sequence(test: &[StreamRecord], rounds: usize) -> Vec<Request> {
    let mut requests = Vec::new();
    for t in 0..rounds {
        for s in 0..STREAMS {
            if t % 16 == 15 {
                requests.push(Request::Advance { stream: s, k: 2 });
            }
            if s == 0 && t % 8 == 3 {
                let r = record_for(test, t, 1);
                requests.push(Request::Predict {
                    stream: s,
                    x: r.x.to_vec(),
                });
            }
            let r = record_for(test, t, s);
            requests.push(Request::Step {
                stream: s,
                x: r.x.to_vec(),
                y: r.y,
            });
        }
    }
    requests
}

/// Expected responses from a dedicated scalar [`FilterState`] per
/// stream, processing the same sequence one request at a time.
fn scalar_reference(
    model: &Arc<HighOrderModel>,
    requests: &[Request],
    prune: bool,
) -> (Vec<Option<u32>>, Vec<FilterState>) {
    let mut states: Vec<FilterState> = (0..STREAMS).map(|_| FilterState::new(model)).collect();
    let mut expected = Vec::with_capacity(requests.len());
    for request in requests {
        match request {
            Request::Predict { stream, x } => {
                let state = &mut states[*stream as usize];
                let pred = if prune {
                    state.predict_pruned(model, x).0
                } else {
                    state.predict(model, x)
                };
                expected.push(Some(pred));
            }
            Request::Step { stream, x, y } => {
                let state = &mut states[*stream as usize];
                let pred = if prune {
                    state.predict_pruned(model, x).0
                } else {
                    state.predict(model, x)
                };
                state.observe(model, x, *y);
                expected.push(Some(pred));
            }
            Request::Observe { stream, x, y } => {
                states[*stream as usize].observe(model, x, *y);
                expected.push(None);
            }
            Request::Advance { stream, k } => {
                states[*stream as usize].advance_by(model, *k);
                expected.push(None);
            }
        }
    }
    (expected, states)
}

fn assert_kernel_differential(
    model: &Arc<HighOrderModel>,
    test: &[StreamRecord],
    batch_size: usize,
    threads: usize,
    prune: bool,
) {
    let requests = request_sequence(test, 96);
    let (expected, reference_states) = scalar_reference(model, &requests, prune);
    let engine = engine(model, threads, prune);

    let ctx = format!("batch={batch_size} threads={threads} prune={prune}");
    let mut at = 0;
    for chunk in requests.chunks(batch_size) {
        let got = engine.submit(chunk);
        for (i, response) in got.iter().enumerate() {
            assert_eq!(
                response.prediction,
                expected[at + i],
                "{ctx}: compiled kernel diverged from the scalar loop at request {}",
                at + i
            );
        }
        at += chunk.len();
    }

    for s in 0..STREAMS {
        assert_eq!(
            bits(&engine.posterior(s).expect("stream exists")),
            bits(reference_states[s as usize].posterior()),
            "{ctx}: final posterior of stream {s} (compiled vs scalar loop)"
        );
    }
}

#[test]
fn stagger_kernel_bit_identical_across_batch_sizes_and_threads() {
    for (model, test) in stagger_fixtures() {
        for batch_size in [1, 7, 64] {
            for threads in [1, 8] {
                assert_kernel_differential(&model, &test, batch_size, threads, true);
            }
        }
    }
}

#[test]
fn stagger_kernel_bit_identical_unpruned() {
    for (model, test) in stagger_fixtures() {
        for batch_size in [1, 7, 64] {
            for threads in [1, 8] {
                assert_kernel_differential(&model, &test, batch_size, threads, false);
            }
        }
    }
}

#[test]
fn hyperplane_kernel_bit_identical_across_batch_sizes_and_threads() {
    let (model, test) = hyperplane_fixture();
    for batch_size in [1, 7, 64] {
        for threads in [1, 8] {
            assert_kernel_differential(&model, &test, batch_size, threads, true);
        }
    }
}

#[test]
fn hyperplane_kernel_bit_identical_unpruned() {
    let (model, test) = hyperplane_fixture();
    for batch_size in [1, 7, 64] {
        for threads in [1, 8] {
            assert_kernel_differential(&model, &test, batch_size, threads, false);
        }
    }
}
