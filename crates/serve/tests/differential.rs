//! Differential proof of the serving engine's correctness: driving a
//! stream through [`ServeEngine`] produces **bit-identical** predictions
//! and posteriors to the existing single-stream
//! [`OnlinePredictor`] loop — on models mined from Stagger and
//! Hyperplane streams, for thread counts 1 and 8, with §III-C pruning
//! both on and off, through every single-request entry point
//! (`step`, `predict` + `observe`, `advance`) and through batches.

use std::sync::Arc;

use hom_classifiers::DecisionTreeLearner;
use hom_cluster::ClusterParams;
use hom_core::{build, BuildParams, HighOrderModel, OnlinePredictor};
use hom_data::stream::collect;
use hom_data::{StreamRecord, StreamSource};
use hom_datagen::{HyperplaneParams, HyperplaneSource, StaggerParams, StaggerSource};
use hom_serve::{Request, ServeEngine, ServeOptions};

fn bits(p: &[f64]) -> Vec<u64> {
    p.iter().map(|v| v.to_bits()).collect()
}

/// Mine a model and collect a fresh test segment from the same source.
fn stagger_fixture() -> (Arc<HighOrderModel>, Vec<StreamRecord>) {
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
    let test: Vec<StreamRecord> = (0..600).map(|_| src.next_record()).collect();
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
    let test: Vec<StreamRecord> = (0..600).map(|_| src.next_record()).collect();
    (Arc::new(model), test)
}

/// One stream through the engine's single-request entry points vs. the
/// predictor, compared record by record: predictions and posteriors must
/// match to the bit. Most records go through `step`, every third through
/// `predict` + `observe`, and every 16th is preceded by an `advance`.
fn assert_single_stream_differential(
    model: &Arc<HighOrderModel>,
    test: &[StreamRecord],
    threads: usize,
    prune: bool,
) {
    let engine = ServeEngine::with_options(
        Arc::clone(model),
        &ServeOptions {
            shards: Some(8),
            threads: Some(threads),
            prune,
            ..Default::default()
        },
    );
    let mut reference = OnlinePredictor::new(Arc::clone(model));
    let stream = 42u64;
    for (t, r) in test.iter().enumerate() {
        if t % 16 == 15 {
            let k = 1 + t % 3;
            engine.advance(stream, k);
            reference.advance_by(k);
        }
        let got = if t % 3 == 1 {
            let p = engine.predict(stream, &r.x);
            engine.observe(stream, &r.x, r.y);
            p
        } else {
            engine.step(stream, &r.x, r.y)
        };
        // The predictor's `step` prunes; the unpruned reference is
        // predict + observe.
        let want = if prune {
            reference.step(&r.x, r.y)
        } else {
            let p = reference.predict(&r.x);
            reference.observe(&r.x, r.y);
            p
        };
        assert_eq!(
            got, want,
            "threads={threads} prune={prune}: prediction diverged at t = {t}"
        );
        let engine_posterior = engine.posterior(stream).expect("stream exists");
        assert_eq!(
            bits(&engine_posterior),
            bits(reference.state().posterior()),
            "threads={threads} prune={prune}: posterior diverged at t = {t}"
        );
    }
}

/// Many interleaved streams submitted as batches across a threaded
/// engine: every stream must still match its own dedicated predictor.
fn assert_multi_stream_differential(
    model: &Arc<HighOrderModel>,
    test: &[StreamRecord],
    threads: usize,
    prune: bool,
) {
    const STREAMS: u64 = 32;
    let engine = ServeEngine::with_options(
        Arc::clone(model),
        &ServeOptions {
            shards: Some(16),
            threads: Some(threads),
            prune,
            ..Default::default()
        },
    );
    let mut references: Vec<OnlinePredictor> = (0..STREAMS)
        .map(|_| OnlinePredictor::new(Arc::clone(model)))
        .collect();
    // Each stream s starts `s` records into the test segment, so no two
    // streams are in the same filter state.
    for (t, chunk) in test.chunks(8).enumerate() {
        let mut batch = Vec::new();
        for stream in 0..STREAMS {
            for (i, _) in chunk.iter().enumerate() {
                let r = &test[(t * 8 + i + stream as usize) % test.len()];
                batch.push(Request::Step {
                    stream,
                    x: r.x.to_vec(),
                    y: r.y,
                });
            }
        }
        let responses = engine.submit(&batch);
        let mut at = 0;
        for stream in 0..STREAMS {
            let reference = &mut references[stream as usize];
            for (i, _) in chunk.iter().enumerate() {
                let r = &test[(t * 8 + i + stream as usize) % test.len()];
                let want = if prune {
                    reference.step(&r.x, r.y)
                } else {
                    let p = reference.predict(&r.x);
                    reference.observe(&r.x, r.y);
                    p
                };
                assert_eq!(
                    responses[at].prediction,
                    Some(want),
                    "threads={threads} prune={prune}: stream {stream} diverged"
                );
                at += 1;
            }
        }
    }
    for stream in 0..STREAMS {
        assert_eq!(
            bits(&engine.posterior(stream).expect("stream exists")),
            bits(references[stream as usize].state().posterior()),
            "threads={threads} prune={prune}: final posterior of stream {stream}"
        );
    }
}

#[test]
fn stagger_single_stream_matches_online_predictor() {
    let (model, test) = stagger_fixture();
    for threads in [1, 8] {
        for prune in [true, false] {
            assert_single_stream_differential(&model, &test, threads, prune);
        }
    }
}

#[test]
fn hyperplane_single_stream_matches_online_predictor() {
    let (model, test) = hyperplane_fixture();
    for threads in [1, 8] {
        for prune in [true, false] {
            assert_single_stream_differential(&model, &test, threads, prune);
        }
    }
}

#[test]
fn stagger_batched_streams_match_dedicated_predictors() {
    let (model, test) = stagger_fixture();
    for threads in [1, 8] {
        assert_multi_stream_differential(&model, &test, threads, true);
    }
}

#[test]
fn hyperplane_batched_streams_match_dedicated_predictors() {
    let (model, test) = hyperplane_fixture();
    for threads in [1, 8] {
        assert_multi_stream_differential(&model, &test, threads, false);
    }
}
