//! Differential proof that **observing never changes results** and that
//! the kernel's batch-amortized telemetry is exact: a fully-instrumented
//! engine produces bit-identical predictions and posteriors to an
//! uninstrumented one and to dedicated per-stream filter states, the
//! counters it derives from per-task [`hom_core::BatchStats`]
//! accumulators are integer-equal to a ground truth recomputed from those
//! states, and its fleet likelihood sum equals theirs bit for bit.

use std::sync::Arc;

use hom_classifiers::DecisionTreeLearner;
use hom_cluster::ClusterParams;
use hom_core::{build, BuildParams, FilterState, HighOrderModel};
use hom_data::stream::collect;
use hom_data::{StreamRecord, StreamSource};
use hom_datagen::{StaggerParams, StaggerSource};
use hom_obs::{Obs, Recorder};
use hom_serve::{Request, ServeEngine, ServeOptions};

const STREAMS: u64 = 16;
const ROUNDS: usize = 96;
const BATCH: usize = 64;

fn bits(p: &[f64]) -> Vec<u64> {
    p.iter().map(|v| v.to_bits()).collect()
}

fn fixture() -> (Arc<HighOrderModel>, Vec<StreamRecord>) {
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
    let test: Vec<StreamRecord> = (0..300).map(|_| src.next_record()).collect();
    (Arc::new(model), test)
}

/// Streams 2k and 2k+1 share each round's record so batches carry
/// duplicates and the kernel's dedup path is on the measured route.
fn request_sequence(test: &[StreamRecord], rounds: usize) -> Vec<Request> {
    let mut requests = Vec::new();
    for t in 0..rounds {
        for s in 0..STREAMS {
            if t % 16 == 15 {
                requests.push(Request::Advance { stream: s, k: 2 });
            }
            let r = &test[(t + (s as usize / 2)) % test.len()];
            requests.push(Request::Step {
                stream: s,
                x: r.x.to_vec(),
                y: r.y,
            });
        }
    }
    requests
}

/// What every observed engine must report for this request sequence,
/// recomputed from dedicated scalar filter states.
#[derive(Debug, Default, PartialEq)]
struct GroundTruth {
    predicted: u64,
    observed: u64,
    pruned: u64,
    consulted: u64,
}

/// Expected responses, final states, counters and each request's Eq. 7
/// likelihood (`None` for requests that absorb no label).
type Reference = (
    Vec<Option<u32>>,
    Vec<FilterState>,
    GroundTruth,
    Vec<Option<f64>>,
);

fn scalar_reference(model: &Arc<HighOrderModel>, requests: &[Request]) -> Reference {
    let mut states: Vec<FilterState> = (0..STREAMS).map(|_| FilterState::new(model)).collect();
    let mut expected = Vec::with_capacity(requests.len());
    let mut truth = GroundTruth::default();
    let mut likelihoods = Vec::with_capacity(requests.len());
    for request in requests {
        match request {
            Request::Step { stream, x, y } => {
                let state = &mut states[*stream as usize];
                let (pred, consulted) = state.predict_pruned(model, x);
                truth.predicted += 1;
                truth.consulted += consulted as u64;
                truth.pruned += u64::from(consulted < model.n_concepts());
                state.observe(model, x, *y);
                truth.observed += 1;
                expected.push(Some(pred));
                likelihoods.push(Some(state.last_likelihood()));
            }
            Request::Advance { stream, k } => {
                states[*stream as usize].advance_by(model, *k);
                expected.push(None);
                likelihoods.push(None);
            }
            _ => unreachable!("sequence holds only Step and Advance"),
        }
    }
    (expected, states, truth, likelihoods)
}

fn engine(model: &Arc<HighOrderModel>, threads: usize, shards: usize, sink: Obs) -> ServeEngine {
    ServeEngine::with_options(
        Arc::clone(model),
        &ServeOptions {
            shards: Some(shards),
            threads: Some(threads),
            fanout: Some(1),
            sink,
            ..Default::default()
        },
    )
}

fn counters(recorder: &Recorder) -> GroundTruth {
    GroundTruth {
        predicted: recorder.counter_total("serve.records_predicted"),
        observed: recorder.counter_total("serve.records_observed"),
        pruned: recorder.counter_total("serve.pruned_records"),
        consulted: recorder.counter_total("serve.concepts_consulted"),
    }
}

fn assert_observed_kernel_exact(
    model: &Arc<HighOrderModel>,
    test: &[StreamRecord],
    threads: usize,
) {
    let requests = request_sequence(test, ROUNDS);
    let (expected, reference_states, truth, likelihoods) = scalar_reference(model, &requests);

    let instrumented = Arc::new(Recorder::new());
    let ordered_recorder = Arc::new(Recorder::new());
    let ctx = format!("threads={threads}");

    let (fleet_observed, fleet_ordered) = {
        // A: fully instrumented.
        let observed = engine(model, threads, 8, Obs::new(Arc::clone(&instrumented)));
        // B: uninstrumented — the "telemetry changed nothing" baseline.
        let dark = engine(model, threads, 8, Obs::none());
        // C: instrumented on one shard, so it runs each batch as one task
        // in batch order — the order the fleet likelihood reference sums in.
        let ordered = engine(model, threads, 1, Obs::new(Arc::clone(&ordered_recorder)));

        let mut at = 0;
        for chunk in requests.chunks(BATCH) {
            let got = observed.submit(chunk);
            for (i, response) in got.iter().enumerate() {
                assert_eq!(
                    response.prediction,
                    expected[at + i],
                    "{ctx}: instrumented kernel diverged at request {}",
                    at + i
                );
            }
            assert_eq!(
                got,
                dark.submit(chunk),
                "{ctx}: telemetry changed a response"
            );
            assert_eq!(
                got,
                ordered.submit(chunk),
                "{ctx}: shard count changed a response"
            );
            at += chunk.len();
        }

        for s in 0..STREAMS {
            let want = bits(reference_states[s as usize].posterior());
            for (name, e) in [
                ("instrumented", &observed),
                ("dark", &dark),
                ("one-shard", &ordered),
            ] {
                assert_eq!(
                    bits(&e.posterior(s).expect("stream exists")),
                    want,
                    "{ctx}: posterior of stream {s} ({name})"
                );
            }
        }
        (observed.fleet_evidence(), ordered.fleet_evidence())
        // engines drop here: final flush lands in the recorders
    };

    // Kernel-derived counters are integer-exact: equal to the recomputed
    // ground truth whatever the shard grouping.
    assert_eq!(
        counters(&instrumented),
        truth,
        "{ctx}: counters vs ground truth"
    );
    assert_eq!(
        counters(&ordered_recorder),
        truth,
        "{ctx}: one-shard counters vs ground truth"
    );

    // The cumulative fleet evidence (Σ Eq. 7 likelihood) sums per task
    // and then per batch. On one shard a batch is one task in batch order,
    // so the reference states' likelihoods, summed the same way, must
    // match bit for bit, not approximately.
    let reference_sum = likelihoods.chunks(BATCH).fold(0.0, |fleet, batch| {
        fleet + batch.iter().flatten().fold(0.0, |task, l| task + l)
    });
    assert_eq!(
        fleet_ordered.0.to_bits(),
        reference_sum.to_bits(),
        "{ctx}: fleet likelihood sum (one-shard engine vs reference states)"
    );
    assert_eq!(fleet_observed.1, truth.observed, "{ctx}: absorbed count");
    assert_eq!(
        fleet_ordered.1, truth.observed,
        "{ctx}: one-shard absorbed count"
    );

    for stage in ["intern", "evaluate", "apply"] {
        assert!(
            instrumented
                .merged_hist(&format!("serve.stage_{stage}_ns"))
                .count()
                > 0,
            "{ctx}: instrumented run emits {stage}-stage durations"
        );
    }
}

#[test]
fn instrumented_kernel_is_bit_identical_and_counter_exact_single_thread() {
    let (model, test) = fixture();
    assert_observed_kernel_exact(&model, &test, 1);
}

#[test]
fn instrumented_kernel_is_bit_identical_and_counter_exact_multi_thread() {
    let (model, test) = fixture();
    assert_observed_kernel_exact(&model, &test, 8);
}
