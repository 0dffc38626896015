//! Snapshot round-trip through the serving engine: a stream snapshotted
//! mid-run and restored into a **fresh** engine continues bit-identically
//! to the uninterrupted run — and corrupt or truncated snapshot bytes
//! are rejected with an error, never a panic.

use std::sync::Arc;

use hom_classifiers::DecisionTreeLearner;
use hom_cluster::ClusterParams;
use hom_core::{build, BuildParams, HighOrderModel, SnapshotError};
use hom_data::stream::collect;
use hom_data::{StreamRecord, StreamSource};
use hom_datagen::{StaggerParams, StaggerSource};
use hom_serve::{ServeEngine, ServeOptions};

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
                seed: 3,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let test: Vec<StreamRecord> = (0..1000).map(|_| src.next_record()).collect();
    (Arc::new(model), test)
}

#[test]
fn restored_stream_continues_bit_identically() {
    let (model, test) = fixture();
    let stream = 7u64;

    // Uninterrupted run: predictions of the second half, final posterior.
    let uninterrupted = ServeEngine::new(Arc::clone(&model));
    let mut mid_snapshot = None;
    let mut tail_predictions = Vec::new();
    for (t, r) in test.iter().enumerate() {
        if t == 500 {
            mid_snapshot = uninterrupted.snapshot(stream);
        }
        let pred = uninterrupted.step(stream, &r.x, r.y);
        if t >= 500 {
            tail_predictions.push(pred);
        }
    }
    let snapshot = mid_snapshot.expect("stream existed at t = 500");

    // Interrupted run: a brand-new engine resumes from the snapshot.
    let resumed = ServeEngine::with_options(
        Arc::clone(&model),
        &ServeOptions {
            shards: Some(4),
            threads: Some(2),
            ..Default::default()
        },
    );
    resumed
        .restore(stream, &snapshot)
        .expect("engine-written snapshot restores");
    let resumed_tail: Vec<u32> = test[500..]
        .iter()
        .map(|r| resumed.step(stream, &r.x, r.y))
        .collect();

    assert_eq!(resumed_tail, tail_predictions, "tail predictions diverged");
    assert_eq!(
        bits(&resumed.posterior(stream).unwrap()),
        bits(&uninterrupted.posterior(stream).unwrap()),
        "final posteriors diverged"
    );
}

#[test]
fn snapshot_survives_parking_on_the_way() {
    let (model, test) = fixture();
    let engine = ServeEngine::new(Arc::clone(&model));
    let twin = ServeEngine::new(model);
    for (t, r) in test[..400].iter().enumerate() {
        let a = engine.step(1, &r.x, r.y);
        let b = twin.step(1, &r.x, r.y);
        assert_eq!(a, b);
        // park the stream every 50 records: each following request must
        // transparently unpark it with no effect on results
        if t % 50 == 49 {
            assert!(engine.park(1));
        }
    }
    assert_eq!(
        bits(&engine.posterior(1).unwrap()),
        bits(&twin.posterior(1).unwrap())
    );
}

#[test]
fn corrupt_and_truncated_snapshots_are_rejected_not_panics() {
    let (model, test) = fixture();
    let engine = ServeEngine::new(Arc::clone(&model));
    for r in &test[..100] {
        engine.step(9, &r.x, r.y);
    }
    let snapshot = engine.snapshot(9).expect("stream exists");

    // Every truncation of the byte stream is an error.
    for len in 0..snapshot.len() {
        let err = engine
            .restore(10, &snapshot[..len])
            .expect_err("truncated snapshot accepted");
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. } | SnapshotError::Corrupt(_)
            ),
            "len {len}: {err:?}"
        );
    }
    // Every single corrupted byte is an error.
    for i in 0..snapshot.len() {
        let mut bad = snapshot.clone();
        bad[i] = bad[i].wrapping_add(1);
        assert!(
            engine.restore(10, &bad).is_err(),
            "corruption at byte {i} accepted"
        );
    }
    // No failed restore ever installed anything.
    assert_eq!(engine.posterior(10), None);
    // And the original still restores fine afterwards.
    engine.restore(10, &snapshot).expect("pristine bytes");
    assert_eq!(
        bits(&engine.posterior(10).unwrap()),
        bits(&engine.posterior(9).unwrap())
    );
}

#[test]
fn snapshot_against_a_different_model_is_a_mismatch_error() {
    let (model_a, test) = fixture();
    // A different mining run (different seed ⇒ possibly different
    // concept count; the codec must reject on count mismatch and accept
    // on equal counts only via its checksummed content).
    let mut src = StaggerSource::new(StaggerParams {
        lambda: 0.02,
        seed: 77,
        ..Default::default()
    });
    let (data, _) = collect(&mut src, 2000);
    let (model_b, _) = build(
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
    let engine_a = ServeEngine::new(Arc::clone(&model_a));
    for r in &test[..50] {
        engine_a.step(1, &r.x, r.y);
    }
    let snap = engine_a.snapshot(1).unwrap();
    let engine_b = ServeEngine::new(Arc::new(model_b));
    match engine_b.restore(1, &snap) {
        // Same concept count: the restore is legitimate (states are
        // model-shape-compatible). Different: must be ModelMismatch.
        Ok(()) => assert_eq!(engine_b.model().n_concepts(), model_a.n_concepts()),
        Err(SnapshotError::ModelMismatch { snapshot, model }) => {
            assert_eq!(snapshot, model_a.n_concepts());
            assert_eq!(model, engine_b.model().n_concepts());
        }
        Err(other) => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn restores_into_a_full_engine_keep_its_capacity() {
    const STREAMS: u64 = 12;
    const SHARDS: usize = 2;
    let (model, test) = fixture();
    // Every stream advanced to a different point of the test segment.
    let source = ServeEngine::new(Arc::clone(&model));
    for stream in 0..STREAMS {
        for r in &test[..20 + 10 * stream as usize] {
            source.step(stream, &r.x, r.y);
        }
    }
    // A capacity-1 target (cluster migration into a full worker) and a
    // dedicated, unbounded engine per stream as the reference.
    let target = ServeEngine::with_options(
        Arc::clone(&model),
        &ServeOptions {
            shards: Some(SHARDS),
            threads: Some(1),
            capacity: Some(1),
            ..Default::default()
        },
    );
    let dedicated: Vec<ServeEngine> = (0..STREAMS)
        .map(|_| ServeEngine::new(Arc::clone(&model)))
        .collect();
    for stream in 0..STREAMS {
        let snapshot = source.snapshot(stream).expect("stream exists");
        target.restore(stream, &snapshot).expect("restores");
        dedicated[stream as usize]
            .restore(stream, &snapshot)
            .expect("restores");
        assert!(
            target.live_streams() <= SHARDS,
            "{} live after restoring {} streams",
            target.live_streams(),
            stream + 1
        );
    }
    assert_eq!(
        target.live_streams() + target.parked_streams(),
        STREAMS as usize
    );
    for (t, r) in test[300..700].iter().enumerate() {
        let stream = (t as u64 * 5) % STREAMS;
        assert_eq!(
            target.step(stream, &r.x, r.y),
            dedicated[stream as usize].step(stream, &r.x, r.y),
            "stream {stream} diverged at t = {t}"
        );
        assert!(target.live_streams() <= SHARDS);
    }
    for stream in 0..STREAMS {
        assert_eq!(
            bits(&target.posterior(stream).expect("stream exists")),
            bits(
                &dedicated[stream as usize]
                    .posterior(stream)
                    .expect("stream exists")
            ),
            "final posterior of stream {stream}"
        );
    }
}
