//! `hom-serve` — a concurrent multi-stream serving engine over one
//! shared high-order model.
//!
//! The paper's pitch (§III) is that online prediction is cheap once the
//! high-order model is mined offline. This crate turns that into a
//! deployment shape: the immutable [`HighOrderModel`](hom_core::HighOrderModel)
//! is shared behind one `Arc`, and every independent stream — a user, a
//! sensor, a tenant — owns only a compact
//! [`FilterState`](hom_core::FilterState) (posterior + prune order),
//! kept in a **sharded table** with one lock per shard:
//!
//! ```text
//!                      ┌────────────────────────────┐
//!   requests ──────▶   │  ServeEngine               │
//!   (batched,          │   Arc<HighOrderModel>  ────┼──▶ read-only, no lock
//!    grouped by        │   shard 0: Mutex<{id→FilterState}>
//!    shard)            │   shard 1: Mutex<{id→FilterState}>
//!                      │   …           (2^k shards) │
//!                      └────────────────────────────┘
//! ```
//!
//! * [`ServeEngine::submit`] applies a batch of [`Request`]s: grouped by
//!   shard, shards processed concurrently on a
//!   [`hom_parallel::Pool`], per-stream order preserved (a stream maps
//!   to exactly one shard). Disjoint streams never contend.
//! * Idle streams can be **evicted**: an LRU capacity per shard and/or a
//!   TTL [`ServeEngine::sweep`] park the state as versioned snapshot
//!   bytes (`hom_core::snapshot`), and the next request resumes it
//!   **bit-identically** — eviction is invisible to predictions.
//! * With an [`hom_obs::Obs`] sink attached, the engine reports request
//!   and eviction counters, batch-latency plus kernel-stage
//!   (intern/evaluate/apply) histograms, dedup-ratio and batch-shape
//!   series, per-concept fleet analytics and per-shard occupancy
//!   series — all folded **once per batch** from a per-task
//!   [`hom_core::BatchStats`] accumulator, never per record; disabled
//!   observability costs one branch.
//! * A running engine is **live-inspectable**: bundle a
//!   [`ServeTelemetry`] into the sink and bind a [`MetricsServer`]
//!   (`HOM_METRICS_ADDR`) to get Prometheus `/metrics`, JSON
//!   `/healthz` / `/shards` / `/streams/<id>` introspection, `/flight`
//!   incident dumps, `/concepts` fleet concept analytics and `/slo`
//!   batch-latency SLO compliance with deterministic slow-batch
//!   exemplars — none of which changes a prediction (see the [`http`]
//!   module). The listener is a [`transport::HttpServer`], the same
//!   keep-alive HTTP/1.1 stack `hom-cluster-serve`'s router and
//!   workers run on.
//!
//! Per stream, the engine is proven (differential tests) bit-identical
//! to a dedicated [`hom_core::OnlinePredictor`] — sharding, batching,
//! threading and eviction are pure execution policy, like
//! `BuildOptions { threads }` for the offline build.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use hom_classifiers::MajorityClassifier;
//! use hom_core::{Concept, HighOrderModel, TransitionStats};
//! use hom_data::{Attribute, Schema};
//! use hom_serve::{Request, ServeEngine};
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
//! let engine = ServeEngine::new(model);
//! // Any number of independent streams, addressed by id:
//! let batch = vec![
//!     Request::Step { stream: 1, x: vec![0.0], y: 0 },
//!     Request::Step { stream: 2, x: vec![0.0], y: 1 },
//! ];
//! let responses = engine.submit(&batch);
//! assert_eq!(responses.len(), 2);
//! assert!(responses[0].prediction.is_some());
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod http;
pub mod request;
mod shard;
pub mod transport;

pub use engine::{
    ConceptAnalytics, ConfigError, ServeEngine, ServeOptions, StreamInfo, SwapError, SwapReport,
    FANOUT_ENV, SHARDS_ENV, SLO_BATCH_US_ENV, SLO_TARGET_ENV, THREADS_ENV,
};
pub use http::{MetricsConfigError, MetricsServer, ServeTelemetry, METRICS_ADDR_ENV};
pub use request::{Request, Response, StreamId, WidthError};
pub use transport::{http_request, HttpError, HttpRequest, HttpResponse, HttpServer};
// The durable-tier types an engine embedder needs: construct a store for
// [`ServeOptions::store`], read its health/status through
// [`ServeEngine::store`]. The full API (I/O seam, codec) is `hom_store`.
pub use hom_store::{
    StoreError, StoreHealth, StoreOptions, StoreStatus, StreamStore, STORE_COMMIT_US_ENV,
    STORE_DIR_ENV,
};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use hom_classifiers::MajorityClassifier;
    use hom_core::{Concept, HighOrderModel, OnlinePredictor, TransitionStats};
    use hom_data::{Attribute, Schema};
    use hom_obs::{Obs, Recorder};

    use crate::{ConfigError, Request, ServeEngine, ServeOptions};

    /// Two concepts with opposite constant predictions.
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

    fn bits(p: &[f64]) -> Vec<u64> {
        p.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn streams_are_independent() {
        let engine = ServeEngine::new(toy_model());
        for _ in 0..20 {
            engine.observe(1, &[0.0], 0);
            engine.observe(2, &[0.0], 1);
        }
        assert_eq!(engine.predict(1, &[0.0]), 0);
        assert_eq!(engine.predict(2, &[0.0]), 1);
        // a never-seen stream predicts from the uniform prior (and is
        // created by the request)
        assert!(engine.predict(3, &[0.0]) < 2);
        assert_eq!(engine.live_streams(), 3);
    }

    /// A record narrower than the schema is refused by index before any
    /// shard is touched: the batch's other requests change nothing.
    #[test]
    fn a_short_record_panics_before_any_stream_changes() {
        let model = toy_model();
        let schema = Schema::new(
            vec![Attribute::numeric("x"), Attribute::numeric("z")],
            ["a", "b"],
        );
        let model = Arc::new(HighOrderModel::from_parts(
            schema,
            model.concepts().to_vec(),
            model.stats().clone(),
        ));
        let engine = ServeEngine::new(model);
        engine.observe(1, &[0.0, 0.0], 1);
        let before = bits(&engine.posterior(1).expect("live"));
        let batch = vec![
            Request::Observe {
                stream: 1,
                x: vec![0.0, 0.0],
                y: 0,
            },
            Request::Advance { stream: 1, k: 1 },
            Request::Step {
                stream: 2,
                x: vec![0.0],
                y: 0,
            },
        ];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.submit(&batch)))
            .expect_err("a short record panics");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert_eq!(
            msg,
            "request 2: record has 1 attributes, the model's schema has 2"
        );
        assert_eq!(bits(&engine.posterior(1).expect("live")), before);
        assert_eq!(engine.posterior(2), None, "stream 2 was never created");
        assert_eq!(engine.check_widths(&batch).unwrap_err().request, 2);
        assert_eq!(engine.check_widths(&batch[..2]), Ok(()));
    }

    #[test]
    fn batch_matches_single_ops() {
        let model = toy_model();
        let a = ServeEngine::new(Arc::clone(&model));
        let b = ServeEngine::new(model);
        let mut batch = Vec::new();
        for t in 0..40u32 {
            for stream in 0..7u64 {
                let y = u32::from((t + stream as u32).is_multiple_of(3));
                batch.push(Request::Step {
                    stream,
                    x: vec![0.0],
                    y,
                });
            }
        }
        let batched = a.submit(&batch);
        let singles: Vec<Option<u32>> = batch
            .iter()
            .map(|r| match r {
                Request::Step { stream, x, y } => Some(b.step(*stream, x, *y)),
                _ => unreachable!(),
            })
            .collect();
        for (resp, single) in batched.iter().zip(singles) {
            assert_eq!(resp.prediction, single);
        }
        for stream in 0..7u64 {
            assert_eq!(
                bits(&a.posterior(stream).unwrap()),
                bits(&b.posterior(stream).unwrap())
            );
        }
    }

    #[test]
    fn thread_and_shard_count_do_not_change_results() {
        let model = toy_model();
        let mut batch = Vec::new();
        for t in 0..30u32 {
            for stream in 0..50u64 {
                batch.push(Request::Step {
                    stream: stream * 7919, // scattered ids
                    x: vec![0.0],
                    y: u32::from(t % 2 == 0),
                });
            }
        }
        let reference: Vec<_> = {
            let engine = ServeEngine::with_options(
                Arc::clone(&model),
                &ServeOptions {
                    shards: Some(1),
                    threads: Some(1),
                    ..Default::default()
                },
            );
            engine.submit(&batch)
        };
        for (shards, threads) in [(4, 2), (16, 8), (64, 3)] {
            let engine = ServeEngine::with_options(
                Arc::clone(&model),
                &ServeOptions {
                    shards: Some(shards),
                    threads: Some(threads),
                    ..Default::default()
                },
            );
            let got = engine.submit(&batch);
            assert_eq!(got, reference, "shards={shards} threads={threads}");
        }
    }

    #[test]
    fn capacity_eviction_is_invisible_to_predictions() {
        let model = toy_model();
        // Tiny capacity: every shard holds at most one live stream.
        let engine = ServeEngine::with_options(
            Arc::clone(&model),
            &ServeOptions {
                shards: Some(2),
                threads: Some(1),
                capacity: Some(1),
                ..Default::default()
            },
        );
        let streams: Vec<u64> = (0..12).collect();
        let mut references: Vec<OnlinePredictor> = streams
            .iter()
            .map(|_| OnlinePredictor::new(Arc::clone(&model)))
            .collect();
        for t in 0..25u32 {
            for (i, &stream) in streams.iter().enumerate() {
                let y = u32::from((t as usize + i).is_multiple_of(2));
                let got = engine.step(stream, &[0.0], y);
                let want = references[i].step(&[0.0], y);
                assert_eq!(got, want, "stream {stream} diverged at t = {t}");
            }
        }
        assert!(
            engine.parked_streams() > 0,
            "capacity 1 with 12 streams must have parked some"
        );
        for (i, &stream) in streams.iter().enumerate() {
            assert_eq!(
                bits(&engine.peek(stream, |s| s.prior().to_vec()).unwrap()),
                bits(references[i].concept_probs()),
                "prior of stream {stream} diverged"
            );
        }
    }

    #[test]
    fn ttl_sweep_parks_idle_streams_and_they_resume() {
        let engine = ServeEngine::with_options(
            toy_model(),
            &ServeOptions {
                shards: Some(4),
                threads: Some(1),
                ttl: Some(10),
                ..Default::default()
            },
        );
        engine.observe(1, &[0.0], 0);
        let before = engine.posterior(1).unwrap();
        // 1 stays idle while 2 accumulates 40 ticks
        for _ in 0..40 {
            engine.observe(2, &[0.0], 1);
        }
        assert_eq!(engine.sweep(), 1, "stream 1 idle past the TTL");
        assert_eq!(engine.live_streams(), 1);
        assert_eq!(engine.parked_streams(), 1);
        // parked state is still visible and bit-identical
        assert_eq!(bits(&engine.posterior(1).unwrap()), bits(&before));
        // and the next request transparently resumes it
        engine.observe(1, &[0.0], 0);
        assert_eq!(engine.live_streams(), 2);
        assert_eq!(engine.parked_streams(), 0);
    }

    #[test]
    fn park_restore_remove_lifecycle() {
        let engine = ServeEngine::new(toy_model());
        for _ in 0..10 {
            engine.observe(5, &[0.0], 1);
        }
        let snap = engine.snapshot(5).expect("stream exists");
        assert!(engine.park(5));
        assert!(!engine.park(5), "already parked");
        assert_eq!(engine.snapshot(5), Some(snap.clone()), "parked snapshot");
        assert!(engine.remove(5));
        assert!(!engine.remove(5));
        assert_eq!(engine.posterior(5), None);
        // restore the saved snapshot as a different stream id
        engine.restore(77, &snap).expect("valid snapshot");
        let restored = engine.posterior(77).unwrap();
        let mut reference = OnlinePredictor::new(engine.model());
        for _ in 0..10 {
            reference.observe(&[0.0], 1);
        }
        assert_eq!(bits(&restored), bits(reference.state().posterior()));
    }

    #[test]
    fn corrupt_restore_is_an_error_not_a_panic() {
        let engine = ServeEngine::new(toy_model());
        engine.observe(1, &[0.0], 0);
        let mut bytes = engine.snapshot(1).unwrap();
        bytes[12] ^= 0xFF;
        assert!(engine.restore(2, &bytes).is_err());
        assert_eq!(engine.posterior(2), None, "failed restore installs nothing");
        assert!(engine.restore(2, &bytes[..5]).is_err());
    }

    #[test]
    fn observed_engine_emits_metrics_once() {
        let recorder = Arc::new(Recorder::new());
        {
            let engine = ServeEngine::with_options(
                toy_model(),
                &ServeOptions {
                    shards: Some(4),
                    threads: Some(2),
                    sink: Obs::new(Arc::clone(&recorder)),
                    ..Default::default()
                },
            );
            let batch: Vec<Request> = (0..50u64)
                .map(|stream| Request::Step {
                    stream,
                    x: vec![0.0],
                    y: 1,
                })
                .collect();
            engine.submit(&batch);
            engine.predict(0, &[0.0]);
            // no explicit flush: drop must emit exactly once
        }
        assert_eq!(recorder.counter_total("serve.records_predicted"), 51);
        assert_eq!(recorder.counter_total("serve.records_observed"), 50);
        assert_eq!(recorder.counter_total("serve.batches"), 1);
        assert_eq!(recorder.merged_hist("serve.batch_latency_ns").count(), 1);
        let live = recorder.series("serve.shard_live");
        assert_eq!(live.len(), 1, "one occupancy sample per flush");
        assert_eq!(live[0].1.iter().sum::<f64>(), 50.0);
    }

    #[test]
    fn unobserved_engine_emits_nothing() {
        let recorder = Arc::new(Recorder::new());
        {
            let engine = ServeEngine::with_options(
                toy_model(),
                &ServeOptions {
                    sink: hom_obs::Obs::none(),
                    ..Default::default()
                },
            );
            engine.step(1, &[0.0], 0);
            engine.flush_trace();
        }
        assert!(recorder.is_empty());
    }

    #[test]
    fn invalid_shard_count_is_a_typed_error_not_a_clamp() {
        for bad in [0usize, 9, 48] {
            let err = ServeEngine::try_with_options(
                toy_model(),
                &ServeOptions {
                    shards: Some(bad),
                    ..Default::default()
                },
            )
            .err()
            .unwrap_or_else(|| panic!("shards = {bad} must be rejected"));
            assert_eq!(
                err,
                ConfigError::InvalidShards {
                    got: bad,
                    from_env: false
                }
            );
            assert!(err.to_string().contains("power of two"), "{err}");
        }
        // valid powers of two still construct, exactly as configured
        let engine = ServeEngine::try_with_options(
            toy_model(),
            &ServeOptions {
                shards: Some(8),
                ..Default::default()
            },
        )
        .expect("8 is a power of two");
        assert_eq!(engine.n_shards(), 8);
    }

    #[test]
    fn zero_capacity_is_a_typed_error() {
        let err = ServeEngine::try_with_options(
            toy_model(),
            &ServeOptions {
                capacity: Some(0),
                ..Default::default()
            },
        )
        .err()
        .expect("capacity 0 must be rejected");
        assert_eq!(err, ConfigError::ZeroCapacity);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn with_options_panics_with_the_typed_message() {
        ServeEngine::with_options(
            toy_model(),
            &ServeOptions {
                shards: Some(6),
                ..Default::default()
            },
        );
    }
}
