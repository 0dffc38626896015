//! `hom-cluster-serve` — multi-node serving: a consistent-hash router
//! over a fleet of worker engines, with stream migration and
//! epoch-coordinated model hot-swap.
//!
//! `hom-serve` scales one [`ServeEngine`](hom_serve::ServeEngine)
//! across cores; this crate scales the same serving contract across
//! **processes and machines**, keeping the repo's central invariant:
//! per stream, a cluster is **bit-identical** — predictions *and*
//! posteriors — to a single engine fed the same requests. Sharding a
//! fleet of streams over workers is pure execution policy, exactly as
//! shard/thread counts are within one engine.
//!
//! ```text
//!              clients (JSONL over HTTP)
//!                        │
//!                 ┌──────▼──────┐
//!                 │ RouterServer│  /submit /swap /metrics /cluster
//!                 │   Router    │  consistent-hash ring (stream → worker)
//!                 └──┬───┬───┬──┘
//!         ┌──────────┘   │   └──────────┐
//!  ┌──────▼─────┐ ┌──────▼─────┐ ┌──────▼─────┐
//!  │WorkerServer│ │WorkerServer│ │WorkerServer│   /submit /migrate/*
//!  │ ServeEngine│ │ ServeEngine│ │ ServeEngine│   /swap/*  /quiesce
//!  └────────────┘ └────────────┘ └────────────┘   /metrics /healthz
//! ```
//!
//! The pieces, bottom-up:
//!
//! * [`hom_serve::transport`] — the dependency-free HTTP/1.1 plumbing
//!   this crate shares with `hom-serve` (blocking client with deadlines
//!   and a keep-alive connection pool, threaded server). A dead worker
//!   is a typed error within the timeout, never a hang.
//! * [`wire`] — the router↔worker binary frame mirroring
//!   [`hom_serve::Request`] / [`hom_serve::Response`]: attribute values
//!   travel as raw `f64` bits, so they cross the hop **bit-exactly** by
//!   construction; and [`wire::jsonl`], the JSONL codec of the router's
//!   client-facing `/submit`.
//! * [`ring`] — the consistent-hash ring (FNV-1a, virtual nodes).
//!   Deterministic placement; a worker join moves only the streams the
//!   new worker now owns.
//! * [`worker`] — a [`ServeEngine`](hom_serve::ServeEngine) behind the
//!   cluster protocol: batch serving, migration in/out
//!   ([`hom_serve::ServeEngine::extract`] /
//!   [`hom_serve::ServeEngine::restore`]), two-phase model swap,
//!   quiesce, metrics.
//! * [`router`] — topology + forwarding + the cluster's consistency
//!   story: traffic under a read lock, migration/swap under the write
//!   lock, all-or-nothing batches, federated `/metrics` and `/cluster`
//!   fleet health.
//!
//! # Stream migration
//!
//! A stream's whole serving state is its compact filter state —
//! posterior over concepts, prune order, evidence accumulators (the
//! quantities of Eqs. 5–9 of the paper) — which the snapshot codec
//! serializes losslessly. Migration is therefore *copy the bytes,
//! install on the target, then evict the source*, two-phase so a
//! failure never loses state: `/migrate/snapshot` takes a
//! non-destructive copy ([`hom_serve::ServeEngine::snapshot`]),
//! `/migrate/in` restores it on the target, and only after that ack
//! does `/migrate/evict` remove the source copy
//! ([`hom_serve::ServeEngine::extract`]) — until then the source,
//! including its durable store, stays authoritative. The stream
//! continues on the new worker with the identical posterior it would
//! have had anywhere else. Snapshots recorded before a model swap (a
//! parked or store-tiered stream) migrate forward on arrival, so
//! rebalancing composes with hot-swap in any order.
//!
//! # Cluster-wide hot-swap
//!
//! When `hom-adapt` admits a new concept (the paper's §IV loop:
//! admission extends the model, Eq. 6 statistics grow), the fleet must
//! flip as one: Eq. 10's ensemble weights are posteriors over the
//! model's concept set, so two workers serving different concept sets
//! would be two different models. [`Router::swap`] two-phases the flip
//! — distribute + stage the encoded model (`hom_core::model_codec`,
//! the `HOMM` blob) on every worker, then commit the pointer swap
//! fleet-wide under the routing write lock. `AdaptiveEngine`'s
//! swap-propagator seam (`hom_adapt::SwapPropagator`) hooks admissions
//! straight into this path.
//!
//! # Quick start
//!
//! In-process (tests do exactly this; production runs each piece in
//! its own process — see `OPERATIONS.md` and
//! `examples/cluster_smoke.rs`):
//!
//! ```no_run
//! use std::sync::Arc;
//! use std::time::Duration;
//! use hom_serve::{Request, ServeEngine, ServeTelemetry, ServeOptions};
//! # fn model() -> Arc<hom_core::HighOrderModel> { unimplemented!() }
//! use hom_cluster_serve::{Router, RouterServer, WorkerServer, DEFAULT_VNODES};
//!
//! // Three workers, each its own engine (normally: own process).
//! let workers: Vec<WorkerServer> = (0..3)
//!     .map(|_| {
//!         let telemetry = Arc::new(ServeTelemetry::new());
//!         let engine = Arc::new(ServeEngine::with_options(
//!             model(),
//!             &ServeOptions { sink: telemetry.obs(), ..Default::default() },
//!         ));
//!         WorkerServer::bind("127.0.0.1:0".parse().unwrap(), engine, telemetry).unwrap()
//!     })
//!     .collect();
//! let router = Arc::new(Router::new(
//!     workers.iter().map(|w| w.addr()).collect(),
//!     DEFAULT_VNODES,
//!     Duration::from_secs(5),
//! ).unwrap());
//! let server = RouterServer::bind("127.0.0.1:0".parse().unwrap(), Arc::clone(&router)).unwrap();
//!
//! // Clients talk to the router exactly like a single engine:
//! let responses = router.submit(&[Request::Step { stream: 7, x: vec![0.0], y: 1 }]).unwrap();
//! assert_eq!(responses.len(), 1);
//! # drop(server);
//! ```
//!
//! # Environment knobs
//!
//! | variable | meaning |
//! |---|---|
//! | `HOM_CLUSTER_WORKERS` | comma-separated worker `ip:port` list ([`ClusterConfig::from_env`]) |
//! | `HOM_WORKER_ADDR` | the address a worker process binds |
//! | `HOM_CLUSTER_VNODES` | virtual nodes per worker on the ring (default 64) |
//! | `HOM_CLUSTER_TIMEOUT_MS` | worker deadline per exchange or fan-out (default 5000) |
//!
//! All follow the repo's no-silent-fallback convention: a
//! set-but-malformed value is a typed [`ClusterConfigError`].

#![warn(missing_docs)]

pub mod ring;
pub mod router;
pub mod wire;
pub mod worker;

pub use ring::{HashRing, DEFAULT_VNODES};
pub use router::{
    ClusterConfig, ClusterConfigError, ClusterError, RebalanceReport, Router, RouterServer,
    WorkerStatus, CLUSTER_TIMEOUT_MS_ENV, CLUSTER_VNODES_ENV, CLUSTER_WORKERS_ENV, WORKER_ADDR_ENV,
};
pub use wire::WireError;
pub use worker::WorkerServer;
