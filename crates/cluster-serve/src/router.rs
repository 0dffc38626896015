//! The router: the cluster's one smart node.
//!
//! A [`Router`] owns the topology — the worker address list and the
//! [`HashRing`] placing streams on them — behind a single `RwLock`
//! whose two lock modes are the cluster's whole consistency story:
//!
//! * **read lock** — traffic. [`Router::submit`] splits a batch by ring
//!   owner, writes every sub-batch to its worker before reading any
//!   reply (the workers serve in parallel, no router thread is spawned),
//!   and merges the responses back into request order. Any number of
//!   batches run concurrently.
//! * **write lock** — reconfiguration. [`Router::swap`] (cluster-wide
//!   model flip) and [`Router::add_worker`] / [`Router::remove_worker`]
//!   (rebalancing migration) hold it exclusively, so no batch is in
//!   flight while ownership or the model epoch changes. That is what
//!   makes the cluster bit-identical to one engine: a request either
//!   runs entirely before a migration/swap or entirely after it, never
//!   astride.
//!
//! # The two-phase swap
//!
//! `swap` distributes one `HOMM` blob (`hom_core::encode_model`) to
//! every worker's `/swap/prepare` — each decodes, validates, and checks
//! the blob targets its next epoch — and only when **all** workers have
//! staged does it send `/swap/commit`. A worker that fails prepare
//! aborts the whole swap with every worker still serving the old model;
//! by commit time the flip is a decoded-model pointer swap per worker,
//! done under the routing write lock, so the fleet transitions
//! epoch N → N+1 as one atomic step. No worker ever serves a mixed
//! epoch (the differential test drives traffic across a swap and
//! asserts bit-identity with a single engine's
//! [`hom_serve::ServeEngine::swap_model`]).
//!
//! # Rebalancing
//!
//! Worker join/leave recomputes the ring, takes a census of every
//! worker's streams (`/cluster/info`, exact-integer ids — never rounded
//! through `f64`), and migrates exactly the ids whose owner changed.
//! Each move is **two-phase**: `/migrate/snapshot` on the source (a
//! non-destructive copy) → `/migrate/in` on the target (restore;
//! older-epoch snapshots migrate forward on arrival) → `/migrate/evict`
//! on the source, only after the target's ack. A failure at any point
//! before the evict leaves the authoritative copy — including its
//! durable-store snapshot — on the source; state is never lost to a
//! dead target. The consistent-hash ring keeps the moved set small on
//! join — only streams landing on the new worker move (see
//! [`crate::ring`]).
//!
//! # Failure semantics
//!
//! Every worker exchange funnels into [`ClusterError`] — a typed,
//! prompt error naming the worker. Exchanges ride persistent
//! connections from the router's pool (see [`crate::http`]); a pooled
//! connection is checked alive before a byte is written, and a request
//! that reached a socket is never resent. A batch is **all or nothing**: if
//! any sub-batch fails, [`Router::submit`] returns the error and no
//! partial `Vec` (the sub-batches that did land have mutated those
//! workers' streams, which the error reports so an operator can decide
//! between retry and recovery — the safe default is to restart the
//! worker from its durable store and retry the batch).

use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use hom_core::model_epoch;
use hom_obs::trace::DUMP_CAP;
use hom_obs::{trace_sample_from_env, Obs, TraceBuffer, TraceContext};
use hom_serve::{Request, Response, StreamId};

use crate::http::{ConnPool, HttpConn, HttpRequest, HttpResponse, HttpServer};
use crate::ring::{HashRing, DEFAULT_VNODES};
use crate::wire;

/// Comma-separated worker addresses the router serves
/// (e.g. `127.0.0.1:7101,127.0.0.1:7102`). Read by
/// [`ClusterConfig::from_env`]; required there — a router with no
/// workers cannot route.
pub const CLUSTER_WORKERS_ENV: &str = "HOM_CLUSTER_WORKERS";

/// The `ip:port` a worker process binds the cluster protocol on
/// (`examples/cluster_smoke.rs` reads it; port 0 picks a free port).
pub const WORKER_ADDR_ENV: &str = "HOM_WORKER_ADDR";

/// Virtual nodes per worker on the ring (default
/// [`DEFAULT_VNODES`]). Placement-changing: every node of a cluster
/// must agree on it, so it is read once by the router.
pub const CLUSTER_VNODES_ENV: &str = "HOM_CLUSTER_VNODES";

/// Worker timeout in milliseconds (default 5000): the deadline of one
/// exchange, or of a whole fan-out (a batch, a scrape), however many
/// workers it touches. Bounds how long a dead worker can stall a batch
/// before it surfaces as [`ClusterError::WorkerDown`].
pub const CLUSTER_TIMEOUT_MS_ENV: &str = "HOM_CLUSTER_TIMEOUT_MS";

const DEFAULT_TIMEOUT_MS: u64 = 5000;

/// A rejected cluster configuration — same convention as
/// `hom_serve::ConfigError`: a knob the operator set deliberately is a
/// typed error when malformed, never a silent fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterConfigError {
    /// [`CLUSTER_WORKERS_ENV`] is unset or empty.
    MissingWorkers,
    /// An entry in [`CLUSTER_WORKERS_ENV`] is not an `ip:port` address.
    InvalidWorkerAddr {
        /// The rejected entry, verbatim.
        got: String,
    },
    /// A numeric knob did not parse as a positive integer.
    InvalidNumber {
        /// The environment variable at fault.
        env: &'static str,
        /// The rejected value, verbatim.
        got: String,
    },
}

impl fmt::Display for ClusterConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterConfigError::MissingWorkers => {
                write!(
                    f,
                    "{CLUSTER_WORKERS_ENV} is unset or empty; a router needs at least one \
                     worker address (comma-separated ip:port list)"
                )
            }
            ClusterConfigError::InvalidWorkerAddr { got } => {
                write!(
                    f,
                    "invalid worker address {got:?} in {CLUSTER_WORKERS_ENV}: expected ip:port"
                )
            }
            ClusterConfigError::InvalidNumber { env, got } => {
                write!(f, "invalid {env}={got}: expected a positive integer")
            }
        }
    }
}

impl std::error::Error for ClusterConfigError {}

/// The router's startup knobs, resolved from the environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Worker addresses, in ring index order.
    pub workers: Vec<SocketAddr>,
    /// Virtual nodes per worker on the [`HashRing`].
    pub vnodes: usize,
    /// Worker exchange / fan-out deadline.
    pub timeout: Duration,
}

impl ClusterConfig {
    /// Read [`CLUSTER_WORKERS_ENV`], [`CLUSTER_VNODES_ENV`] and
    /// [`CLUSTER_TIMEOUT_MS_ENV`]. Missing optional knobs take their
    /// defaults; set-but-malformed values are typed errors.
    pub fn from_env() -> Result<Self, ClusterConfigError> {
        let raw = std::env::var(CLUSTER_WORKERS_ENV).unwrap_or_default();
        let mut workers = Vec::new();
        for part in raw.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            workers.push(
                part.parse()
                    .map_err(|_| ClusterConfigError::InvalidWorkerAddr {
                        got: part.to_string(),
                    })?,
            );
        }
        if workers.is_empty() {
            return Err(ClusterConfigError::MissingWorkers);
        }
        let number = |env: &'static str, default: u64| -> Result<u64, ClusterConfigError> {
            match std::env::var(env) {
                Ok(v) if !v.is_empty() => v
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(ClusterConfigError::InvalidNumber { env, got: v }),
                _ => Ok(default),
            }
        };
        let vnodes = number(CLUSTER_VNODES_ENV, DEFAULT_VNODES as u64)? as usize;
        let timeout = Duration::from_millis(number(CLUSTER_TIMEOUT_MS_ENV, DEFAULT_TIMEOUT_MS)?);
        Ok(ClusterConfig {
            workers,
            vnodes,
            timeout,
        })
    }
}

/// Why a cluster operation failed. Always prompt (sockets carry
/// deadlines) and always total (a failed batch returns this, never a
/// partial response `Vec`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The topology has no workers (all removed).
    NoWorkers,
    /// A worker could not be reached, timed out, or dropped the
    /// connection mid-exchange.
    WorkerDown {
        /// Ring index of the worker.
        worker: usize,
        /// Its address.
        addr: SocketAddr,
        /// The transport-level failure.
        what: String,
    },
    /// A worker answered, but with a non-200 status or a payload the
    /// router could not parse.
    BadResponse {
        /// Ring index of the worker.
        worker: usize,
        /// What was wrong (worker's error body, or the parse failure).
        what: String,
    },
    /// During a two-phase swap, a worker staged or landed on a
    /// different epoch than the rest of the fleet — the flip was
    /// aborted (at prepare) or must be treated as a cluster invariant
    /// violation (at commit).
    EpochDisagreement {
        /// Ring index of the disagreeing worker.
        worker: usize,
        /// The epoch it reported.
        got: u32,
        /// The epoch the fleet agreed on.
        expected: u32,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoWorkers => write!(f, "cluster has no workers"),
            ClusterError::WorkerDown { worker, addr, what } => {
                write!(f, "worker {worker} ({addr}) is unreachable: {what}")
            }
            ClusterError::BadResponse { worker, what } => {
                write!(f, "worker {worker} returned a bad response: {what}")
            }
            ClusterError::EpochDisagreement {
                worker,
                got,
                expected,
            } => write!(
                f,
                "worker {worker} is at epoch {got}, fleet expected {expected}"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// What a rebalance ([`Router::add_worker`] / [`Router::remove_worker`])
/// moved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Streams migrated to a new owner.
    pub migrated: usize,
    /// Workers on the ring after the change.
    pub workers: usize,
}

/// One worker's row in [`Router::cluster_status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStatus {
    /// Ring index.
    pub worker: usize,
    /// Address.
    pub addr: SocketAddr,
    /// Whether `/healthz` answered.
    pub healthy: bool,
    /// The worker's model epoch (0 when unreachable).
    pub epoch: u32,
    /// Live streams resident on it (0 when unreachable).
    pub live: u64,
    /// Parked streams it holds (0 when unreachable).
    pub parked: u64,
}

/// The worker set and its ring, swapped as one unit under the routing
/// lock.
struct Topology {
    workers: Vec<SocketAddr>,
    ring: HashRing,
}

/// The consistent-hash router over a fleet of [`crate::WorkerServer`]s.
/// See the module docs for the locking discipline.
pub struct Router {
    topology: RwLock<Topology>,
    vnodes: usize,
    timeout: Duration,
    /// Idle keep-alive connections to the workers: every exchange goes
    /// through it.
    pool: ConnPool,
    /// The router's own span sink: just a [`TraceBuffer`] — the router
    /// has no aggregates worth keeping, its spans exist to stitch the
    /// cross-process tree together.
    obs: Obs,
    traces: Arc<TraceBuffer>,
    /// Batch sequence number: the identity [`TraceContext::for_batch`]
    /// derives trace ids from, and the counter the `HOM_TRACE_SAMPLE`
    /// gate runs on.
    seq: AtomicU64,
    /// Health-probe sweep counter ([`TraceContext::for_probe`]).
    probe_seq: AtomicU64,
    /// Most recent trace id the router originated (0 = none yet) —
    /// what `Router::last_trace_id` reports so a smoke test (or an
    /// operator script) can fetch a live trace without guessing ids.
    last_trace: AtomicU64,
    /// Trace 1 in N batches (`HOM_TRACE_SAMPLE`, default 1 = all).
    sample: u64,
}

impl fmt::Debug for Router {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.read();
        f.debug_struct("Router")
            .field("workers", &t.workers)
            .field("vnodes", &self.vnodes)
            .finish()
    }
}

impl Router {
    /// A router over `workers` (ring index = position in the slice).
    /// Returns [`ClusterError::NoWorkers`] on an empty list.
    ///
    /// # Panics
    ///
    /// On a set-but-malformed `$HOM_TRACE_BUFFER` or `$HOM_TRACE_SAMPLE`
    /// — the workspace's no-silent-fallback convention (as in
    /// `Obs::from_env`).
    pub fn new(
        workers: Vec<SocketAddr>,
        vnodes: usize,
        timeout: Duration,
    ) -> Result<Self, ClusterError> {
        if workers.is_empty() {
            return Err(ClusterError::NoWorkers);
        }
        let ring = HashRing::new(workers.len(), vnodes);
        let traces = Arc::new(TraceBuffer::from_env().unwrap_or_else(|e| panic!("{e}")));
        let sample = trace_sample_from_env().unwrap_or_else(|e| panic!("{e}"));
        Ok(Router {
            topology: RwLock::new(Topology { workers, ring }),
            vnodes,
            timeout,
            pool: ConnPool::default(),
            obs: Obs::new(Arc::clone(&traces)),
            traces,
            seq: AtomicU64::new(0),
            probe_seq: AtomicU64::new(0),
            last_trace: AtomicU64::new(0),
            sample,
        })
    }

    /// A router from a resolved [`ClusterConfig`].
    pub fn from_config(config: &ClusterConfig) -> Result<Self, ClusterError> {
        Self::new(config.workers.clone(), config.vnodes, config.timeout)
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Topology> {
        self.topology.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Topology> {
        self.topology.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Current worker addresses, ring index order.
    pub fn workers(&self) -> Vec<SocketAddr> {
        self.read().workers.clone()
    }

    /// The ring owner of `stream` under the current topology.
    pub fn owner(&self, stream: StreamId) -> usize {
        self.read().ring.owner(stream)
    }

    /// One POST/GET to worker `w` of `topology`, all failure modes
    /// mapped onto [`ClusterError`]. Non-200 statuses become
    /// [`ClusterError::BadResponse`] carrying the worker's error body.
    fn exchange(
        &self,
        topology: &Topology,
        worker: usize,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<Vec<u8>, ClusterError> {
        self.exchange_at(worker, topology.workers[worker], method, path, body)
    }

    /// [`Self::exchange`] stamping a [`crate::http::TRACE_HEADER`] so
    /// the worker's spans join the router's trace (`ctx.parent_span_id`
    /// names the router span the worker's work hangs under).
    fn exchange_traced(
        &self,
        topology: &Topology,
        worker: usize,
        method: &str,
        path: &str,
        body: &[u8],
        ctx: TraceContext,
    ) -> Result<Vec<u8>, ClusterError> {
        self.exchange_at_traced(
            worker,
            topology.workers[worker],
            method,
            path,
            body,
            Some(ctx),
        )
    }

    /// [`Self::exchange`] addressed directly — for workers not (yet) in
    /// the current topology, such as a joining worker mid-rebalance, or
    /// probes running outside the topology lock. `worker` is the ring
    /// index errors are reported under.
    fn exchange_at(
        &self,
        worker: usize,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<Vec<u8>, ClusterError> {
        self.exchange_at_traced(worker, addr, method, path, body, None)
    }

    /// [`Self::exchange_at`] with an optional trace context to stamp.
    fn exchange_at_traced(
        &self,
        worker: usize,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &[u8],
        ctx: Option<TraceContext>,
    ) -> Result<Vec<u8>, ClusterError> {
        let deadline = Instant::now() + self.timeout;
        let conn = self.send(worker, addr, method, path, body, ctx, deadline)?;
        self.receive(worker, path, conn)
    }

    /// The first half of an exchange: write the request to worker
    /// `worker` at `addr` on a pooled connection, stamping a
    /// [`crate::http::TRACE_HEADER`] for an active `ctx`. Every socket
    /// operation of the exchange is bounded by `deadline`.
    #[allow(clippy::too_many_arguments)]
    fn send(
        &self,
        worker: usize,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &[u8],
        ctx: Option<TraceContext>,
        deadline: Instant,
    ) -> Result<HttpConn, ClusterError> {
        let header = ctx.filter(TraceContext::is_active).map(|c| c.to_header());
        self.pool
            .send(addr, method, path, body, header.as_deref(), deadline)
            .map_err(|e| ClusterError::WorkerDown {
                worker,
                addr,
                what: e.to_string(),
            })
    }

    /// The second half: read the reply [`Self::send`] asked for. Non-200
    /// statuses become [`ClusterError::BadResponse`] carrying the
    /// worker's error body.
    fn receive(&self, worker: usize, path: &str, conn: HttpConn) -> Result<Vec<u8>, ClusterError> {
        let addr = conn.peer();
        let (status, payload) = self
            .pool
            .receive(conn)
            .map_err(|e| ClusterError::WorkerDown {
                worker,
                addr,
                what: e.to_string(),
            })?;
        if status != 200 {
            return Err(ClusterError::BadResponse {
                worker,
                what: format!(
                    "{path} -> {status}: {}",
                    String::from_utf8_lossy(&payload).trim()
                ),
            });
        }
        Ok(payload)
    }

    /// The same GET to every worker in `workers` (ring index order),
    /// every request written before any reply is read: the workers serve
    /// in parallel and the sweep shares one deadline, so k unreachable
    /// workers cost one timeout, not k.
    fn get_all(
        &self,
        workers: &[SocketAddr],
        path: &str,
        ctx: Option<TraceContext>,
    ) -> Vec<Result<Vec<u8>, ClusterError>> {
        let deadline = Instant::now() + self.timeout;
        let sent: Vec<_> = workers
            .iter()
            .enumerate()
            .map(|(w, &addr)| self.send(w, addr, "GET", path, &[], ctx, deadline))
            .collect();
        sent.into_iter()
            .enumerate()
            .map(|(w, conn)| conn.and_then(|conn| self.receive(w, path, conn)))
            .collect()
    }

    /// Apply a batch across the cluster: split by ring owner, write every
    /// sub-batch to its worker, then read the replies and merge them back
    /// into request order. All or nothing — any worker failure fails the
    /// whole batch with a typed error (no partial `Vec`, no hang: one
    /// deadline bounds the batch).
    pub fn submit(&self, batch: &[Request]) -> Result<Vec<Response>, ClusterError> {
        let topology = self.read();
        if topology.workers.is_empty() {
            return Err(ClusterError::NoWorkers);
        }
        // Trace identity is derived from the batch sequence number —
        // deterministic, so the same traffic yields the same trace ids
        // on every run and at every thread count. The `HOM_TRACE_SAMPLE`
        // gate picks 1 in N batches; everything below checks `traced`
        // before opening a span, so unsampled batches skip tracing
        // entirely (tracing on vs off is bit-identical in responses —
        // spans never touch the payload).
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let traced = seq.is_multiple_of(self.sample);
        let ctx = TraceContext::for_batch(seq);
        if traced {
            self.last_trace.store(ctx.trace_id, Ordering::Relaxed);
        }
        let _scope = traced.then(|| self.obs.trace_scope(ctx));
        let route_span = traced.then(|| self.obs.span("cluster.route"));
        let route_id = route_span.as_ref().map_or(0, |s| s.id());
        // Request indices per owner, batch order within each owner —
        // per-stream order is preserved because a stream has one owner.
        let mut per_worker: Vec<Vec<usize>> = vec![Vec::new(); topology.workers.len()];
        for (i, r) in batch.iter().enumerate() {
            per_worker[topology.ring.owner(r.stream())].push(i);
        }
        let mut sub_batches = Vec::new();
        for (w, idx) in per_worker.iter().enumerate() {
            if idx.is_empty() {
                continue;
            }
            let body = wire::encode_request_refs(idx.iter().map(|&i| &batch[i])).map_err(|e| {
                ClusterError::BadResponse {
                    worker: w,
                    what: format!("unencodable batch: {e}"),
                }
            })?;
            sub_batches.push((w, idx, body));
        }
        // Write every sub-batch before reading any reply: the workers
        // serve in parallel while this thread waits on the first. Each
        // exchange has its own `cluster.forward` span under the route
        // span, off the span stack (the exchanges overlap), and the
        // worker's spans hang under it via the wire header.
        let deadline = Instant::now() + self.timeout;
        let mut in_flight = Vec::with_capacity(sub_batches.len());
        for (w, _, body) in &sub_batches {
            let forward = traced.then(|| self.obs.span_under("cluster.forward", route_id));
            let hop = forward.as_ref().map(|s| ctx.child(s.id()));
            let addr = topology.workers[*w];
            let conn = self.send(*w, addr, "POST", "/submit", body.as_bytes(), hop, deadline)?;
            in_flight.push((forward, conn));
        }
        let mut payloads = Vec::with_capacity(in_flight.len());
        for ((w, _, _), (forward, conn)) in sub_batches.iter().zip(in_flight) {
            payloads.push(self.receive(*w, "/submit", conn)?);
            drop(forward);
        }
        let _merge_span = traced.then(|| self.obs.span("cluster.merge"));
        let mut out: Vec<Option<Response>> = vec![None; batch.len()];
        for ((w, idx, _), payload) in sub_batches.iter().zip(payloads) {
            let text = String::from_utf8(payload).map_err(|_| ClusterError::BadResponse {
                worker: *w,
                what: "non-UTF-8 submit response".to_string(),
            })?;
            let responses =
                wire::decode_responses(&text).map_err(|e| ClusterError::BadResponse {
                    worker: *w,
                    what: e.to_string(),
                })?;
            if responses.len() != idx.len() {
                return Err(ClusterError::BadResponse {
                    worker: *w,
                    what: format!(
                        "submit returned {} responses for {} requests",
                        responses.len(),
                        idx.len()
                    ),
                });
            }
            for (&i, r) in idx.iter().zip(responses) {
                out[i] = Some(r);
            }
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("every request index was assigned to exactly one worker"))
            .collect())
    }

    /// Flip the whole fleet to the model in `blob` (a `HOMM` blob from
    /// [`hom_core::encode_model`], stamped with the fleet's next epoch)
    /// — two-phase, under the routing write lock, so no batch runs
    /// against a mixed-epoch cluster. Returns the committed epoch.
    ///
    /// If any worker fails `prepare`, the swap aborts with every worker
    /// still serving the old model. A failure at `commit` is reported
    /// as-is (the fleet may be split-epoch; the error names the worker
    /// — recover by restarting it, which re-syncs through a fresh
    /// prepare/commit).
    pub fn swap(&self, blob: &[u8]) -> Result<u32, ClusterError> {
        let topology = self.write();
        if topology.workers.is_empty() {
            return Err(ClusterError::NoWorkers);
        }
        let Some(epoch) = model_epoch(blob) else {
            return Err(ClusterError::BadResponse {
                worker: 0,
                what: "swap body is not a HOMM model blob".to_string(),
            });
        };
        // Swaps are reconfiguration-rate, so they are always traced
        // (no sampling): trace id derived from the target epoch, both
        // phases on every worker under one root span.
        let ctx = TraceContext::for_swap(epoch as u64);
        self.last_trace.store(ctx.trace_id, Ordering::Relaxed);
        let _scope = self.obs.trace_scope(ctx);
        let root = self.obs.span("cluster.swap");
        let hop = ctx.child(root.id());
        // Phase 1: every worker decodes, validates and stages the model
        // while still serving the old epoch.
        for w in 0..topology.workers.len() {
            let payload = self.exchange_traced(&topology, w, "POST", "/swap/prepare", blob, hop)?;
            let staged = parse_epoch(&payload).ok_or_else(|| ClusterError::BadResponse {
                worker: w,
                what: "prepare response carried no epoch".to_string(),
            })?;
            if staged != epoch {
                return Err(ClusterError::EpochDisagreement {
                    worker: w,
                    got: staged,
                    expected: epoch,
                });
            }
        }
        // Phase 2: flip. Cheap per worker (pointer swap + state
        // migration of its streams), all under this write lock.
        let body = format!("{{\"epoch\":{epoch}}}");
        for w in 0..topology.workers.len() {
            let payload =
                self.exchange_traced(&topology, w, "POST", "/swap/commit", body.as_bytes(), hop)?;
            let committed = parse_epoch(&payload).ok_or_else(|| ClusterError::BadResponse {
                worker: w,
                what: "commit response carried no epoch".to_string(),
            })?;
            if committed != epoch {
                return Err(ClusterError::EpochDisagreement {
                    worker: w,
                    got: committed,
                    expected: epoch,
                });
            }
        }
        Ok(epoch)
    }

    /// Add a worker and migrate onto it exactly the streams the grown
    /// ring assigns to it (the consistent-hash property: no stream
    /// moves between surviving workers).
    pub fn add_worker(&self, addr: SocketAddr) -> Result<RebalanceReport, ClusterError> {
        let mut topology = self.write();
        let mut workers = topology.workers.clone();
        workers.push(addr);
        let ring = HashRing::new(workers.len(), self.vnodes);
        let migrated = self.rebalance(&topology, &workers, &ring)?;
        *topology = Topology { workers, ring };
        Ok(RebalanceReport {
            migrated,
            workers: topology.workers.len(),
        })
    }

    /// Remove the worker at ring index `index`, first migrating every
    /// stream it holds (and any stream the shrunk ring re-homes) to the
    /// surviving workers. The worker itself is left running and empty —
    /// decommissioning the process is the operator's step.
    pub fn remove_worker(&self, index: usize) -> Result<RebalanceReport, ClusterError> {
        let mut topology = self.write();
        if index >= topology.workers.len() {
            return Err(ClusterError::BadResponse {
                worker: index,
                what: "no such worker index".to_string(),
            });
        }
        if topology.workers.len() == 1 {
            return Err(ClusterError::NoWorkers);
        }
        let mut workers = topology.workers.clone();
        workers.remove(index);
        let ring = HashRing::new(workers.len(), self.vnodes);
        let migrated = self.rebalance(&topology, &workers, &ring)?;
        *topology = Topology { workers, ring };
        Ok(RebalanceReport {
            migrated,
            workers: topology.workers.len(),
        })
    }

    /// Move every stream whose owner under (`new_workers`, `new_ring`)
    /// differs from the worker currently holding it, each via the
    /// two-phase [`Self::move_stream`]. Runs under the caller's write
    /// lock; the old topology still routes the migration traffic (the
    /// new owner is addressed directly — it may be a joining worker).
    fn rebalance(
        &self,
        old: &Topology,
        new_workers: &[SocketAddr],
        new_ring: &HashRing,
    ) -> Result<usize, ClusterError> {
        let mut migrated = 0usize;
        for (w, &addr) in old.workers.iter().enumerate() {
            let payload = self.exchange(old, w, "GET", "/cluster/info", &[])?;
            let streams = parse_streams(&payload).ok_or_else(|| ClusterError::BadResponse {
                worker: w,
                what: "unparseable /cluster/info".to_string(),
            })?;
            for stream in streams {
                let target_idx = new_ring.owner(stream);
                // The target is addressed directly: it may not be in
                // `old` (a joining worker).
                let target = new_workers[target_idx];
                if target == addr {
                    continue;
                }
                self.move_stream(stream, w, addr, target_idx, target)?;
                migrated += 1;
            }
        }
        Ok(migrated)
    }

    /// Move one stream from `from` to `to`, two-phase so a failed
    /// migration never loses state: copy a **non-destructive** snapshot
    /// off the source (`/migrate/snapshot`), install it on the target
    /// (`/migrate/in`), and only after the target's ack evict the
    /// source copy (`/migrate/evict`). A failure at any step before the
    /// evict leaves the authoritative copy — including its durable
    /// store snapshot — untouched on the source. A failure at the evict
    /// itself leaves a harmless duplicate on the target: the caller
    /// aborts its topology change, so the old ring never routes to it,
    /// and the next successful migration's restore replaces it.
    fn move_stream(
        &self,
        stream: StreamId,
        from: usize,
        from_addr: SocketAddr,
        to: usize,
        to_addr: SocketAddr,
    ) -> Result<(), ClusterError> {
        // One trace per migration, id derived from the stream id
        // (pure: a test can predict it), all three phases — across two
        // different workers — under one root span. Always on:
        // migrations are reconfiguration-rate.
        let ctx = TraceContext::for_migration(stream);
        self.last_trace.store(ctx.trace_id, Ordering::Relaxed);
        let _scope = self.obs.trace_scope(ctx);
        let root = self.obs.span("cluster.migrate");
        let hop = Some(ctx.child(root.id()));
        let body = format!("{{\"stream\":{stream}}}");
        let out = self.exchange_at_traced(
            from,
            from_addr,
            "POST",
            "/migrate/snapshot",
            body.as_bytes(),
            hop,
        )?;
        let text = std::str::from_utf8(&out).unwrap_or("");
        let snapshot = wire::fields(text, ["snapshot"])
            .and_then(|[snapshot]| snapshot.str())
            .map_err(|what| ClusterError::BadResponse {
                worker: from,
                what: format!("migrate/snapshot: {what}"),
            })?;
        let in_body = format!("{{\"stream\":{stream},\"snapshot\":\"{snapshot}\"}}");
        self.exchange_at_traced(to, to_addr, "POST", "/migrate/in", in_body.as_bytes(), hop)?;
        self.exchange_at_traced(
            from,
            from_addr,
            "POST",
            "/migrate/evict",
            body.as_bytes(),
            hop,
        )?;
        Ok(())
    }

    /// Migrate one stream to the worker at ring index `to`, regardless
    /// of ring ownership (an operator escape hatch; routed traffic
    /// still follows the ring, so only use this for ids the ring
    /// already sends to `to` — the rebalance entry points keep the two
    /// consistent).
    pub fn migrate_stream(&self, stream: StreamId, to: usize) -> Result<(), ClusterError> {
        let topology = self.write();
        if to >= topology.workers.len() {
            return Err(ClusterError::BadResponse {
                worker: to,
                what: "no such worker index".to_string(),
            });
        }
        let from = topology.ring.owner(stream);
        self.move_stream(
            stream,
            from,
            topology.workers[from],
            to,
            topology.workers[to],
        )
    }

    /// Scrape `/metrics` from every worker and federate them into one
    /// Prometheus exposition, each sample labeled `worker="<index>"`
    /// ([`hom_obs::federate`]). Sample values pass through as raw
    /// strings — the federated text is bit-exact per worker.
    pub fn metrics(&self) -> Result<String, ClusterError> {
        // Snapshot the worker list and drop the topology lock before
        // touching any socket: a slow worker must never hold the lock
        // (a queued write — swap/rebalance — would stall new `/submit`
        // readers behind it). Scrapes run in parallel, so a scrape of a
        // degraded fleet costs one timeout, not one per dead worker.
        let workers = self.workers();
        let results = self.get_all(&workers, "/metrics", None);
        let mut scrapes = Vec::with_capacity(workers.len());
        for (w, result) in results.into_iter().enumerate() {
            let text = String::from_utf8(result?).map_err(|_| ClusterError::BadResponse {
                worker: w,
                what: "non-UTF-8 metrics".to_string(),
            })?;
            scrapes.push((w.to_string(), text));
        }
        hom_obs::federate(&scrapes, "worker").map_err(|e| ClusterError::BadResponse {
            worker: 0,
            what: format!("federation failed: {e}"),
        })
    }

    /// Per-worker health: `/healthz` scraped from every worker, with
    /// unreachable workers reported as rows (`healthy: false`) rather
    /// than errors — this is the observability path, it must render a
    /// degraded cluster, not fail on it.
    pub fn cluster_status(&self) -> Vec<WorkerStatus> {
        // As in [`Self::metrics`]: probe outside the topology lock and
        // in parallel, so k unreachable workers cost one timeout — and
        // never stall traffic behind a queued topology write.
        let workers = self.workers();
        // One trace per sweep (always on — probe-rate, not traffic-
        // rate): every worker's `cluster.healthz` span hangs under this
        // root, so a sweep's trace shows which worker was slow.
        let round = self.probe_seq.fetch_add(1, Ordering::Relaxed);
        let ctx = TraceContext::for_probe(round);
        let _scope = self.obs.trace_scope(ctx);
        let root = self.obs.span("cluster.probe");
        let health = self.get_all(&workers, "/healthz", Some(ctx.child(root.id())));
        workers
            .iter()
            .zip(health)
            .enumerate()
            .map(|(w, (&addr, health))| {
                let counts = health.ok().and_then(|body| {
                    let text = std::str::from_utf8(&body).ok()?;
                    let [epoch, live, parked] =
                        wire::fields(text, ["epoch", "live", "parked"]).ok()?;
                    Some((
                        epoch.u64().ok()? as u32,
                        live.u64().ok()?,
                        parked.u64().ok()?,
                    ))
                });
                let (epoch, live, parked) = counts.unwrap_or_default();
                WorkerStatus {
                    worker: w,
                    addr,
                    healthy: counts.is_some(),
                    epoch,
                    live,
                    parked,
                }
            })
            .collect()
    }

    /// The most recent trace id this router originated (0 = none yet).
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace.load(Ordering::Relaxed)
    }

    /// The router's own span slice of trace `id` (for callers that hold
    /// the `Router` in process rather than scraping [`RouterServer`]).
    pub fn traces(&self) -> &Arc<TraceBuffer> {
        &self.traces
    }

    /// Fetch trace `id` fleet-wide: the router's own span slice plus
    /// every worker's `/trace/<id>` slice, each line annotated with a
    /// `node` field (`"router"` / `"w<index>"`), concatenated into one
    /// JSONL document — the stitched cross-process span tree.
    ///
    /// Span ids are per-process counters, so consumers key spans by
    /// `(node, id)`; parent links cross nodes via the trace header's
    /// parent span id, which lives on the *sending* node. A worker that
    /// has no spans for `id` contributes nothing (its `/trace` endpoint
    /// answers 200 with an empty body — "no spans here" is an answer,
    /// not an error). An unreachable worker is an error, like
    /// [`Self::metrics`]: a stitched trace with silently missing nodes
    /// would read as "the worker did nothing", which is worse than no
    /// answer.
    pub fn trace(&self, id: u64) -> Result<String, ClusterError> {
        // As in metrics(): snapshot the workers, drop the lock, fetch
        // in parallel.
        let workers = self.workers();
        let results = self.get_all(&workers, &format!("/trace/{id:016x}"), None);
        let mut out = annotate_node(&self.traces.slice_jsonl(id, DUMP_CAP), "router");
        for (w, result) in results.into_iter().enumerate() {
            let text = String::from_utf8(result?).map_err(|_| ClusterError::BadResponse {
                worker: w,
                what: "non-UTF-8 trace slice".to_string(),
            })?;
            out.push_str(&annotate_node(&text, &format!("w{w}")));
        }
        Ok(out)
    }
}

/// Stamp `,"node":"<node>"` into every JSONL event line (before the
/// closing brace) — how the federated trace records which process each
/// span came from. `hom_obs::jsonl::parse_line` tolerates unknown
/// fields, so annotated lines still parse; node names are fixed
/// identifiers (`router`, `w<index>`), never containing JSON-special
/// characters.
fn annotate_node(jsonl: &str, node: &str) -> String {
    let mut out = String::with_capacity(jsonl.len() + 24 * jsonl.lines().count());
    for line in jsonl.lines() {
        match line.strip_suffix('}') {
            Some(head) => {
                out.push_str(head);
                out.push_str(",\"node\":\"");
                out.push_str(node);
                out.push_str("\"}\n");
            }
            // Not an event object (defensive — never produced by
            // slice_jsonl): pass through untouched.
            None => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

fn parse_epoch(payload: &[u8]) -> Option<u32> {
    let [epoch] = wire::fields(std::str::from_utf8(payload).ok()?, ["epoch"]).ok()?;
    Some(epoch.u64().ok()? as u32)
}

fn parse_streams(payload: &[u8]) -> Option<Vec<StreamId>> {
    let [streams] = wire::fields(std::str::from_utf8(payload).ok()?, ["streams"]).ok()?;
    // Exact-integer parse: ids ≥ 2^53 must not round through f64, or
    // the rebalancer would migrate (or 404 on) the wrong stream.
    streams.u64_array().ok()
}

/// The router's own HTTP face — what clients and scrapers talk to.
///
/// | route | method | payload |
/// |---|---|---|
/// | `/submit` | POST | JSONL batch in, JSONL responses out (request order) |
/// | `/swap` | POST | raw `HOMM` blob → two-phase fleet flip → `{"epoch":N}` |
/// | `/metrics` | GET | federated Prometheus exposition, samples labeled `worker` |
/// | `/trace/<id>` | GET | the stitched cross-process span tree of trace `<id>` (fixed-width lowercase hex): the router's spans plus every worker's, JSONL, each line `node`-annotated ([`Router::trace`]) |
/// | `/cluster` | GET | JSON per-worker health/epoch/stream counts |
/// | `/healthz` | GET | router liveness + worker count |
pub struct RouterServer {
    server: HttpServer,
    router: Arc<Router>,
}

impl fmt::Debug for RouterServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RouterServer")
            .field("addr", &self.server.addr())
            .finish()
    }
}

impl RouterServer {
    /// Serve `router` on `addr` (port 0 picks a free one).
    pub fn bind(addr: SocketAddr, router: Arc<Router>) -> std::io::Result<Self> {
        let handler_router = Arc::clone(&router);
        let server = HttpServer::bind(
            addr,
            "hom-router",
            Arc::new(move |req: &HttpRequest| route(&handler_router, req)),
        )?;
        Ok(RouterServer { server, router })
    }

    /// The address actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The router behind this listener.
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }
}

fn route(router: &Router, req: &HttpRequest) -> HttpResponse {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/submit") => {
            let Ok(text) = std::str::from_utf8(&req.body) else {
                return HttpResponse::bad_request("submit body is not UTF-8");
            };
            let batch = match wire::decode_requests(text) {
                Ok(b) => b,
                Err(e) => return HttpResponse::bad_request(&e.to_string()),
            };
            match router.submit(&batch) {
                Ok(responses) => {
                    HttpResponse::ok("application/jsonl", wire::encode_responses(&responses))
                }
                Err(e) => bad_gateway(&e),
            }
        }
        ("POST", "/swap") => match router.swap(&req.body) {
            Ok(epoch) => HttpResponse::ok("application/json", format!("{{\"epoch\":{epoch}}}\n")),
            Err(e) => bad_gateway(&e),
        },
        ("GET", "/metrics") => match router.metrics() {
            Ok(text) => HttpResponse::ok("text/plain; version=0.0.4", text),
            Err(e) => bad_gateway(&e),
        },
        ("GET", "/cluster") => {
            let mut body = String::from("{\"workers\":[");
            for (i, s) in router.cluster_status().iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&format!(
                    "{{\"worker\":{},\"addr\":\"{}\",\"healthy\":{},\"epoch\":{},\
                     \"live\":{},\"parked\":{}}}",
                    s.worker, s.addr, s.healthy, s.epoch, s.live, s.parked
                ));
            }
            body.push_str("]}\n");
            HttpResponse::ok("application/json", body)
        }
        ("GET", "/healthz") => HttpResponse::ok(
            "application/json",
            format!("{{\"workers\":{}}}\n", router.workers().len()),
        ),
        ("GET", path) if path.starts_with("/trace/") => {
            let hex = &path["/trace/".len()..];
            match u64::from_str_radix(hex, 16) {
                Ok(id) if id != 0 => match router.trace(id) {
                    Ok(body) => HttpResponse::ok("application/x-ndjson", body),
                    Err(e) => bad_gateway(&e),
                },
                _ => HttpResponse::bad_request("bad trace id"),
            }
        }
        _ => HttpResponse::not_found("unknown route"),
    }
}

fn bad_gateway(e: &ClusterError) -> HttpResponse {
    HttpResponse {
        status: "502 Bad Gateway",
        content_type: "text/plain",
        body: format!("{e}\n").into_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_parse_keeps_large_stream_ids_exact() {
        // u64::MAX exceeds f64's exact range: a rounded census id would
        // make the rebalancer migrate (or 404 on) the wrong stream.
        let body = format!("{{\"epoch\":3,\"streams\":[1,{}]}}\n", u64::MAX);
        assert_eq!(parse_streams(body.as_bytes()), Some(vec![1, u64::MAX]));
        // Fractional or u64-overflowing ids fail the parse outright —
        // a typed rebalance error, never a silently wrong id.
        assert_eq!(parse_streams(b"{\"streams\":[1.5]}"), None);
        assert_eq!(parse_streams(b"{\"streams\":[99999999999999999999]}"), None);
    }
}
