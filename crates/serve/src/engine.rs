//! The serving engine: one shared model, many independent streams.

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::time::Instant;

use hom_core::{
    BatchStats, BatchTable, CompiledModel, FilterIntrospection, FilterState, HighOrderModel,
    KernelScratch, SnapshotError,
};
use hom_data::ClassId;
use hom_obs::{hash_sampled, Exemplar, ExemplarRing, Histogram, Obs, SloPolicy};
use hom_parallel::Pool;
use hom_store::{FsIo, StreamStore, STORE_DIR_ENV};

use crate::request::{Request, Response, StreamId};
use crate::shard::{shard_of, Shard};

/// The environment variable [`ServeOptions::default`] reads for the
/// shard count of the stream table (must be a nonzero power of two).
pub const SHARDS_ENV: &str = "HOM_SERVE_SHARDS";

/// The worker-thread environment variable shared with the offline build
/// (`hom-eval` reads the same knob).
pub const THREADS_ENV: &str = "HOM_THREADS";

/// The compiled-kernel escape hatch: `HOM_COMPILED=0` serves every
/// batch through the scalar [`FilterState`] path, any other value (or
/// unset) uses the batch-vectorized [`CompiledModel`] kernel. The two
/// are bit-identical in output; the knob exists for A/B measurement and
/// as an operational fallback. [`ServeOptions::compiled`] overrides it.
pub const COMPILED_ENV: &str = "HOM_COMPILED";

/// The environment variable behind [`ServeOptions::fanout`]: minimum
/// requests per worker task before [`ServeEngine::submit`] fans a batch
/// out to the pool.
pub const FANOUT_ENV: &str = "HOM_SERVE_FANOUT";

/// The environment variable behind [`ServeOptions::slo_objective_ns`]:
/// the batch-latency objective in **microseconds** (a positive number;
/// microseconds because that is the scale operators reason in).
pub const SLO_BATCH_US_ENV: &str = "HOM_SLO_BATCH_US";

/// The environment variable behind [`ServeOptions::slo_target`]: the
/// SLO's target good fraction, strictly between 0 and 1 (e.g. `0.999`).
pub const SLO_TARGET_ENV: &str = "HOM_SLO_TARGET";

/// Shard count used when neither [`ServeOptions::shards`] nor
/// `HOM_SERVE_SHARDS` says otherwise.
const DEFAULT_SHARDS: usize = 16;

/// Default minimum requests per worker task. Fanning a batch out costs
/// a pool dispatch (the pool spawns scoped workers per call), which only
/// pays for itself once each task carries a few thousand requests —
/// below that, inline processing on the submitting thread is faster *and*
/// was measured to be what fixed multi-thread submit being slower than
/// single-thread on small batches.
const DEFAULT_FANOUT: usize = 4096;

/// Default batch-latency objective: 1 ms. Generous for the compiled
/// kernel (a 2k-record batch runs in ~300 µs), so out of the box only
/// genuinely anomalous batches burn budget and capture exemplars.
const DEFAULT_SLO_OBJECTIVE_NS: f64 = 1_000_000.0;

/// Default SLO target: three nines of batches within the objective.
const DEFAULT_SLO_TARGET: f64 = 0.999;

/// Exemplars retained for the `/slo` endpoint (overwrite-oldest ring).
const EXEMPLAR_CAPACITY: usize = 64;

/// Deterministic exemplar sampling rate: 1 in `2^3` stream ids are
/// exemplar-eligible ([`hash_sampled`]), so slow-batch capture cost is
/// bounded and the same streams are chosen on every run.
const EXEMPLAR_LOG2_RATE: u32 = 3;

/// At most this many exemplars are captured per slow batch.
const EXEMPLARS_PER_BATCH: usize = 4;

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v >= 1)
}

/// A rejected [`ServeOptions`] value. The engine refuses to start with a
/// configuration it would previously have silently "fixed" — a clamped
/// shard count changes stream→shard placement, which operators reading
/// per-shard metrics must be able to predict from what they configured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The shard count is zero or not a power of two. `from_env` says
    /// whether the value came from `HOM_SERVE_SHARDS` rather than
    /// [`ServeOptions::shards`].
    InvalidShards {
        /// The rejected value.
        got: usize,
        /// `true` when the value was read from [`SHARDS_ENV`].
        from_env: bool,
    },
    /// [`ServeOptions::capacity`] is `Some(0)`: a table that can hold no
    /// live stream at all cannot serve (use `None` for "unbounded").
    ZeroCapacity,
    /// [`ServeOptions::fanout`] is `Some(0)`: every task needs at least
    /// one request (use `None` for the default granularity).
    ZeroFanout,
    /// A rejected SLO knob: the objective must be a positive finite
    /// duration and the target strictly inside `(0, 1)` — whether from
    /// [`ServeOptions`] or from [`SLO_BATCH_US_ENV`] /
    /// [`SLO_TARGET_ENV`] (a set-but-malformed env value is this error,
    /// never a silent fallback).
    InvalidSlo {
        /// Which knob was rejected (`"slo_objective"` / `"slo_target"`
        /// or the env-var name).
        knob: &'static str,
        /// The rejected value, verbatim.
        got: String,
    },
    /// The durable store tier could not be opened: `HOM_STORE_DIR` was
    /// set but the directory is unreadable, its files are corrupt beyond
    /// recovery's torn-tail tolerance, or a store env knob is malformed.
    /// Refusing to start beats silently serving without durability.
    Store {
        /// The underlying `StoreError`, rendered.
        what: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidShards { got, from_env } => {
                let source = if *from_env {
                    SHARDS_ENV
                } else {
                    "ServeOptions::shards"
                };
                write!(
                    f,
                    "shard count must be a nonzero power of two, got {got} (from {source})"
                )
            }
            ConfigError::ZeroCapacity => {
                write!(
                    f,
                    "capacity 0 can hold no live stream (use None for unbounded)"
                )
            }
            ConfigError::ZeroFanout => {
                write!(
                    f,
                    "fanout 0 would make worker tasks with no requests (use None for the default)"
                )
            }
            ConfigError::InvalidSlo { knob, got } => {
                write!(
                    f,
                    "invalid SLO configuration {knob}={got}: objective must be a positive \
                     finite duration, target strictly between 0 and 1"
                )
            }
            ConfigError::Store { what } => {
                write!(f, "durable store tier failed to open: {what}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Why [`ServeEngine::swap_model`] refused a replacement model. Every
/// variant is a rejected input; the engine keeps serving the current
/// model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwapError {
    /// The replacement has fewer concepts than the serving model: live
    /// states can be migrated forward into a grown concept space, never
    /// backward ([`FilterState::migrate`]).
    FewerConcepts {
        /// Concepts in the serving model.
        current: usize,
        /// Concepts in the rejected replacement.
        new: usize,
    },
    /// The replacement's schema differs from the serving model's —
    /// streams would suddenly see different attributes or classes.
    SchemaMismatch,
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::FewerConcepts { current, new } => write!(
                f,
                "cannot swap a {new}-concept model under a {current}-concept one \
                 (states only migrate forward)"
            ),
            SwapError::SchemaMismatch => {
                write!(f, "replacement model's schema differs from the serving one")
            }
        }
    }
}

impl std::error::Error for SwapError {}

/// What a successful [`ServeEngine::swap_model`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapReport {
    /// The engine's model generation after the swap (starts at 0; each
    /// swap increments it).
    pub epoch: u32,
    /// Live streams whose [`FilterState`] was migrated in place.
    pub live_migrated: usize,
    /// Parked streams whose snapshot was decoded, migrated and
    /// re-encoded against the new model.
    pub parked_migrated: usize,
    /// Streams parked in the durable store tier at swap time, left at
    /// their recorded epoch for **lazy** migration: rewriting the store
    /// under the swap's write lock would stall traffic on disk I/O, so
    /// each snapshot migrates on its next unpark instead
    /// ([`FilterState::restore_migrating`]). Always 0 without a store.
    pub parked_deferred: usize,
}

/// Execution options of a [`ServeEngine`]. Like the build and online
/// options, nothing here changes a prediction: shard count, thread
/// count, eviction policy and observability only affect wall-clock time
/// and memory (eviction hibernates a stream bit-identically).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Shards of the stream table — a nonzero power of two, or the
    /// engine refuses to start ([`ConfigError::InvalidShards`]). `None`
    /// reads `HOM_SERVE_SHARDS` (same constraint), defaulting to 16.
    /// More shards mean less lock contention between unrelated streams.
    pub shards: Option<usize>,
    /// Worker threads for [`ServeEngine::submit`] batches. `None` reads
    /// `HOM_THREADS`, defaulting to one per available core.
    pub threads: Option<usize>,
    /// Serve predictions through the §III-C early-terminated enumeration
    /// (default). `false` always runs the full ensemble of Eq. 10 — the
    /// two are bit-identical in output; pruned is usually much cheaper.
    pub prune: bool,
    /// Maximum live streams per shard (nonzero, or
    /// [`ConfigError::ZeroCapacity`]). When an insert exceeds it, the
    /// shard's least-recently-used stream is parked (snapshotted and
    /// dropped from memory). `None` means unbounded.
    pub capacity: Option<usize>,
    /// Idle age, in engine-clock ticks (one tick per request), beyond
    /// which [`ServeEngine::sweep`] parks a stream. `None` disables
    /// TTL sweeping.
    pub ttl: Option<u64>,
    /// Serve batches through the compiled batch kernel
    /// ([`CompiledModel`], default) or the scalar per-request
    /// [`FilterState`] path — bit-identical outputs either way; the
    /// kernel is the fast one. `None` reads `HOM_COMPILED`
    /// ([`COMPILED_ENV`]): `0` disables, anything else (or unset)
    /// enables. Tests pass an explicit value rather than the env var,
    /// which is process-global and racy under a parallel test runner.
    pub compiled: Option<bool>,
    /// Minimum requests per worker task before [`ServeEngine::submit`]
    /// fans out to the thread pool (nonzero, or
    /// [`ConfigError::ZeroFanout`]). Small batches run inline on the
    /// submitting thread no matter how many threads are configured —
    /// dispatching the pool costs more than it buys below a few thousand
    /// requests per task. `None` reads `HOM_SERVE_FANOUT`
    /// ([`FANOUT_ENV`]), defaulting to 4096. Like every other option,
    /// this changes wall-clock behavior only, never an output bit.
    pub fanout: Option<usize>,
    /// Batch-latency SLO objective in nanoseconds (positive and finite,
    /// or [`ConfigError::InvalidSlo`]). Batches slower than this burn
    /// error budget and capture per-stream exemplars. `None` reads
    /// `HOM_SLO_BATCH_US` ([`SLO_BATCH_US_ENV`], in microseconds),
    /// defaulting to 1 ms. Pure telemetry: never changes a prediction.
    pub slo_objective_ns: Option<f64>,
    /// SLO target good fraction, strictly between 0 and 1 (or
    /// [`ConfigError::InvalidSlo`]). `None` reads `HOM_SLO_TARGET`
    /// ([`SLO_TARGET_ENV`]), defaulting to 0.999.
    pub slo_target: Option<f64>,
    /// Observability sink (batch-latency histogram, request/eviction
    /// counters, per-shard occupancy). The default comes from
    /// [`Obs::from_env`]: disabled unless `HOM_TRACE=path.jsonl` is set.
    pub sink: Obs,
    /// The durable tier under the park/unpark path. With a store,
    /// evicted streams go to its WAL/segment files instead of the
    /// in-RAM parked map, so a restart resumes every group-committed
    /// stream bit-identically. `None` reads `HOM_STORE_DIR`
    /// ([`STORE_DIR_ENV`]): when set, the engine opens a
    /// [`StreamStore`] there (sharing this engine's `sink`); when
    /// unset, parking stays in RAM as before. Like every option this
    /// changes durability and wall-clock only — never an output bit.
    pub store: Option<Arc<StreamStore>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            shards: None,
            threads: None,
            prune: true,
            capacity: None,
            ttl: None,
            compiled: None,
            fanout: None,
            slo_objective_ns: None,
            slo_target: None,
            sink: Obs::from_env(),
            store: None,
        }
    }
}

/// Request/eviction counters, accumulated while observed and emitted by
/// [`ServeEngine::flush_trace`]. Plain atomics: the engine has no `&mut
/// self` methods. Request-level counts are folded in **once per batch**
/// from the tasks' [`BatchStats`] — never one `fetch_add` per record.
#[derive(Default)]
struct Counters {
    predicted: AtomicU64,
    observed: AtomicU64,
    batches: AtomicU64,
    evictions: AtomicU64,
    unparks: AtomicU64,
    flushes: AtomicU64,
    /// Predictions the §III-C pruning terminated early.
    pruned: AtomicU64,
    /// Total concepts consulted across predictions (prune-depth sum).
    consulted: AtomicU64,
    /// Exemplars captured from batches over the SLO objective.
    exemplars: AtomicU64,
    /// The most recent distributed trace id observed by
    /// [`ServeEngine::submit`] (0 = no traced batch yet). Not flushed —
    /// it is correlation state, read by incident paths.
    last_trace: AtomicU64,
}

/// The engine's batch-amortized accumulators, all behind the one mutex
/// [`ServeEngine::submit`] takes once per batch (where only the
/// batch-latency histogram used to live).
///
/// Two lifetimes coexist here. The histograms and the dedup tallies are
/// **interval** state: [`ServeEngine::flush_trace`] swaps them out and
/// emits them, so each flush reports what happened since the previous
/// one. The evidence, MAP-hit and request totals are **cumulative** and
/// survive every flush — they back the `/concepts` dashboard and
/// hom-adapt's fleet-evidence watermark, both of which need monotonic
/// totals to take deltas against.
struct Fleet {
    // ---- interval state (reset by flush_trace) ----
    /// Wall-clock per [`ServeEngine::submit`] call, nanoseconds.
    batch_latency: Histogram,
    /// Per-task kernel stage durations, nanoseconds (see
    /// [`BatchStats`]): record intern/slot-resolve, the concept-outer
    /// evaluate pass, and the per-stream apply passes.
    stage_intern_ns: Histogram,
    stage_evaluate_ns: Histogram,
    stage_apply_ns: Histogram,
    /// Batch shape: requests per batch, distinct records per batch.
    batch_requests: Histogram,
    batch_distinct: Histogram,
    /// Interval intern/distinct tallies behind the `serve.dedup_ratio`
    /// gauge.
    interned: u64,
    distinct: u64,
    // ---- cumulative state (never reset) ----
    /// Σ Eq. 7 likelihoods over every absorbed record, fleet-wide.
    likelihood_sum: f64,
    /// Records absorbed, fleet-wide (the likelihood sum's denominator).
    absorbed: u64,
    /// Predictions served / §III-C early terminations / concepts
    /// consulted, fleet-wide (prune-depth analytics for `/concepts`).
    predicted: u64,
    pruned: u64,
    consulted: u64,
    /// Per-concept MAP hits at absorb time (the stream's argmax-prior
    /// concept after each roll).
    map_hits: Vec<u64>,
    /// Slow-batch exemplars for `/slo`.
    exemplars: ExemplarRing,
}

impl Fleet {
    fn new(n_concepts: usize) -> Self {
        Fleet {
            batch_latency: Histogram::new(),
            stage_intern_ns: Histogram::new(),
            stage_evaluate_ns: Histogram::new(),
            stage_apply_ns: Histogram::new(),
            batch_requests: Histogram::new(),
            batch_distinct: Histogram::new(),
            interned: 0,
            distinct: 0,
            likelihood_sum: 0.0,
            absorbed: 0,
            predicted: 0,
            pruned: 0,
            consulted: 0,
            map_hits: vec![0; n_concepts],
            exemplars: ExemplarRing::new(EXEMPLAR_CAPACITY),
        }
    }

    /// Fold one task's (or one scalar request's) accumulator into the
    /// cumulative fields.
    fn absorb_stats(&mut self, stats: &BatchStats) {
        self.interned += stats.interned;
        self.distinct += stats.distinct;
        self.likelihood_sum += stats.likelihood;
        self.absorbed += stats.observed;
        self.predicted += stats.predicted;
        self.pruned += stats.pruned;
        self.consulted += stats.consulted;
        if self.map_hits.len() < stats.map_hits.len() {
            self.map_hits.resize(stats.map_hits.len(), 0);
        }
        for (a, &b) in self.map_hits.iter_mut().zip(stats.map_hits.iter()) {
            *a += b;
        }
    }
}

/// Fleet-wide, per-concept operational analytics — the payload of the
/// `/concepts` endpoint ([`ServeEngine::concept_analytics`]): the
/// drift-pressure dashboard hom-adapt previously computed only for its
/// single monitor stream, here aggregated over every live stream plus
/// the engine's cumulative evidence accumulators.
///
/// Point-in-time quantities (`posterior_mass`, `map_streams`,
/// `mean_entropy`, `live_streams`) are folded from the shard tables at
/// call time — a read-only scrape-time pass that costs the hot path
/// nothing. Cumulative quantities (`map_hits`, `absorbed`,
/// `mean_likelihood`, prune-depth) come from the batch accumulators.
#[derive(Debug, Clone, PartialEq)]
pub struct ConceptAnalytics {
    /// Live streams folded into the point-in-time fields.
    pub live_streams: u64,
    /// Σ over live streams of `P_t(c)` per concept — where the fleet's
    /// posterior mass sits right now.
    pub posterior_mass: Vec<f64>,
    /// Live streams per current MAP concept (the head of each stream's
    /// §III-C prune order — its argmax-prior concept).
    pub map_streams: Vec<u64>,
    /// Cumulative absorb-time MAP hits per concept: how often each
    /// concept was a stream's MAP concept when a labeled record landed.
    pub map_hits: Vec<u64>,
    /// Records absorbed fleet-wide since construction (cumulative).
    pub absorbed: u64,
    /// Predictions served fleet-wide since construction (cumulative).
    pub predicted: u64,
    /// Cumulative mean Eq. 7 likelihood `P(yₜ | y₁..yₜ₋₁)` over every
    /// absorbed record; `1.0` before the first absorb (the same "no
    /// evidence yet" convention as hom-adapt's novelty detector).
    pub mean_likelihood: f64,
    /// Mean normalized posterior entropy over live streams (0 = every
    /// stream certain, 1 = uniform); `0.0` with no live streams.
    pub mean_entropy: f64,
    /// Mean §III-C prune depth (concepts consulted per prediction);
    /// `0.0` before the first prediction.
    pub mean_prune_depth: f64,
    /// Fraction of predictions the pruning terminated early; `0.0`
    /// before the first prediction.
    pub pruned_fraction: f64,
}

/// One stream's live operational state, as served by the introspection
/// API (`/streams/<id>` on the metrics listener) — the engine-level
/// wrapper around [`FilterIntrospection`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamInfo {
    /// `true` when the stream's state is resident in memory; `false`
    /// when it is parked (a hibernated snapshot — introspected here by
    /// decoding without unparking).
    pub live: bool,
    /// The engine's model generation at the time of the query
    /// ([`ServeEngine::epoch`]).
    pub epoch: u32,
    /// The filter quantities themselves, copied bit-for-bit.
    pub introspection: FilterIntrospection,
}

/// What the engine serves with: the mined model plus, when the compiled
/// kernel is enabled, its flattened evaluation form. The two always
/// describe the same model epoch and are swapped together under the one
/// write lock, so a batch can never see a model/kernel mismatch.
struct Serving {
    model: Arc<HighOrderModel>,
    compiled: Option<Arc<CompiledModel>>,
}

/// Per-task scratch of the scalar path — the buffers the filter-view
/// equations borrow (ψ is concept-sized, `classes` class-sized). One per
/// worker task, reused across every stream the task serves; the compiled
/// path's counterpart is [`KernelScratch`].
struct ScalarScratch {
    psi: Vec<f64>,
    classes: Vec<f64>,
}

impl ScalarScratch {
    fn new(model: &HighOrderModel) -> Self {
        ScalarScratch {
            psi: vec![0.0; model.n_concepts()],
            classes: vec![0.0; model.schema().n_classes()],
        }
    }
}

/// A batch's requests grouped by shard, in one flat CSR layout: group
/// `s` is `idx[offsets[s] .. offsets[s+1]]`, holding request indices in
/// batch order. Built with a counting sort — two passes over the batch,
/// two allocations — where a `Vec<Vec<usize>>` would cost an allocation
/// per occupied shard per submit on the hot path.
struct ShardGroups {
    /// Group boundaries, `shards + 1` entries.
    offsets: Vec<u32>,
    /// Request indices, grouped by shard, batch order within a group.
    idx: Vec<u32>,
}

impl ShardGroups {
    fn build(requests: &[Request], shards: usize, shard_bits: u32) -> Self {
        let mut offsets = vec![0u32; shards + 1];
        for r in requests {
            offsets[shard_of(r.stream(), shard_bits) + 1] += 1;
        }
        for s in 0..shards {
            offsets[s + 1] += offsets[s];
        }
        let mut cursor = offsets.clone();
        let mut idx = vec![0u32; requests.len()];
        for (i, r) in requests.iter().enumerate() {
            let s = shard_of(r.stream(), shard_bits);
            idx[cursor[s] as usize] = i as u32;
            cursor[s] += 1;
        }
        ShardGroups { offsets, idx }
    }

    /// Request indices of shard `s`, in batch order.
    #[inline]
    fn group(&self, s: usize) -> &[u32] {
        &self.idx[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// Number of requests on shard `s`.
    #[inline]
    fn len(&self, s: usize) -> usize {
        (self.offsets[s + 1] - self.offsets[s]) as usize
    }
}

/// A concurrent multi-stream serving engine over one shared, immutable
/// [`HighOrderModel`].
///
/// The model is mined offline once and referenced by every stream; the
/// only mutable state is each stream's compact [`FilterState`], kept in
/// a sharded table with one lock per shard. Requests for different
/// shards never contend, and the model is only ever locked for the
/// instant of a [`Self::swap_model`] — the deployment shape of the
/// paper's §III: *"the online component is efficient enough to serve
/// heavy traffic"*.
///
/// # Model maintenance
///
/// The serving model can be **hot-swapped** for an extended one (same
/// concepts plus newly admitted ones, as produced by
/// `HighOrderModel::admit_concept` / `record_occurrence`) without
/// stopping traffic: [`Self::swap_model`] atomically replaces the
/// `Arc`, migrates every live and parked stream's state forward
/// ([`FilterState::migrate`]), and bumps the engine's
/// [`Self::epoch`]. In-flight batches finish against the model they
/// started with; requests arriving after the swap see the new one.
///
/// # Determinism
///
/// Per stream, the engine is bit-identical to driving a dedicated
/// [`hom_core::OnlinePredictor`] with the same records: same
/// predictions, same posteriors, for any shard count, thread count or
/// eviction policy (eviction hibernates streams through the lossless
/// snapshot codec). The differential test suite proves this.
pub struct ServeEngine {
    /// The serving model and its compiled evaluation form, swapped as
    /// one unit. Read-locked for the duration of each batch;
    /// write-locked only by [`Self::swap_model`] (which therefore waits
    /// for in-flight batches to drain, and blocks new ones while states
    /// migrate and the replacement compiles).
    serving: RwLock<Serving>,
    /// Model generation: 0 at construction, +1 per successful swap.
    /// Stamped into engine-written snapshots.
    epoch: AtomicU32,
    shards: Vec<Mutex<Shard>>,
    /// `log2(shards.len())` — the table size is a power of two.
    shard_bits: u32,
    pool: Pool,
    prune: bool,
    capacity: Option<usize>,
    ttl: Option<u64>,
    /// Whether batches run through the compiled kernel (fixed at
    /// construction; a model swap recompiles accordingly).
    compiled: bool,
    /// Minimum requests per worker task (see [`ServeOptions::fanout`]).
    fanout: usize,
    /// Whether any eviction policy (capacity or TTL) is configured.
    /// When neither is, the hot path skips the global clock tick — a
    /// shared-cacheline atomic increment per request that worker threads
    /// would otherwise contend on for a value nothing ever reads.
    track_lru: bool,
    /// Logical clock: one tick per request, the LRU/TTL ordering key.
    clock: AtomicU64,
    obs: Obs,
    counters: Counters,
    /// Batch-amortized accumulators (histograms, fleet evidence,
    /// exemplars) — locked once per submitted batch.
    fleet: Mutex<Fleet>,
    /// The batch-latency objective `/slo` evaluates and exemplar
    /// capture triggers on.
    slo: SloPolicy,
    /// The durable tier under the park/unpark path, when configured
    /// ([`ServeOptions::store`] / `HOM_STORE_DIR`). With a store the
    /// in-RAM parked maps stay empty: every parked snapshot lives here.
    store: Option<Arc<StreamStore>>,
}

impl ServeEngine {
    /// An engine with default [`ServeOptions`] (env-driven shard/thread
    /// counts, pruned predictions, no eviction).
    ///
    /// # Panics
    /// Panics if the model has no concepts, or the environment carries
    /// an invalid `HOM_SERVE_SHARDS` (see [`Self::try_with_options`]).
    pub fn new(model: Arc<HighOrderModel>) -> Self {
        Self::with_options(model, &ServeOptions::default())
    }

    /// [`ServeEngine::new`] with explicit options.
    ///
    /// # Panics
    /// Panics on an invalid configuration — the message is the
    /// [`ConfigError`]'s. Servers that would rather surface the error
    /// use [`Self::try_with_options`].
    pub fn with_options(model: Arc<HighOrderModel>, options: &ServeOptions) -> Self {
        match Self::try_with_options(model, options) {
            Ok(engine) => engine,
            Err(e) => panic!("invalid serve configuration: {e}"),
        }
    }

    /// [`ServeEngine::with_options`], rejecting invalid configuration
    /// with a typed [`ConfigError`] instead of panicking: a zero or
    /// non-power-of-two shard count (whether from
    /// [`ServeOptions::shards`] or `HOM_SERVE_SHARDS`) and a zero
    /// [`ServeOptions::capacity`] are errors, **not** silently clamped —
    /// a rounded shard count would quietly change stream placement.
    ///
    /// # Panics
    /// Panics if the model has no concepts (a [`FilterState`]
    /// precondition — a model bug, not a configuration one).
    pub fn try_with_options(
        model: Arc<HighOrderModel>,
        options: &ServeOptions,
    ) -> Result<Self, ConfigError> {
        assert!(model.n_concepts() > 0, "model has no concepts");
        let (shards, from_env) = match options.shards {
            Some(s) => (s, false),
            None => match env_usize(SHARDS_ENV) {
                Some(s) => (s, true),
                None => (DEFAULT_SHARDS, false),
            },
        };
        if shards == 0 || !shards.is_power_of_two() {
            return Err(ConfigError::InvalidShards {
                got: shards,
                from_env,
            });
        }
        if options.capacity == Some(0) {
            return Err(ConfigError::ZeroCapacity);
        }
        let fanout = match options.fanout {
            Some(0) => return Err(ConfigError::ZeroFanout),
            Some(f) => f,
            None => env_usize(FANOUT_ENV).unwrap_or(DEFAULT_FANOUT),
        };
        let compiled = options
            .compiled
            .unwrap_or_else(|| std::env::var(COMPILED_ENV).map_or(true, |v| v != "0"));
        let objective_ns = match options.slo_objective_ns {
            Some(ns) => ns,
            None => match std::env::var(SLO_BATCH_US_ENV) {
                Ok(v) if !v.is_empty() => match v.parse::<f64>() {
                    Ok(us) => us * 1_000.0,
                    Err(_) => {
                        return Err(ConfigError::InvalidSlo {
                            knob: SLO_BATCH_US_ENV,
                            got: v,
                        })
                    }
                },
                _ => DEFAULT_SLO_OBJECTIVE_NS,
            },
        };
        let target = match options.slo_target {
            Some(t) => t,
            None => match std::env::var(SLO_TARGET_ENV) {
                Ok(v) if !v.is_empty() => match v.parse::<f64>() {
                    Ok(t) => t,
                    Err(_) => {
                        return Err(ConfigError::InvalidSlo {
                            knob: SLO_TARGET_ENV,
                            got: v,
                        })
                    }
                },
                _ => DEFAULT_SLO_TARGET,
            },
        };
        let slo = SloPolicy::new(objective_ns, target).map_err(|e| ConfigError::InvalidSlo {
            knob: match e {
                hom_obs::SloConfigError::InvalidObjective { .. } => "slo_objective",
                hom_obs::SloConfigError::InvalidTarget { .. } => "slo_target",
            },
            got: match e {
                hom_obs::SloConfigError::InvalidObjective { got } => got.to_string(),
                hom_obs::SloConfigError::InvalidTarget { got } => got.to_string(),
            },
        })?;
        let store = match &options.store {
            Some(store) => Some(Arc::clone(store)),
            None => match std::env::var(STORE_DIR_ENV) {
                Ok(dir) if !dir.is_empty() => {
                    // The store shares the engine's sink (rather than
                    // opening its own from the environment) so one
                    // HOM_TRACE file never has two writers.
                    let mut store_options =
                        hom_store::StoreOptions::from_env().map_err(|e| ConfigError::Store {
                            what: e.to_string(),
                        })?;
                    store_options.sink = options.sink.clone();
                    let io = FsIo::open(dir.as_str()).map_err(|e| ConfigError::Store {
                        what: format!("open {dir}: {e}"),
                    })?;
                    Some(Arc::new(
                        StreamStore::open_with(Arc::new(io), store_options).map_err(|e| {
                            ConfigError::Store {
                                what: e.to_string(),
                            }
                        })?,
                    ))
                }
                _ => None,
            },
        };
        let shard_bits = shards.trailing_zeros();
        let threads = options.threads.or_else(|| env_usize(THREADS_ENV));
        let n_concepts = model.n_concepts();
        Ok(ServeEngine {
            serving: RwLock::new(Serving {
                compiled: compiled.then(|| Arc::new(CompiledModel::compile(&model))),
                model,
            }),
            epoch: AtomicU32::new(0),
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(n_concepts)))
                .collect(),
            shard_bits,
            // The pool carries no Obs on purpose: per-batch worker-stats
            // series would swamp a trace at serving rates. The engine
            // emits its own aggregated metrics instead.
            pool: Pool::new(threads),
            prune: options.prune,
            capacity: options.capacity,
            ttl: options.ttl,
            compiled,
            fanout,
            track_lru: options.capacity.is_some() || options.ttl.is_some(),
            clock: AtomicU64::new(0),
            obs: options.sink.clone(),
            counters: Counters::default(),
            fleet: Mutex::new(Fleet::new(n_concepts)),
            slo,
            store,
        })
    }

    fn serving_guard(&self) -> RwLockReadGuard<'_, Serving> {
        // Poisoning can only come from a panic inside swap_model's
        // migration; the swapped-in state is still coherent.
        self.serving.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The model every stream currently predicts with. The returned
    /// `Arc` is a point-in-time handle: after a [`Self::swap_model`] it
    /// keeps the then-serving model alive but no longer reflects the
    /// engine.
    pub fn model(&self) -> Arc<HighOrderModel> {
        Arc::clone(&self.serving_guard().model)
    }

    /// Whether batches run through the compiled batch kernel (fixed at
    /// construction from [`ServeOptions::compiled`] / `HOM_COMPILED`).
    pub fn compiled(&self) -> bool {
        self.compiled
    }

    /// The engine's model generation: 0 until the first successful
    /// [`Self::swap_model`], then the number of swaps so far.
    pub fn epoch(&self) -> u32 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Replace the serving model with `new` — typically the current
    /// model extended by `HighOrderModel::admit_concept` or
    /// `record_occurrence` after a novel segment was admitted — while
    /// traffic keeps flowing.
    ///
    /// The swap takes the model write lock (waiting for in-flight
    /// batches, which hold the read lock, to drain), then migrates
    /// **every** stream forward under it: live states via
    /// [`FilterState::migrate`], parked snapshots by decode → migrate →
    /// re-encode (stamped with the new [`Self::epoch`]). Streams never
    /// observe a torn state: a request either runs entirely against the
    /// old model or entirely against the new one.
    ///
    /// `new` must have the same schema and at least as many concepts as
    /// the serving model, with existing concepts at unchanged ids (the
    /// extension API guarantees this) — otherwise a typed [`SwapError`]
    /// is returned and nothing changes.
    pub fn swap_model(&self, new: Arc<HighOrderModel>) -> Result<SwapReport, SwapError> {
        let pause_start = Instant::now();
        let mut guard = self.serving.write().unwrap_or_else(|e| e.into_inner());
        let old = Arc::clone(&guard.model);
        if new.n_concepts() < old.n_concepts() {
            return Err(SwapError::FewerConcepts {
                current: old.n_concepts(),
                new: new.n_concepts(),
            });
        }
        if new.schema() != old.schema() {
            return Err(SwapError::SchemaMismatch);
        }

        let epoch = self.epoch.load(Ordering::Acquire) + 1;
        let mut live_migrated = 0usize;
        let mut parked_migrated = 0usize;
        let grown = new.n_concepts() > old.n_concepts();
        for shard in &self.shards {
            let mut shard = self.lock(shard);
            if grown {
                // The state table is sized by concept count, so growth
                // rebuilds it: each live row is materialized against the
                // old model, migrated, and re-inserted (keeping its LRU
                // tick) into a table of the new width.
                live_migrated += shard.migrate_live(&old, &new);
            } else {
                live_migrated += shard.table.len();
            }
            for bytes in shard.parked.values_mut() {
                let (state, _) = FilterState::restore_migrating(&new, bytes)
                    .expect("engine-written snapshots are always valid");
                *bytes = state.snapshot_with_epoch(epoch);
                parked_migrated += 1;
            }
        }
        // Store-parked snapshots are NOT rewritten under the write lock
        // (that would stall traffic on disk I/O for every parked
        // stream); they migrate lazily on their next unpark, which
        // `restore_migrating` handles from the epoch stamped in each
        // snapshot.
        let parked_deferred = self.store.as_ref().map_or(0, |s| s.parked_len());

        // Recompile before publishing: the compiled form is part of the
        // serving unit, rebuilt once per model epoch under the same
        // write lock (a batch never pairs an old kernel with a new
        // model, or vice versa).
        guard.compiled = self
            .compiled
            .then(|| Arc::new(CompiledModel::compile(&new)));
        guard.model = new;
        self.epoch.store(epoch, Ordering::Release);
        if self.obs.enabled() {
            self.obs.count("serve.swaps", 1);
            self.obs.gauge("serve.model_epoch", f64::from(epoch));
            self.obs
                .count("serve.swap_live_migrated", live_migrated as u64);
            self.obs
                .count("serve.swap_parked_migrated", parked_migrated as u64);
            // The pause the swap imposed on traffic: write-lock wait
            // (draining in-flight batches) plus the migration itself.
            let mut pause = Histogram::new();
            pause.record(pause_start.elapsed().as_nanos() as f64);
            self.obs.hist("serve.swap_pause_ns", &pause);
        }
        Ok(SwapReport {
            epoch,
            live_migrated,
            parked_migrated,
            parked_deferred,
        })
    }

    /// Number of shards in the stream table.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Worker threads [`Self::submit`] distributes shards over.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Streams currently live (in-memory state) across all shards.
    pub fn live_streams(&self) -> usize {
        self.shards.iter().map(|s| self.lock(s).table.len()).sum()
    }

    /// Streams currently parked (hibernated snapshots) across all
    /// shards, in whichever tier (RAM map or durable store) holds them.
    pub fn parked_streams(&self) -> usize {
        let ram: usize = self.shards.iter().map(|s| self.lock(s).parked.len()).sum();
        ram + self.store.as_ref().map_or(0, |s| s.parked_len())
    }

    /// The durable store under the park/unpark path, when one is
    /// configured ([`ServeOptions::store`] / `HOM_STORE_DIR`) — for
    /// health checks, the `/store` endpoint and explicit
    /// commits/compactions.
    pub fn store(&self) -> Option<&Arc<StreamStore>> {
        self.store.as_ref()
    }

    fn lock<'a>(&self, shard: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
        // A poisoned shard means a classifier panicked mid-request on
        // another thread; the table itself (HashMaps + value types) is
        // still structurally sound, so serving continues.
        shard.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn shard_index(&self, stream: StreamId) -> usize {
        shard_of(stream, self.shard_bits)
    }

    /// Get-or-create the live slot for `stream` in `shard`, bumping its
    /// LRU tick. Parked streams are restored (bit-identically); brand-new
    /// streams start at the uniform prior. Enforces the per-shard
    /// capacity by parking the least-recently-used other stream.
    fn touch(&self, model: &HighOrderModel, shard: &mut Shard, stream: StreamId) -> u32 {
        // The LRU tick is only maintained when an eviction policy can
        // read it: without capacity or TTL, ticking would be a per-request
        // atomic increment on a cacheline shared by every worker thread.
        let now = if self.track_lru {
            self.clock.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        // The hot path — the stream is already live — is one index probe
        // and a tick store into the slot's row.
        if let Some(slot) = shard.index.get(stream) {
            if self.track_lru {
                shard.table.touch(slot, now);
            }
            return slot;
        }
        // This request inserts. Parking the LRU stream *before* the
        // insert admits the same victim set as parking after it: the
        // incoming stream is not yet in the table, so it can never be
        // its own victim.
        self.make_room(shard, stream);
        let slot = match self.take_parked(shard, stream) {
            Some(bytes) => {
                self.counters.unparks.fetch_add(1, Ordering::Relaxed);
                // Decoded with migration because the durable tier can
                // hold snapshots recorded before a model swap (migrated
                // here, lazily, rather than under the swap's write lock);
                // current-epoch snapshots decode straight into the row.
                // Bytes that cannot restore at all — a store directory
                // carried over from an incompatible model — start the
                // stream fresh rather than panicking the serving path.
                match shard.table.decode(model, &bytes) {
                    Ok(incoming) => shard.table.insert_decoded(stream, &incoming, now),
                    Err(_) => shard.table.insert_uniform(stream, now),
                }
            }
            None => shard.table.insert_uniform(stream, now),
        };
        shard.index.insert(stream, slot);
        slot
    }

    /// Enforce the per-shard capacity ahead of an insert: when the shard
    /// is full, park its least-recently-used stream other than `keep`.
    /// Returns whether a stream was parked.
    fn make_room(&self, shard: &mut Shard, keep: StreamId) -> bool {
        let Some(cap) = self.capacity else {
            return false;
        };
        if shard.table.len() < cap {
            return false;
        }
        let Some((victim, slot)) = shard.table.lru_victim(keep) else {
            return false;
        };
        self.park_slot(shard, victim, slot);
        self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Park one live stream: encode its row (current-epoch stamp), free
    /// the slot and tier the snapshot.
    fn park_slot(&self, shard: &mut Shard, stream: StreamId, slot: u32) {
        let bytes = self.encode_row(shard, slot);
        shard.table.remove(slot);
        shard.index.remove(stream);
        self.park_bytes(shard, stream, bytes);
    }

    /// Tier a parked snapshot: into the durable store when one is
    /// configured, the shard's in-RAM map otherwise.
    fn park_bytes(&self, shard: &mut Shard, stream: StreamId, bytes: Vec<u8>) {
        match &self.store {
            Some(store) => store.park(stream, bytes),
            None => {
                shard.parked.insert(stream, bytes);
            }
        }
    }

    /// Take `stream`'s parked snapshot from whichever tier holds it. A
    /// store read error surfaces through the store's health/counters
    /// (`store.io_errors`) and starts the stream fresh — degraded
    /// durability never panics the request path.
    fn take_parked(&self, shard: &mut Shard, stream: StreamId) -> Option<Vec<u8>> {
        if let Some(bytes) = shard.parked.remove(&stream) {
            return Some(bytes);
        }
        let store = self.store.as_ref()?;
        store.unpark(stream).ok().flatten()
    }

    /// Give the durable tier its group-commit heartbeat: a cheap
    /// pending/cadence check per batch, one fsync per interval. No-op
    /// without a store; errors surface as degraded health, not here.
    fn commit_tick(&self) {
        if let Some(store) = &self.store {
            let _ = store.maybe_commit();
        }
    }

    /// Serialize a live row the engine's way: current-epoch stamp.
    fn encode_row(&self, shard: &Shard, slot: u32) -> Vec<u8> {
        shard.table.encode(slot, self.epoch.load(Ordering::Acquire))
    }

    /// Apply one request against an already-locked shard (the scalar
    /// path): touch the stream's slot, borrow its row as a [`FilterView`]
    /// and run the update equations on it with the task's scratch.
    ///
    /// Telemetry lands in `stats` — cheap task-local adds (the batch
    /// folds them into the engine once, see [`Self::submit`]) that read
    /// only values the update just computed, so the scalar and compiled
    /// paths derive **identical** counters from identical logical events
    /// (`tests/obs_differential.rs` asserts the integer equality).
    fn process(
        &self,
        model: &HighOrderModel,
        shard: &mut Shard,
        request: &Request,
        scratch: &mut ScalarScratch,
        stats: &mut BatchStats,
    ) -> Response {
        let measure = self.obs.enabled();
        if measure {
            stats.requests += 1;
        }
        match request {
            Request::Predict { stream, x } => {
                let slot = self.touch(model, shard, *stream);
                let view = shard.table.view(slot);
                let (pred, consulted) = if self.prune {
                    view.predict_pruned(model, x, &mut scratch.classes)
                } else {
                    (
                        view.predict(model, x, &mut scratch.classes),
                        model.n_concepts(),
                    )
                };
                if measure {
                    stats.predicted += 1;
                    stats.consulted += consulted as u64;
                    stats.pruned += u64::from(consulted < model.n_concepts());
                }
                Response {
                    stream: *stream,
                    prediction: Some(pred),
                }
            }
            Request::Observe { stream, x, y } => {
                let slot = self.touch(model, shard, *stream);
                let mut view = shard.table.view(slot);
                view.observe(model, x, *y, &mut scratch.psi);
                if measure {
                    stats.observed += 1;
                    stats.likelihood += *view.last_likelihood;
                    stats.map_hit(view.order[0] as usize);
                }
                Response {
                    stream: *stream,
                    prediction: None,
                }
            }
            Request::Step { stream, x, y } => {
                let slot = self.touch(model, shard, *stream);
                let mut view = shard.table.view(slot);
                let (pred, consulted) = if self.prune {
                    view.predict_pruned(model, x, &mut scratch.classes)
                } else {
                    (
                        view.predict(model, x, &mut scratch.classes),
                        model.n_concepts(),
                    )
                };
                view.observe(model, x, *y, &mut scratch.psi);
                if measure {
                    stats.predicted += 1;
                    stats.consulted += consulted as u64;
                    stats.pruned += u64::from(consulted < model.n_concepts());
                    stats.observed += 1;
                    stats.likelihood += *view.last_likelihood;
                    stats.map_hit(view.order[0] as usize);
                }
                Response {
                    stream: *stream,
                    prediction: Some(pred),
                }
            }
            Request::Advance { stream, k } => {
                let slot = self.touch(model, shard, *stream);
                let mut view = shard.table.view(slot);
                view.advance_by(model, *k);
                Response {
                    stream: *stream,
                    prediction: None,
                }
            }
        }
    }

    /// Apply a batch of requests, returning one response per request in
    /// the same order.
    ///
    /// Requests are grouped by shard; each shard's group is processed
    /// sequentially (preserving per-stream order — a stream always lives
    /// on one shard). Shard groups are then packed into worker tasks
    /// whose granularity follows the batch: at least
    /// [`ServeOptions::fanout`] requests per task, never more tasks than
    /// threads or occupied shards, and a batch that only fills one task
    /// runs **inline** on the submitting thread (no pool dispatch at
    /// all) — which is why multi-thread engines are never slower than
    /// single-thread ones on small batches. With the compiled kernel
    /// enabled, each task makes one [`CompiledModel::evaluate`] pass
    /// over its distinct records before applying per-stream updates.
    ///
    /// None of that granularity is observable in the responses: the
    /// result is independent of thread count, task packing and kernel
    /// choice. The whole batch runs against one model generation: a
    /// concurrent [`Self::swap_model`] waits for it.
    pub fn submit(&self, requests: &[Request]) -> Vec<Response> {
        let measure = self.obs.enabled();
        let t0 = measure.then(Instant::now);
        // Under an active distributed trace (installed by the caller via
        // `Obs::trace_scope` — the cluster worker does this for traced
        // requests), the whole batch gets one `serve.batch` span and the
        // engine remembers the trace id so incident paths (adapt dumps,
        // exemplars) can link back to the fleet-wide trace. Untraced
        // batches skip all of it.
        let trace = self.obs.current_trace();
        if trace != 0 {
            self.counters.last_trace.store(trace, Ordering::Relaxed);
        }
        let _batch_span = (trace != 0).then(|| self.obs.span("serve.batch"));
        let serving = self.serving_guard();

        let groups = ShardGroups::build(requests, self.shards.len(), self.shard_bits);
        let nonempty: Vec<usize> = (0..self.shards.len())
            .filter(|&s| groups.len(s) > 0)
            .collect();

        let tasks = (requests.len() / self.fanout)
            .min(self.pool.threads())
            .min(nonempty.len())
            .max(1);

        // Every slot is written exactly once (each request index appears
        // in exactly one shard group); the placeholder never survives.
        let mut out: Vec<Response> = vec![
            Response {
                stream: 0,
                prediction: None,
            };
            requests.len()
        ];
        // One BatchStats per task (empty when telemetry is off — the
        // accumulation is gated inside the processing loops).
        let mut task_stats: Vec<BatchStats>;
        if tasks <= 1 {
            task_stats =
                vec![
                    self.run_task(&serving, &groups, &nonempty, requests, &mut |i, r| {
                        out[i] = r;
                    }),
                ];
        } else {
            let chunks = partition_shards(&nonempty, &groups, tasks, requests.len());
            let parts = self.pool.map_slice(&chunks, |_, chunk| {
                let mut collected = Vec::new();
                let stats = self.run_task(&serving, &groups, chunk, requests, &mut |i, r| {
                    collected.push((i, r));
                });
                (collected, stats)
            });
            task_stats = Vec::with_capacity(parts.len());
            for (part, stats) in parts {
                for (i, r) in part {
                    out[i] = r;
                }
                task_stats.push(stats);
            }
        }

        if let Some(t0) = t0 {
            let elapsed_ns = t0.elapsed().as_nanos() as u64;
            self.counters.batches.fetch_add(1, Ordering::Relaxed);
            let mut merged = BatchStats::default();
            for stats in &task_stats {
                merged.merge(stats);
            }
            self.fold_counters(&merged);
            let mut fleet = self.lock_fleet();
            fleet.batch_latency.record(elapsed_ns as f64);
            fleet.batch_requests.record(requests.len() as f64);
            if serving.compiled.is_some() {
                fleet.batch_distinct.record(merged.distinct as f64);
            }
            // One stage sample per task, so the histograms expose the
            // fan-out shape, not just batch totals.
            for stats in &task_stats {
                if serving.compiled.is_some() {
                    fleet.stage_intern_ns.record(stats.intern_ns as f64);
                    fleet.stage_evaluate_ns.record(stats.evaluate_ns as f64);
                }
                fleet.stage_apply_ns.record(stats.apply_ns as f64);
            }
            fleet.absorb_stats(&merged);
            // Slow batch: link it to concrete streams. Deterministic
            // hash sampling, bounded per batch, and only on the (rare)
            // over-objective path — never steady-state work.
            if elapsed_ns as f64 > self.slo.objective_ns() {
                let mut captured = 0u64;
                for r in requests {
                    let stream = r.stream();
                    if hash_sampled(stream, EXEMPLAR_LOG2_RATE) {
                        let shard = self.shard_index(stream) as u32;
                        fleet.exemplars.push(stream, shard, elapsed_ns, trace);
                        captured += 1;
                        if captured as usize >= EXEMPLARS_PER_BATCH {
                            break;
                        }
                    }
                }
                if captured > 0 {
                    self.counters
                        .exemplars
                        .fetch_add(captured, Ordering::Relaxed);
                }
            }
        }
        // Outside the telemetry gate: durability is not observability.
        self.commit_tick();
        out
    }

    /// Fold a batch's merged [`BatchStats`] into the flushable counters:
    /// a handful of `fetch_add`s per **batch**, replacing the per-record
    /// atomic traffic the hot path used to pay.
    fn fold_counters(&self, stats: &BatchStats) {
        self.counters
            .predicted
            .fetch_add(stats.predicted, Ordering::Relaxed);
        self.counters
            .observed
            .fetch_add(stats.observed, Ordering::Relaxed);
        self.counters
            .pruned
            .fetch_add(stats.pruned, Ordering::Relaxed);
        self.counters
            .consulted
            .fetch_add(stats.consulted, Ordering::Relaxed);
    }

    fn lock_fleet(&self) -> MutexGuard<'_, Fleet> {
        self.fleet.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Process one worker task: the given shards, in order, each locked
    /// once. With the compiled kernel, the task's records are interned
    /// (duplicates collapse), evaluated in one concept-outer pass, and
    /// the per-request work becomes table lookups; without it, each
    /// request runs the scalar path. Identical responses either way.
    fn run_task(
        &self,
        serving: &Serving,
        groups: &ShardGroups,
        shard_ids: &[usize],
        requests: &[Request],
        emit: &mut dyn FnMut(usize, Response),
    ) -> BatchStats {
        // Stage timing is per *task* — a handful of clock reads per
        // batch, with per-record costs derived by division afterwards.
        // The disabled-telemetry path takes none of them.
        let measure = self.obs.enabled();
        let mut stats = BatchStats::default();
        match &serving.compiled {
            Some(cm) => {
                let t_stage = measure.then(Instant::now);
                let n_requests: usize = shard_ids.iter().map(|&s| groups.len(s)).sum();
                let mut table = BatchTable::with_capacity(n_requests);
                // Record index per request, in task iteration order
                // (u32::MAX for Advance requests, which carry none).
                let mut recs: Vec<u32> = Vec::with_capacity(n_requests);
                for &s in shard_ids {
                    for &i in groups.group(s) {
                        recs.push(match &requests[i as usize] {
                            Request::Predict { x, .. } => table.intern(x, false),
                            Request::Observe { x, .. } | Request::Step { x, .. } => {
                                table.intern(x, true)
                            }
                            Request::Advance { .. } => u32::MAX,
                        });
                    }
                }
                let t_stage = t_stage.map(|t| {
                    stats.intern_ns = t.elapsed().as_nanos() as u64;
                    stats.interned = table.n_interned();
                    stats.distinct = table.n_records() as u64;
                    Instant::now()
                });
                cm.evaluate(&mut table);
                let t_stage = t_stage.map(|t| {
                    stats.evaluate_ns = t.elapsed().as_nanos() as u64;
                    Instant::now()
                });
                let mut scratch = KernelScratch::new(cm);
                // Lookahead distance of the software prefetches below:
                // far enough ahead to overlap a memory round-trip with
                // useful work, near enough that the lines are still
                // resident when their request comes up.
                const PREFETCH: usize = 8;
                let mut slots: Vec<u32> = Vec::new();
                let mut at = 0;
                for &s in shard_ids {
                    let mut shard = self.lock(&self.shards[s]);
                    let group = groups.group(s);
                    if self.capacity.is_none() {
                        // Staged processing. With no eviction configured
                        // a resolved slot can never be invalidated later
                        // in the group, so the group splits into two
                        // passes: resolve every stream's slot (with the
                        // index probes prefetched ahead — at 100k live
                        // streams each probe is otherwise a cache miss),
                        // then run the kernel (with each stream's state
                        // rows prefetched ahead). Purely a wall-clock
                        // reordering: streams are independent, so
                        // per-stream request order — the only order that
                        // matters — is unchanged.
                        for &i in group.iter().take(PREFETCH) {
                            shard.index.prefetch(requests[i as usize].stream());
                        }
                        slots.clear();
                        for (k, &i) in group.iter().enumerate() {
                            if let Some(&j) = group.get(k + PREFETCH) {
                                shard.index.prefetch(requests[j as usize].stream());
                            }
                            slots.push(self.touch(
                                &serving.model,
                                &mut shard,
                                requests[i as usize].stream(),
                            ));
                        }
                        for &slot in slots.iter().take(PREFETCH) {
                            shard.table.prefetch(slot);
                        }
                        for (k, &i) in group.iter().enumerate() {
                            if let Some(&next) = slots.get(k + PREFETCH) {
                                shard.table.prefetch(next);
                            }
                            emit(
                                i as usize,
                                self.process_compiled(
                                    cm,
                                    &table,
                                    &mut shard,
                                    &requests[i as usize],
                                    recs[at + k],
                                    slots[k],
                                    &mut scratch,
                                    &mut stats,
                                ),
                            );
                        }
                    } else {
                        // Eviction may repack slots on any insert:
                        // resolve and process one request at a time.
                        for (k, &i) in group.iter().enumerate() {
                            let slot = self.touch(
                                &serving.model,
                                &mut shard,
                                requests[i as usize].stream(),
                            );
                            emit(
                                i as usize,
                                self.process_compiled(
                                    cm,
                                    &table,
                                    &mut shard,
                                    &requests[i as usize],
                                    recs[at + k],
                                    slot,
                                    &mut scratch,
                                    &mut stats,
                                ),
                            );
                        }
                    }
                    at += group.len();
                }
                if let Some(t) = t_stage {
                    stats.apply_ns = t.elapsed().as_nanos() as u64;
                }
            }
            None => {
                let t_stage = measure.then(Instant::now);
                let mut scratch = ScalarScratch::new(&serving.model);
                for &s in shard_ids {
                    let mut shard = self.lock(&self.shards[s]);
                    for &i in groups.group(s) {
                        emit(
                            i as usize,
                            self.process(
                                &serving.model,
                                &mut shard,
                                &requests[i as usize],
                                &mut scratch,
                                &mut stats,
                            ),
                        );
                    }
                }
                // The scalar path has no intern/evaluate stages: every
                // request is classifier work + state update, all "apply".
                if let Some(t) = t_stage {
                    stats.apply_ns = t.elapsed().as_nanos() as u64;
                }
            }
        }
        stats
    }

    /// [`Self::process`] against the batch kernel: same lifecycle, same
    /// counters, with classifier work replaced by [`BatchTable`] reads.
    /// `slot` is the stream's already-touched slot (resolved by the
    /// caller so the staged path can prefetch it ahead of time).
    #[allow(clippy::too_many_arguments)]
    fn process_compiled(
        &self,
        cm: &CompiledModel,
        table: &BatchTable<'_>,
        shard: &mut Shard,
        request: &Request,
        rec: u32,
        slot: u32,
        scratch: &mut KernelScratch,
        stats: &mut BatchStats,
    ) -> Response {
        let measure = self.obs.enabled();
        if measure {
            stats.requests += 1;
        }
        match request {
            Request::Predict { stream, .. } => {
                let view = shard.table.view(slot);
                let (pred, consulted) = if self.prune {
                    cm.predict_pruned(&view, table, rec, scratch)
                } else {
                    (cm.predict(&view, table, rec, scratch), cm.n_concepts())
                };
                if measure {
                    stats.predicted += 1;
                    stats.consulted += consulted as u64;
                    stats.pruned += u64::from(consulted < cm.n_concepts());
                }
                Response {
                    stream: *stream,
                    prediction: Some(pred),
                }
            }
            Request::Observe { stream, y, .. } => {
                let mut view = shard.table.view(slot);
                cm.observe(&mut view, table, rec, *y, scratch);
                if measure {
                    stats.observed += 1;
                    stats.likelihood += *view.last_likelihood;
                    stats.map_hit(view.order[0] as usize);
                }
                Response {
                    stream: *stream,
                    prediction: None,
                }
            }
            Request::Step { stream, y, .. } => {
                let mut view = shard.table.view(slot);
                let (pred, consulted) = if self.prune {
                    cm.predict_pruned(&view, table, rec, scratch)
                } else {
                    (cm.predict(&view, table, rec, scratch), cm.n_concepts())
                };
                cm.observe(&mut view, table, rec, *y, scratch);
                if measure {
                    stats.predicted += 1;
                    stats.consulted += consulted as u64;
                    stats.pruned += u64::from(consulted < cm.n_concepts());
                    stats.observed += 1;
                    stats.likelihood += *view.last_likelihood;
                    stats.map_hit(view.order[0] as usize);
                }
                Response {
                    stream: *stream,
                    prediction: Some(pred),
                }
            }
            Request::Advance { stream, k } => {
                let mut view = shard.table.view(slot);
                cm.advance_by(&mut view, *k);
                Response {
                    stream: *stream,
                    prediction: None,
                }
            }
        }
    }

    /// Classify an unlabeled record on `stream` (Eq. 10, pruned per the
    /// engine's options). Creates the stream at the uniform prior if it
    /// does not exist.
    pub fn predict(&self, stream: StreamId, x: &[f64]) -> ClassId {
        self.one(Request::Predict {
            stream,
            x: x.to_vec(),
        })
        .prediction
        .expect("predict returns a prediction")
    }

    /// Absorb a labeled record into `stream` (Eqs. 5, 7–9).
    pub fn observe(&self, stream: StreamId, x: &[f64], y: ClassId) {
        self.one(Request::Observe {
            stream,
            x: x.to_vec(),
            y,
        });
    }

    /// Predict then absorb one record on `stream` — the
    /// `OnlinePredictor::step` lifecycle.
    pub fn step(&self, stream: StreamId, x: &[f64], y: ClassId) -> ClassId {
        self.one(Request::Step {
            stream,
            x: x.to_vec(),
            y,
        })
        .prediction
        .expect("step returns a prediction")
    }

    /// Advance `stream` by `k` unlabeled timestamps (§III-B).
    pub fn advance(&self, stream: StreamId, k: usize) {
        self.one(Request::Advance { stream, k });
    }

    fn one(&self, request: Request) -> Response {
        // Single requests take the scalar path directly: building a
        // one-record batch table costs more than it amortizes, and the
        // two paths are bit-identical anyway.
        let serving = self.serving_guard();
        let mut scratch = ScalarScratch::new(&serving.model);
        let mut stats = BatchStats::default();
        let s = self.shard_index(request.stream());
        let response = {
            let mut shard = self.lock(&self.shards[s]);
            self.process(
                &serving.model,
                &mut shard,
                &request,
                &mut scratch,
                &mut stats,
            )
        };
        if self.obs.enabled() {
            self.fold_counters(&stats);
            self.lock_fleet().absorb_stats(&stats);
        }
        self.commit_tick();
        response
    }

    /// Read-only view of a stream's filter state (live or parked);
    /// `None` if the engine has never seen the stream. Never changes any
    /// state — peeking at a parked stream decodes its snapshot without
    /// unparking it.
    pub fn peek<R>(&self, stream: StreamId, f: impl FnOnce(&FilterState) -> R) -> Option<R> {
        let serving = self.serving_guard();
        let shard = self.lock(&self.shards[self.shard_index(stream)]);
        if let Some(slot) = shard.index.get(stream) {
            return Some(f(&shard.table.materialize(&serving.model, slot)));
        }
        let bytes = self.parked_bytes(&shard, stream)?;
        let (state, _) = FilterState::restore_migrating(&serving.model, &bytes).ok()?;
        Some(f(&state))
    }

    /// A parked stream's snapshot bytes from whichever tier holds it,
    /// without unparking — the read-only introspection path. Store bytes
    /// may be stamped with an older model epoch (lazy post-swap
    /// migration); callers decode with
    /// [`FilterState::restore_migrating`].
    fn parked_bytes(&self, shard: &Shard, stream: StreamId) -> Option<Vec<u8>> {
        if let Some(bytes) = shard.parked.get(&stream) {
            return Some(bytes.clone());
        }
        self.store.as_ref()?.get(stream).ok().flatten()
    }

    /// The stream's current posterior `P_t(c)`, if the stream exists.
    pub fn posterior(&self, stream: StreamId) -> Option<Vec<f64>> {
        self.peek(stream, |s| s.posterior().to_vec())
    }

    /// A stream's full introspection snapshot — the payload of the
    /// `/streams/<id>` route. Like [`Self::peek`] this never mutates
    /// anything: a parked stream is decoded without being unparked.
    /// `None` if the engine has never seen the stream.
    pub fn stream_info(&self, stream: StreamId) -> Option<StreamInfo> {
        let serving = self.serving_guard();
        let epoch = self.epoch.load(Ordering::Acquire);
        let shard = self.lock(&self.shards[self.shard_index(stream)]);
        if let Some(slot) = shard.index.get(stream) {
            return Some(StreamInfo {
                live: true,
                epoch,
                introspection: shard.table.materialize(&serving.model, slot).introspect(),
            });
        }
        let bytes = self.parked_bytes(&shard, stream)?;
        let (state, _) = FilterState::restore_migrating(&serving.model, &bytes).ok()?;
        Some(StreamInfo {
            live: false,
            epoch,
            introspection: state.introspect(),
        })
    }

    /// Per-shard `(live, parked)` stream counts, in shard order — the
    /// payload of the `/shards` route and the same numbers the
    /// `serve.shard_live` / `serve.shard_parked` trace series report.
    pub fn shard_occupancy(&self) -> Vec<(usize, usize)> {
        let mut occupancy: Vec<(usize, usize)> = self
            .shards
            .iter()
            .map(|s| {
                let shard = self.lock(s);
                (shard.table.len(), shard.parked.len())
            })
            .collect();
        // Store-parked streams belong to their home shard in this view:
        // the tier is an implementation detail of parking, not a
        // placement change.
        if let Some(store) = &self.store {
            for id in store.parked_ids() {
                occupancy[self.shard_index(id)].1 += 1;
            }
        }
        occupancy
    }

    /// Serialize a stream's state with the versioned snapshot codec —
    /// restorable bit-identically into this or any engine over an
    /// equivalent model. `None` if the stream does not exist.
    pub fn snapshot(&self, stream: StreamId) -> Option<Vec<u8>> {
        // The model read lock keeps a swap (new row width, new epoch)
        // from interleaving with the encode.
        let _serving = self.serving_guard();
        let shard = self.lock(&self.shards[self.shard_index(stream)]);
        if let Some(slot) = shard.index.get(stream) {
            return Some(self.encode_row(&shard, slot));
        }
        // Store-parked bytes are returned as recorded — possibly an
        // older epoch's stamp, which `restore`/`restore_migrating`
        // accepts like any other saved snapshot.
        self.parked_bytes(&shard, stream)
    }

    /// Every stream id this engine holds state for — live, RAM-parked
    /// and store-parked — in ascending order. This is the cluster
    /// rebalancer's census: when the worker set changes, the router
    /// scrapes each worker's stream list, recomputes ring ownership and
    /// migrates exactly the ids whose owner moved.
    pub fn stream_ids(&self) -> Vec<StreamId> {
        let mut ids = std::collections::BTreeSet::new();
        for shard in &self.shards {
            let shard = self.lock(shard);
            for (id, _, _) in shard.table.iter() {
                ids.insert(id);
            }
            ids.extend(shard.parked.keys().copied());
        }
        if let Some(store) = &self.store {
            ids.extend(store.parked_ids());
        }
        ids.into_iter().collect()
    }

    /// Migrate a stream **out**: serialize its state with the snapshot
    /// codec and remove every trace of it from this engine (live slot,
    /// RAM-parked map, durable-store tombstone), atomically under the
    /// stream's shard lock. `None` if the stream does not exist.
    ///
    /// This is the source half of cluster stream migration; the target
    /// half is [`Self::restore`] on the receiving engine. Store-parked
    /// bytes may carry an older model epoch (lazy post-swap migration);
    /// `restore` migrates them forward on arrival, so a park → swap →
    /// migrate sequence still lands bit-identical to a stream that
    /// lived through the same swap in one engine.
    pub fn extract(&self, stream: StreamId) -> Option<Vec<u8>> {
        let _serving = self.serving_guard();
        let mut shard = self.lock(&self.shards[self.shard_index(stream)]);
        let bytes = if let Some(slot) = shard.index.remove(stream) {
            let bytes = self.encode_row(&shard, slot);
            shard.table.remove(slot);
            Some(bytes)
        } else if let Some(bytes) = shard.parked.remove(&stream) {
            Some(bytes)
        } else {
            self.store
                .as_ref()
                .and_then(|s| s.get(stream).ok().flatten())
        };
        if bytes.is_some() {
            // Tombstone any store copy so a restart on this worker does
            // not resurrect a stream that now lives elsewhere.
            if let Some(store) = &self.store {
                store.remove(stream);
            }
        }
        bytes
    }

    /// Install a snapshotted state as `stream`, validating the bytes
    /// first (corrupt or truncated input is an error, never a panic).
    /// Replaces any existing state of that stream.
    ///
    /// Snapshots taken against an **older generation** of the engine's
    /// model — fewer concepts, e.g. saved before a [`Self::swap_model`]
    /// admitted one — are accepted and migrated forward on the way in
    /// ([`FilterState::restore_migrating`]); a snapshot with *more*
    /// concepts than the serving model is rejected with
    /// [`SnapshotError::ModelMismatch`].
    ///
    /// Like a request that inserts, a restore into a full shard first
    /// parks the shard's least-recently-used stream, so the capacity
    /// holds however many streams migrate in.
    pub fn restore(&self, stream: StreamId, bytes: &[u8]) -> Result<(), SnapshotError> {
        let serving = self.serving_guard();
        let evicted = {
            let mut shard = self.lock(&self.shards[self.shard_index(stream)]);
            // Validate before changing anything: a rejected snapshot
            // leaves the engine exactly as it was.
            let incoming = shard.table.decode(&serving.model, bytes)?;
            shard.parked.remove(&stream);
            // The restored state supersedes any store-parked snapshot;
            // like an unpark, it is volatile until the stream is next
            // parked.
            if let Some(store) = &self.store {
                store.mark_resident(stream);
            }
            if let Some(slot) = shard.index.remove(stream) {
                shard.table.remove(slot);
            }
            let evicted = self.make_room(&mut shard, stream);
            // Ticked under the shard lock, like every request, so the
            // shard's LRU list stays in tick order.
            let now = self.clock.fetch_add(1, Ordering::Relaxed);
            let slot = shard.table.insert_decoded(stream, &incoming, now);
            shard.index.insert(stream, slot);
            evicted
        };
        if evicted {
            self.commit_tick();
        }
        Ok(())
    }

    /// Hibernate a live stream now (snapshot it and free its state).
    /// Returns `false` if the stream is not live. The stream transparently
    /// resumes — bit-identically — on its next request.
    pub fn park(&self, stream: StreamId) -> bool {
        let _serving = self.serving_guard();
        let parked = {
            let mut shard = self.lock(&self.shards[self.shard_index(stream)]);
            match shard.index.get(stream) {
                Some(slot) => {
                    self.park_slot(&mut shard, stream, slot);
                    self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                    true
                }
                None => false,
            }
        };
        if parked {
            self.commit_tick();
        }
        parked
    }

    /// Forget a stream entirely (live or parked). Returns whether it
    /// existed. A later request for the id starts a fresh stream at the
    /// uniform prior.
    pub fn remove(&self, stream: StreamId) -> bool {
        let mut shard = self.lock(&self.shards[self.shard_index(stream)]);
        let was_live = match shard.index.remove(stream) {
            Some(slot) => {
                shard.table.remove(slot);
                true
            }
            None => false,
        };
        let was_parked = shard.parked.remove(&stream).is_some();
        // The store appends a tombstone (durable at the next commit), so
        // a restart does not resurrect the forgotten stream.
        let was_stored = self.store.as_ref().is_some_and(|s| s.remove(stream));
        was_live || was_parked || was_stored
    }

    /// Park every live stream idle for more than the configured
    /// [`ServeOptions::ttl`] engine ticks. Returns the number parked
    /// (always 0 when no TTL is configured).
    pub fn sweep(&self) -> usize {
        let Some(ttl) = self.ttl else { return 0 };
        let _serving = self.serving_guard();
        let now = self.clock.load(Ordering::Relaxed);
        let mut parked = 0;
        for shard in &self.shards {
            let mut shard = self.lock(shard);
            // The idle streams are the cold end of the LRU list.
            for (id, slot) in shard.table.idle(now, ttl) {
                self.park_slot(&mut shard, id, slot);
                parked += 1;
            }
        }
        if parked > 0 {
            self.counters.evictions.fetch_add(parked, Ordering::Relaxed);
            self.commit_tick();
        }
        parked as usize
    }

    /// Emit the metrics accumulated since the last flush — request and
    /// eviction counters, the kernel-stage and batch-shape histograms,
    /// per-shard occupancy series and the fleet concept analytics —
    /// then reset the interval state. A no-op when unobserved; called
    /// automatically on drop.
    pub fn flush_trace(&self) {
        if !self.obs.enabled() {
            return;
        }
        let predicted = self.counters.predicted.swap(0, Ordering::Relaxed);
        let observed = self.counters.observed.swap(0, Ordering::Relaxed);
        let batches = self.counters.batches.swap(0, Ordering::Relaxed);
        let evictions = self.counters.evictions.swap(0, Ordering::Relaxed);
        let unparks = self.counters.unparks.swap(0, Ordering::Relaxed);
        let pruned = self.counters.pruned.swap(0, Ordering::Relaxed);
        let consulted = self.counters.consulted.swap(0, Ordering::Relaxed);
        let exemplars = self.counters.exemplars.swap(0, Ordering::Relaxed);
        // Pruned/consulted/exemplars are bounded by the request counters
        // (no prediction, no prune; no batch, no exemplar), so the
        // original quiet-engine guard still covers them: an idle flush
        // emits nothing at all.
        if predicted + observed + batches + evictions + unparks == 0 {
            return;
        }
        self.obs.count("serve.records_predicted", predicted);
        self.obs.count("serve.records_observed", observed);
        self.obs.count("serve.batches", batches);
        self.obs.count("serve.evictions", evictions);
        self.obs.count("serve.unparks", unparks);
        self.obs.count("serve.pruned_records", pruned);
        self.obs.count("serve.concepts_consulted", consulted);
        self.obs.count("serve.slo_exemplars", exemplars);

        // Swap out the interval accumulators under one short lock, emit
        // after releasing it; copy the cumulative analytics out too.
        let (latency, intern, evaluate, apply, shape_req, shape_distinct, interned, distinct);
        let (likelihood_sum, absorbed, map_hits);
        {
            let mut fleet = self.lock_fleet();
            latency = std::mem::replace(&mut fleet.batch_latency, Histogram::new());
            intern = std::mem::replace(&mut fleet.stage_intern_ns, Histogram::new());
            evaluate = std::mem::replace(&mut fleet.stage_evaluate_ns, Histogram::new());
            apply = std::mem::replace(&mut fleet.stage_apply_ns, Histogram::new());
            shape_req = std::mem::replace(&mut fleet.batch_requests, Histogram::new());
            shape_distinct = std::mem::replace(&mut fleet.batch_distinct, Histogram::new());
            interned = std::mem::take(&mut fleet.interned);
            distinct = std::mem::take(&mut fleet.distinct);
            likelihood_sum = fleet.likelihood_sum;
            absorbed = fleet.absorbed;
            map_hits = fleet.map_hits.clone();
        }
        for (name, hist) in [
            ("serve.batch_latency_ns", &latency),
            ("serve.stage_intern_ns", &intern),
            ("serve.stage_evaluate_ns", &evaluate),
            ("serve.stage_apply_ns", &apply),
            ("serve.batch_requests", &shape_req),
            ("serve.batch_distinct", &shape_distinct),
        ] {
            if hist.count() > 0 {
                self.obs.hist(name, hist);
            }
        }
        if distinct > 0 {
            self.obs
                .gauge("serve.dedup_ratio", interned as f64 / distinct as f64);
        }
        if absorbed > 0 {
            self.obs.gauge(
                "serve.fleet_mean_likelihood",
                likelihood_sum / absorbed as f64,
            );
        }

        // Per-shard occupancy: one series sample per flush, indexed by
        // flush sequence, one value per shard.
        let flush = self.counters.flushes.fetch_add(1, Ordering::Relaxed);
        let (live, mut parked): (Vec<f64>, Vec<f64>) = self
            .shards
            .iter()
            .map(|s| {
                let shard = self.lock(s);
                (shard.table.len() as f64, shard.parked.len() as f64)
            })
            .unzip();
        if let Some(store) = &self.store {
            for id in store.parked_ids() {
                parked[self.shard_index(id)] += 1.0;
            }
        }
        self.obs.series("serve.shard_live", flush, &live);
        self.obs.series("serve.shard_parked", flush, &parked);
        self.obs.gauge("serve.live_streams", live.iter().sum());
        self.obs.gauge("serve.parked_streams", parked.iter().sum());

        // Fleet concept analytics: point-in-time posterior mass and MAP
        // share folded from the live tables (scrape-time cost only),
        // plus the cumulative absorb-time MAP hits.
        let analytics = self.concept_analytics();
        self.obs.series(
            "serve.concept_posterior_mass",
            flush,
            &analytics.posterior_mass,
        );
        let map_streams: Vec<f64> = analytics.map_streams.iter().map(|&v| v as f64).collect();
        self.obs
            .series("serve.concept_map_streams", flush, &map_streams);
        let hits: Vec<f64> = map_hits.iter().map(|&v| v as f64).collect();
        self.obs.series("serve.concept_map_hits", flush, &hits);
        self.obs
            .gauge("serve.fleet_mean_entropy", analytics.mean_entropy);

        // Chain the durable tier's own `store.*` interval metrics onto
        // the engine's flush cadence (the two share one sink).
        if let Some(store) = &self.store {
            store.flush_trace();
        }
    }

    /// The engine's batch-latency SLO policy (from
    /// [`ServeOptions::slo_objective_ns`] / [`ServeOptions::slo_target`]
    /// or their env knobs) — what the `/slo` endpoint evaluates.
    pub fn slo_policy(&self) -> SloPolicy {
        self.slo
    }

    /// The most recent distributed trace id a [`Self::submit`] call ran
    /// under (0 = none yet). Incident paths use this to link a dump to
    /// the fleet-wide `/trace/<id>` tree of the traffic that caused it.
    pub fn last_trace_id(&self) -> u64 {
        self.counters.last_trace.load(Ordering::Relaxed)
    }

    /// The retained slow-batch exemplars, oldest first, plus the total
    /// ever captured (including since-evicted ones).
    pub fn exemplars(&self) -> (Vec<Exemplar>, u64) {
        let fleet = self.lock_fleet();
        (
            fleet.exemplars.iter_recent().copied().collect(),
            fleet.exemplars.pushed(),
        )
    }

    /// The engine's cumulative fleet evidence: `(Σ Eq. 7 likelihood,
    /// records absorbed)` over the engine's lifetime. Monotonic, so a
    /// consumer (hom-adapt's fleet-evidence ingestion) can watermark it
    /// and compute interval means without the engine resetting anything.
    pub fn fleet_evidence(&self) -> (f64, u64) {
        let fleet = self.lock_fleet();
        (fleet.likelihood_sum, fleet.absorbed)
    }

    /// Fold the fleet-wide per-concept analytics (see
    /// [`ConceptAnalytics`]): a read-only pass over every shard's live
    /// table plus a copy of the cumulative evidence accumulators. Scrape
    /// time only — never on the request path.
    pub fn concept_analytics(&self) -> ConceptAnalytics {
        let n = {
            let serving = self.serving_guard();
            serving.model.n_concepts()
        };
        let mut posterior_mass = vec![0.0; n];
        let mut map_streams = vec![0u64; n];
        let mut entropy_sum = 0.0;
        let mut live = 0usize;
        for shard in &self.shards {
            let shard = self.lock(shard);
            live +=
                shard
                    .table
                    .fold_concepts(&mut posterior_mass, &mut map_streams, &mut entropy_sum);
        }
        let fleet = self.lock_fleet();
        let mut map_hits = fleet.map_hits.clone();
        map_hits.resize(n.max(map_hits.len()), 0);
        ConceptAnalytics {
            live_streams: live as u64,
            posterior_mass,
            map_streams,
            map_hits,
            absorbed: fleet.absorbed,
            predicted: fleet.predicted,
            mean_likelihood: if fleet.absorbed > 0 {
                fleet.likelihood_sum / fleet.absorbed as f64
            } else {
                1.0
            },
            mean_entropy: if live > 0 {
                entropy_sum / live as f64
            } else {
                0.0
            },
            mean_prune_depth: if fleet.predicted > 0 {
                fleet.consulted as f64 / fleet.predicted as f64
            } else {
                0.0
            },
            pruned_fraction: if fleet.predicted > 0 {
                fleet.pruned as f64 / fleet.predicted as f64
            } else {
                0.0
            },
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        // A clean shutdown is lossless: park every live stream into the
        // durable tier (a crash preserves only states parked + committed
        // by then — this is what distinguishes the two), then
        // group-commit so recovery has nothing to roll back.
        if let Some(store) = &self.store {
            for mutex in &self.shards {
                let mut shard = self.lock(mutex);
                let live: Vec<(StreamId, u32)> =
                    shard.table.iter().map(|(id, slot, _)| (id, slot)).collect();
                for (id, slot) in live {
                    self.park_slot(&mut shard, id, slot);
                }
            }
            let _ = store.commit();
        }
        self.flush_trace();
    }
}

/// Pack the nonempty shards into `tasks` contiguous chunks of roughly
/// equal request count (greedy: close a chunk once it reaches the even
/// share, keeping enough shards back for the remaining chunks). Only
/// wall-clock placement — per-stream order is preserved because a
/// shard, and therefore a stream, is never split across chunks.
fn partition_shards(
    nonempty: &[usize],
    groups: &ShardGroups,
    tasks: usize,
    total: usize,
) -> Vec<Vec<usize>> {
    let target = total.div_ceil(tasks);
    let mut chunks: Vec<Vec<usize>> = Vec::with_capacity(tasks);
    let mut current: Vec<usize> = Vec::new();
    let mut load = 0usize;
    for (at, &s) in nonempty.iter().enumerate() {
        current.push(s);
        load += groups.len(s);
        let chunks_left = tasks - chunks.len() - 1;
        let shards_left = nonempty.len() - at - 1;
        if load >= target && chunks_left > 0 && shards_left >= chunks_left {
            chunks.push(std::mem::take(&mut current));
            load = 0;
        }
    }
    if !current.is_empty() {
        chunks.push(current);
    }
    chunks
}
