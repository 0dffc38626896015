//! `hom-obs` — structured tracing, metrics and introspection for the
//! high-order-model pipeline.
//!
//! The paper's machinery is all *internal* state: concept posteriors
//! `P(c)` (Eqs. 5–9), the clustering objective `Q` and its dendrogram
//! cut, the early-termination pruning of the online ensemble, the stage
//! times of the (parallel) offline build. This crate makes those
//! quantities observable without changing any result:
//!
//! * [`Obs`] — a cheap, cloneable handle threaded through the pipeline
//!   (`BuildOptions { sink }`, `OnlineOptions { sink }`, the worker
//!   [`Pool`](../hom_parallel/struct.Pool.html)). The default handle is
//!   **disabled** and every instrumentation point short-circuits on one
//!   pointer check — no timestamps are taken, no events are built.
//! * [`Span`] — hierarchical wall-clock timing with monotonic clocks.
//!   Spans nest automatically through a thread-local stack, so crates
//!   don't pass parent ids around; [`Obs::span_under`] opens one beside
//!   the stack under an explicit parent, for work that overlaps.
//! * [`Histogram`] — fixed-bucket, mergeable (across worker threads)
//!   sample distributions, e.g. per-record prediction latency.
//! * [`Sink`] — where events go: [`NullSink`] (nowhere), [`Recorder`]
//!   (in-memory, for tests and harnesses), [`JsonlSink`] (streamed
//!   JSON lines; `examples/trace_report.rs` turns a trace back into a
//!   human summary), [`AggSink`] (live thread-striped aggregates for
//!   the `/metrics` exposition, see [`export`]), [`FlightRecorder`]
//!   (bounded ring of the most recent events for incident dumps), and
//!   [`Fanout`] (one handle feeding several of the above).
//!
//! # The `HOM_TRACE` hook
//!
//! [`Obs::from_env`] returns a [`JsonlSink`]-backed handle appending to
//! `$HOM_TRACE` when that variable is set, and a disabled handle
//! otherwise. `BuildOptions::default()` and `OnlineOptions::default()`
//! call it, so *any* existing program — the examples, the benches —
//! gains a structured trace with:
//!
//! ```sh
//! HOM_TRACE=trace.jsonl cargo run --release --example quickstart
//! cargo run --release --example trace_report trace.jsonl
//! ```
//!
//! A set-but-unusable `HOM_TRACE` (unopenable path) is a configuration
//! **error**, not a silent fallback: [`Obs::from_env`] panics with the
//! typed [`TraceConfigError`] that [`Obs::try_from_env`] returns.
//!
//! # Event name registry
//!
//! Names are dot-separated, prefixed by the emitting subsystem.
//! [`registry::EVENTS`] lists every name with its kind and help; the
//! `/metrics` exposition, `examples/trace_report.rs` and
//! `tests/event_registry.rs` all read it. The prefixes:
//!
//! | prefix | emitter |
//! |---|---|
//! | `build.*`, `step1.*`, `step2.*` | offline build (`hom-core`, `hom-cluster`) |
//! | `online.*` | the online filter (`hom-core`) |
//! | `pool.*` | the worker pool (`hom-parallel`) |
//! | `serve.*` | the serving engine (`hom-serve`) |
//! | `store.*` | the durable state tier (`hom-store`) |
//! | `adapt.*` | novelty & maintenance (`hom-adapt`) |
//! | `cluster.*` | the multi-node tier (`hom-cluster-serve`); every span carries a nonzero `trace` field, see [`ctx`] |
//! | `trace.*`, `flight.*` | capped `/trace` and `/flight` dumps (`hom-obs`): the trailer count of dropped events |
//!
//! # Distributed tracing
//!
//! [`TraceContext`] carries a deterministic `(trace_id, parent span)`
//! pair across process boundaries (the cluster's `X-HOM-Trace` header);
//! [`Obs::trace_scope`] installs it on the current thread, every span
//! opened under the scope carries the trace id, and a [`TraceBuffer`]
//! sink retains traced spans for the `/trace/<id>` endpoints. See
//! [`ctx`] and [`trace`].

#![warn(missing_docs)]

pub mod agg;
pub mod ctx;
pub mod event;
pub mod exemplar;
pub mod export;
pub mod flight;
pub mod hist;
pub mod json;
pub mod jsonl;
pub mod registry;
pub mod sink;
pub mod slo;
pub mod trace;

pub use agg::{AggSink, AggSnapshot};
pub use ctx::{
    parse_trace_id, trace_buffer_from_env, trace_sample_from_env, TraceContext, TraceKnobError,
    TRACE_BUFFER_ENV, TRACE_SAMPLE_ENV,
};
pub use event::{Event, OwnedEvent};
pub use exemplar::{hash_sampled, Exemplar, ExemplarRing};
pub use export::{
    federate, parse_prometheus, to_prometheus, PromFamily, PromParseError, PromSample,
};
pub use flight::FlightRecorder;
pub use hist::Histogram;
pub use sink::{Fanout, JsonlSink, NullSink, Recorder, Sink};
pub use slo::{SloConfigError, SloPolicy, SloStatus};
pub use trace::TraceBuffer;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The environment variable [`Obs::from_env`] reads: a path to append
/// JSONL trace events to.
pub const TRACE_ENV: &str = "HOM_TRACE";

/// `HOM_TRACE` was set but unusable — returned by [`Obs::try_from_env`]
/// and the panic payload of [`Obs::from_env`]. Part of the workspace's
/// no-silent-fallback convention for environment knobs: a value the
/// operator set deliberately must never be quietly ignored.
#[derive(Debug)]
pub struct TraceConfigError {
    /// The offending `HOM_TRACE` value.
    pub path: String,
    /// Why the trace file could not be opened for append.
    pub source: std::io::Error,
}

impl std::fmt::Display for TraceConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {TRACE_ENV}={}: cannot open for append: {}",
            self.path, self.source
        )
    }
}

impl std::error::Error for TraceConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

struct Shared {
    sink: Box<dyn Sink>,
    epoch: Instant,
    next_span: AtomicU64,
}

thread_local! {
    /// The stack of open span ids on this thread; the top is the parent
    /// of any event emitted here. Worker threads spawned mid-span start
    /// with an empty stack, so their events carry span 0 — the span tree
    /// stays a per-thread structure, which is exactly what stage timing
    /// needs.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };

    /// The distributed trace active on this thread (default: untraced).
    /// Installed by [`Obs::trace_scope`]; read by [`Obs::span`] so every
    /// span opened under a scope carries the trace id, and a *top-level*
    /// span hangs under the remote parent span id — the cross-process
    /// stitch point. Like `SPAN_STACK`, the context is per-thread: worker
    /// threads spawned mid-scope start untraced unless the spawner
    /// installs the context explicitly.
    static TRACE_CTX: Cell<TraceContext> = const { Cell::new(TraceContext { trace_id: 0, parent_span_id: 0 }) };
}

/// A handle to an observability sink, or a disabled no-op.
///
/// `Obs` is the one type the rest of the workspace talks to. It is
/// `Clone` (an `Option<Arc>`) and every emitting method first checks
/// enablement, so a disabled handle costs a single branch per
/// instrumentation point — the "zero-cost when off" contract that lets
/// the online filter keep its nanosecond-scale hot path.
#[derive(Clone, Default)]
pub struct Obs {
    shared: Option<Arc<Shared>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Obs {
    /// The disabled handle (every emit is a no-op).
    pub fn none() -> Self {
        Obs { shared: None }
    }

    /// A handle delivering events to `sink`. To keep a query handle to a
    /// [`Recorder`], wrap it in an [`Arc`] and pass a clone:
    ///
    /// ```
    /// use std::sync::Arc;
    /// use hom_obs::{Obs, Recorder};
    /// let recorder = Arc::new(Recorder::new());
    /// let obs = Obs::new(Arc::clone(&recorder));
    /// obs.count("demo", 1);
    /// assert_eq!(recorder.counter_total("demo"), 1);
    /// ```
    pub fn new(sink: impl Sink + 'static) -> Self {
        Obs {
            shared: Some(Arc::new(Shared {
                sink: Box::new(sink),
                epoch: Instant::now(),
                next_span: AtomicU64::new(1),
            })),
        }
    }

    /// The `HOM_TRACE` hook: a [`JsonlSink`] appending to the file named
    /// by `$HOM_TRACE` when set, else [`Obs::none`].
    ///
    /// # Panics
    ///
    /// On a set-but-unusable `HOM_TRACE` (see [`Obs::try_from_env`]):
    /// misconfiguration must surface, not silently disable tracing.
    pub fn from_env() -> Self {
        Obs::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Obs::from_env`]. Unset or empty `HOM_TRACE` is
    /// *not* an error (tracing is simply off); a path that cannot be
    /// opened for append is.
    pub fn try_from_env() -> Result<Self, TraceConfigError> {
        match std::env::var(TRACE_ENV) {
            Ok(path) if !path.is_empty() => match JsonlSink::append(&path) {
                Ok(sink) => Ok(Obs::new(sink)),
                Err(source) => Err(TraceConfigError { path, source }),
            },
            _ => Ok(Obs::none()),
        }
    }

    /// Whether events are being delivered. Instrumentation points gate
    /// any non-trivial measurement (clock reads, vector copies) on this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Microseconds since this handle was created (0 when disabled).
    pub fn now_us(&self) -> u64 {
        match &self.shared {
            Some(s) => s.epoch.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// The id of the innermost open span on this thread (0 = none).
    pub fn current_span(&self) -> u64 {
        if self.shared.is_none() {
            return 0;
        }
        SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
    }

    /// The distributed trace id active on this thread (0 = untraced, and
    /// always 0 on a disabled handle — tracing rides on instrumentation,
    /// it does not exist without it).
    pub fn current_trace(&self) -> u64 {
        if self.shared.is_none() {
            return 0;
        }
        TRACE_CTX.with(|c| c.get().trace_id)
    }

    /// Install `ctx` as this thread's active [`TraceContext`] until the
    /// returned guard drops (the previous context — normally "untraced" —
    /// is restored). Every span opened under the scope carries
    /// `ctx.trace_id`, and top-level spans become children of
    /// `ctx.parent_span_id`, which is how a receiver hangs its work under
    /// the sender's span. Disabled handles return an inert guard: no
    /// events means no trace to attach to.
    pub fn trace_scope(&self, ctx: TraceContext) -> TraceScope {
        if self.shared.is_none() {
            return TraceScope { prev: None };
        }
        let prev = TRACE_CTX.with(|c| c.replace(ctx));
        TraceScope { prev: Some(prev) }
    }

    /// Open a span: emits `span_start` now and `span_end` when the
    /// returned guard drops. Spans opened while the guard is live (on the
    /// same thread) become its children. Disabled handles return an inert
    /// guard.
    ///
    /// Guards must drop in LIFO order on the thread that opened them —
    /// the natural shape of scoped `let _span = obs.span(...)` usage.
    pub fn span(&self, name: &'static str) -> Span {
        self.open_span(name, None)
    }

    /// Open a span under an explicit `parent` span id, off this thread's
    /// span stack: it may close in any order relative to other spans
    /// (the cluster router holds one per in-flight worker exchange), and
    /// spans opened while it is live do not nest under it. It carries
    /// the active trace id like [`Obs::span`]. Disabled handles return an
    /// inert guard.
    pub fn span_under(&self, name: &'static str, parent: u64) -> Span {
        self.open_span(name, Some(parent))
    }

    /// [`Obs::span`] (`explicit: None`, pushed on the thread's stack) or
    /// [`Obs::span_under`] (`Some(parent)`, off the stack).
    fn open_span(&self, name: &'static str, explicit: Option<u64>) -> Span {
        let Some(shared) = &self.shared else {
            return Span { state: None };
        };
        let id = shared.next_span.fetch_add(1, Ordering::Relaxed);
        let ctx = TRACE_CTX.with(|c| c.get());
        // A top-level span under an active trace parents to the *remote*
        // span that initiated this work (ctx.parent_span_id is 0 when
        // untraced, so the untraced behaviour is unchanged).
        let parent = explicit.unwrap_or_else(|| {
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                let parent = stack.last().copied().unwrap_or(ctx.parent_span_id);
                stack.push(id);
                parent
            })
        });
        let start = Instant::now();
        shared.sink.record(&Event::SpanStart {
            id,
            parent,
            trace: ctx.trace_id,
            name,
            t_us: shared.epoch.elapsed().as_micros() as u64,
        });
        Span {
            state: Some(SpanState {
                obs: self.clone(),
                id,
                parent,
                trace: ctx.trace_id,
                name,
                start,
                stacked: explicit.is_none(),
            }),
        }
    }

    /// Emit a counter increment (`n` new occurrences of `name`).
    #[inline]
    pub fn count(&self, name: &'static str, n: u64) {
        if let Some(shared) = &self.shared {
            shared.sink.record(&Event::Count {
                span: self.current_span(),
                name,
                n,
                t_us: shared.epoch.elapsed().as_micros() as u64,
            });
        }
    }

    /// Emit a point-in-time scalar measurement.
    #[inline]
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(shared) = &self.shared {
            shared.sink.record(&Event::Gauge {
                span: self.current_span(),
                name,
                value,
                t_us: shared.epoch.elapsed().as_micros() as u64,
            });
        }
    }

    /// Emit one indexed vector sample of a named series.
    #[inline]
    pub fn series(&self, name: &'static str, index: u64, values: &[f64]) {
        if let Some(shared) = &self.shared {
            shared.sink.record(&Event::Series {
                span: self.current_span(),
                name,
                index,
                values,
                t_us: shared.epoch.elapsed().as_micros() as u64,
            });
        }
    }

    /// Emit a histogram snapshot.
    #[inline]
    pub fn hist(&self, name: &'static str, hist: &Histogram) {
        if let Some(shared) = &self.shared {
            shared.sink.record(&Event::Hist {
                span: self.current_span(),
                name,
                hist,
                t_us: shared.epoch.elapsed().as_micros() as u64,
            });
        }
    }
}

struct SpanState {
    obs: Obs,
    id: u64,
    parent: u64,
    trace: u64,
    name: &'static str,
    start: Instant,
    /// Whether the span sits on its thread's span stack ([`Obs::span`])
    /// rather than beside it ([`Obs::span_under`]).
    stacked: bool,
}

/// An installed [`TraceContext`]; restores the previous context when
/// dropped. Obtain via [`Obs::trace_scope`]. Like [`Span`] guards,
/// scopes must drop in LIFO order on their installing thread.
#[must_use = "a trace scope covers the lexical scope it is bound to; binding it to _ drops it immediately"]
pub struct TraceScope {
    prev: Option<TraceContext>,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            TRACE_CTX.with(|c| c.set(prev));
        }
    }
}

/// An open span; emits `span_end` (with its monotonic duration) when
/// dropped. Obtain via [`Obs::span`].
#[must_use = "a span measures the scope it is bound to; binding it to _ drops it immediately"]
pub struct Span {
    state: Option<SpanState>,
}

impl Span {
    /// This span's id (0 for an inert span from a disabled handle).
    pub fn id(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        let Some(shared) = &state.obs.shared else {
            return;
        };
        SPAN_STACK.with(|s| {
            if !state.stacked {
                return;
            }
            let mut stack = s.borrow_mut();
            debug_assert_eq!(
                stack.last().copied(),
                Some(state.id),
                "spans must close in LIFO order on their opening thread"
            );
            if stack.last() == Some(&state.id) {
                stack.pop();
            }
        });
        shared.sink.record(&Event::SpanEnd {
            id: state.id,
            parent: state.parent,
            trace: state.trace,
            name: state.name,
            t_us: shared.epoch.elapsed().as_micros() as u64,
            dur_us: state.start.elapsed().as_micros() as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_emits_nothing_and_is_cheap() {
        let obs = Obs::none();
        assert!(!obs.enabled());
        assert_eq!(obs.now_us(), 0);
        let span = obs.span("x");
        assert_eq!(span.id(), 0);
        obs.count("c", 1);
        obs.gauge("g", 1.0);
        obs.series("s", 0, &[1.0]);
        obs.hist("h", &Histogram::new());
        drop(span);
    }

    #[test]
    fn spans_nest_through_the_thread_local_stack() {
        let rec = Arc::new(Recorder::new());
        let obs = Obs::new(Arc::clone(&rec));
        {
            let outer = obs.span("outer");
            assert_eq!(obs.current_span(), outer.id());
            {
                let inner = obs.span("inner");
                assert_eq!(obs.current_span(), inner.id());
                obs.count("tick", 1);
            }
            assert_eq!(obs.current_span(), outer.id());
        }
        assert_eq!(obs.current_span(), 0);

        let events = rec.events();
        // start(outer), start(inner), count, end(inner), end(outer)
        assert_eq!(events.len(), 5);
        let (outer_id, inner_id) = match (&events[0], &events[1]) {
            (
                OwnedEvent::SpanStart {
                    id: o, parent: 0, ..
                },
                OwnedEvent::SpanStart { id: i, parent, .. },
            ) => {
                assert_eq!(parent, o, "inner's parent is outer");
                (*o, *i)
            }
            other => panic!("unexpected head events {other:?}"),
        };
        match &events[2] {
            OwnedEvent::Count { span, name, .. } => {
                assert_eq!(*span, inner_id);
                assert_eq!(name, "tick");
            }
            other => panic!("expected count, got {other:?}"),
        }
        match (&events[3], &events[4]) {
            (OwnedEvent::SpanEnd { id: a, .. }, OwnedEvent::SpanEnd { id: b, .. }) => {
                assert_eq!(*a, inner_id);
                assert_eq!(*b, outer_id);
            }
            other => panic!("unexpected tail events {other:?}"),
        }
    }

    #[test]
    fn explicit_parent_spans_stay_off_the_stack_and_close_in_any_order() {
        let rec = Arc::new(Recorder::new());
        let obs = Obs::new(Arc::clone(&rec));
        let ctx = TraceContext::for_batch(3);
        let _scope = obs.trace_scope(ctx);
        let root = obs.span("root");
        let a = obs.span_under("a", root.id());
        let b = obs.span_under("b", root.id());
        assert_eq!(obs.current_span(), root.id(), "siblings never stack");
        let nested = obs.span("nested");
        drop(nested);
        // First opened, first closed: no LIFO requirement off the stack.
        drop(a);
        drop(b);
        assert_eq!(obs.current_span(), root.id());
        drop(root);
        assert_eq!(obs.current_span(), 0);

        let ends: Vec<(String, u64, u64)> = rec
            .events()
            .into_iter()
            .filter_map(|e| match e {
                OwnedEvent::SpanEnd {
                    name,
                    parent,
                    trace,
                    ..
                } => Some((name, parent, trace)),
                _ => None,
            })
            .collect();
        let root_id = 1;
        assert_eq!(
            ends,
            [
                ("nested".to_string(), root_id, ctx.trace_id),
                ("a".to_string(), root_id, ctx.trace_id),
                ("b".to_string(), root_id, ctx.trace_id),
                ("root".to_string(), 0, ctx.trace_id),
            ]
        );
    }

    #[test]
    fn span_durations_are_monotonic() {
        let rec = Arc::new(Recorder::new());
        let obs = Obs::new(Arc::clone(&rec));
        {
            let _s = obs.span("work");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = rec.spans("work");
        assert_eq!(spans.len(), 1);
        assert!(spans[0].1 >= 2_000, "dur_us = {}", spans[0].1);
    }

    #[test]
    fn sinks_are_shared_across_threads() {
        let rec = Arc::new(Recorder::new());
        let obs = Obs::new(Arc::clone(&rec));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let obs = obs.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        obs.count("par", 1);
                    }
                });
            }
        });
        assert_eq!(rec.counter_total("par"), 400);
    }

    #[test]
    fn from_env_without_variable_is_disabled() {
        // The test runner does not set HOM_TRACE; if a developer runs
        // tests with it set, tracing being enabled is the correct result.
        if std::env::var(TRACE_ENV).is_err() {
            assert!(!Obs::from_env().enabled());
        }
    }
}
