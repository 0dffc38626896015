//! The event taxonomy every [`crate::Sink`] receives.
//!
//! Six event kinds cover the whole pipeline ([`crate::registry`] lists
//! every emitted name and the kind it is emitted as):
//!
//! * **`span_start` / `span_end`** — hierarchical wall-clock timing of
//!   pipeline stages (`build` → `build.cluster` → `step1` → …). Durations
//!   come from a monotonic clock; timestamps are microsecond offsets from
//!   the owning [`crate::Obs`]'s creation.
//! * **`count`** — a monotonic occurrence count (mergers accepted,
//!   candidate fits, prune events). Totals are additive across events of
//!   the same name.
//! * **`gauge`** — a point-in-time scalar (the running clustering
//!   objective `Q`, the final cut's `Q`).
//! * **`series`** — an indexed vector sample (the concept posterior at
//!   timestamp `t`, per-worker task counts of one parallel map).
//! * **`hist`** — a [`Histogram`] snapshot (per-record prediction
//!   latency). Snapshots of the same name are mergeable.

use crate::hist::Histogram;

/// A borrowed observability event, as handed to [`crate::Sink::record`].
///
/// Borrowed so that the hot paths never allocate just to emit; a sink
/// that needs to keep events calls [`Event::to_owned`].
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    /// A span opened: `id` is unique within the emitting [`crate::Obs`],
    /// `parent` is the enclosing span's id (0 = none).
    SpanStart {
        /// Span id (> 0).
        id: u64,
        /// Enclosing span id, 0 at top level. Under an active trace, a
        /// top-level span's parent is the **remote** parent span id
        /// carried by the [`crate::TraceContext`] — how cross-process
        /// trees stitch.
        parent: u64,
        /// Distributed trace id ([`crate::TraceContext`]), 0 when no
        /// trace is active.
        trace: u64,
        /// Stage name, e.g. `"step1.block_fits"`.
        name: &'a str,
        /// Microseconds since the `Obs` epoch.
        t_us: u64,
    },
    /// The matching span closed after `dur_us` microseconds.
    SpanEnd {
        /// Span id of the corresponding [`Event::SpanStart`].
        id: u64,
        /// Enclosing span id, 0 at top level (see [`Event::SpanStart`]).
        parent: u64,
        /// Distributed trace id, 0 when no trace is active.
        trace: u64,
        /// Stage name (repeated so single lines are self-describing).
        name: &'a str,
        /// Microseconds since the `Obs` epoch.
        t_us: u64,
        /// Monotonic duration of the span in microseconds.
        dur_us: u64,
    },
    /// `n` new occurrences of `name` (additive across events).
    Count {
        /// Enclosing span id, 0 at top level.
        span: u64,
        /// Counter name, e.g. `"step2.mergers"`.
        name: &'a str,
        /// Occurrences to add.
        n: u64,
        /// Microseconds since the `Obs` epoch.
        t_us: u64,
    },
    /// A point-in-time scalar measurement.
    Gauge {
        /// Enclosing span id, 0 at top level.
        span: u64,
        /// Gauge name, e.g. `"step1.q"`.
        name: &'a str,
        /// The measured value.
        value: f64,
        /// Microseconds since the `Obs` epoch.
        t_us: u64,
    },
    /// An indexed vector sample of a named series.
    Series {
        /// Enclosing span id, 0 at top level.
        span: u64,
        /// Series name, e.g. `"online.posterior"`.
        name: &'a str,
        /// Position within the series (timestamp, call number, …).
        index: u64,
        /// The sampled vector (one entry per concept, per worker, …).
        values: &'a [f64],
        /// Microseconds since the `Obs` epoch.
        t_us: u64,
    },
    /// A histogram snapshot.
    Hist {
        /// Enclosing span id, 0 at top level.
        span: u64,
        /// Histogram name, e.g. `"online.latency_ns"`.
        name: &'a str,
        /// The snapshot (bucket layout is fixed, see [`Histogram`]).
        hist: &'a Histogram,
        /// Microseconds since the `Obs` epoch.
        t_us: u64,
    },
}

impl<'a> Event<'a> {
    /// The event's name (stage, counter, gauge, series or histogram name).
    pub fn name(&self) -> &'a str {
        match self {
            Event::SpanStart { name, .. }
            | Event::SpanEnd { name, .. }
            | Event::Count { name, .. }
            | Event::Gauge { name, .. }
            | Event::Series { name, .. }
            | Event::Hist { name, .. } => name,
        }
    }

    /// An owned copy of this event.
    pub fn to_owned(&self) -> OwnedEvent {
        match *self {
            Event::SpanStart {
                id,
                parent,
                trace,
                name,
                t_us,
            } => OwnedEvent::SpanStart {
                id,
                parent,
                trace,
                name: name.to_string(),
                t_us,
            },
            Event::SpanEnd {
                id,
                parent,
                trace,
                name,
                t_us,
                dur_us,
            } => OwnedEvent::SpanEnd {
                id,
                parent,
                trace,
                name: name.to_string(),
                t_us,
                dur_us,
            },
            Event::Count {
                span,
                name,
                n,
                t_us,
            } => OwnedEvent::Count {
                span,
                name: name.to_string(),
                n,
                t_us,
            },
            Event::Gauge {
                span,
                name,
                value,
                t_us,
            } => OwnedEvent::Gauge {
                span,
                name: name.to_string(),
                value,
                t_us,
            },
            Event::Series {
                span,
                name,
                index,
                values,
                t_us,
            } => OwnedEvent::Series {
                span,
                name: name.to_string(),
                index,
                values: values.to_vec(),
                t_us,
            },
            Event::Hist {
                span,
                name,
                hist,
                t_us,
            } => OwnedEvent::Hist {
                span,
                name: name.to_string(),
                hist: Box::new(hist.clone()),
                t_us,
            },
        }
    }
}

/// An owned observability event — what [`crate::Recorder`] stores and
/// what [`crate::jsonl::parse_line`] produces. Field meanings are
/// identical to [`Event`]'s.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field semantics documented on `Event`
pub enum OwnedEvent {
    SpanStart {
        id: u64,
        parent: u64,
        trace: u64,
        name: String,
        t_us: u64,
    },
    SpanEnd {
        id: u64,
        parent: u64,
        trace: u64,
        name: String,
        t_us: u64,
        dur_us: u64,
    },
    Count {
        span: u64,
        name: String,
        n: u64,
        t_us: u64,
    },
    Gauge {
        span: u64,
        name: String,
        value: f64,
        t_us: u64,
    },
    Series {
        span: u64,
        name: String,
        index: u64,
        values: Vec<f64>,
        t_us: u64,
    },
    Hist {
        span: u64,
        name: String,
        /// Boxed: a histogram is ~0.5 KiB, far larger than any other
        /// variant, and `OwnedEvent`s are stored by the million.
        hist: Box<Histogram>,
        t_us: u64,
    },
}

impl OwnedEvent {
    /// The event's name (stage, counter, gauge, series or histogram name).
    pub fn name(&self) -> &str {
        self.as_event().name()
    }

    /// A borrowed view of this event (for re-emitting into a sink).
    pub fn as_event(&self) -> Event<'_> {
        match self {
            OwnedEvent::SpanStart {
                id,
                parent,
                trace,
                name,
                t_us,
            } => Event::SpanStart {
                id: *id,
                parent: *parent,
                trace: *trace,
                name,
                t_us: *t_us,
            },
            OwnedEvent::SpanEnd {
                id,
                parent,
                trace,
                name,
                t_us,
                dur_us,
            } => Event::SpanEnd {
                id: *id,
                parent: *parent,
                trace: *trace,
                name,
                t_us: *t_us,
                dur_us: *dur_us,
            },
            OwnedEvent::Count {
                span,
                name,
                n,
                t_us,
            } => Event::Count {
                span: *span,
                name,
                n: *n,
                t_us: *t_us,
            },
            OwnedEvent::Gauge {
                span,
                name,
                value,
                t_us,
            } => Event::Gauge {
                span: *span,
                name,
                value: *value,
                t_us: *t_us,
            },
            OwnedEvent::Series {
                span,
                name,
                index,
                values,
                t_us,
            } => Event::Series {
                span: *span,
                name,
                index: *index,
                values,
                t_us: *t_us,
            },
            OwnedEvent::Hist {
                span,
                name,
                hist,
                t_us,
            } => Event::Hist {
                span: *span,
                name,
                hist,
                t_us: *t_us,
            },
        }
    }
}
