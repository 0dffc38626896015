//! The flight recorder: a bounded ring of the most recent events, and
//! the [`EventRing`] it shares with [`crate::TraceBuffer`].
//!
//! Aggregation ([`crate::AggSink`]) answers "how much, how fast"; a
//! drift incident needs "what *exactly* happened just before the
//! trigger". [`FlightRecorder`] keeps the last N events — verbatim, as
//! [`OwnedEvent`]s — in fixed-capacity per-stripe ring buffers, striped
//! by recording thread exactly like the aggregation sink so the write
//! path never takes a global lock. When something interesting happens
//! (a novelty trigger in `hom-adapt`, a `/flight` request against the
//! serve listener) the rings are merged, ordered by event timestamp and
//! dumped as JSONL — the same format `HOM_TRACE` writes, so
//! `examples/trace_report.rs` renders an incident dump like any trace.
//!
//! Memory is bounded by construction: each stripe holds at most
//! `capacity / stripes` events and evicts its oldest on overflow.
//! Because eviction is per-stripe, a dump retains *roughly* the last
//! `capacity` events overall (a chatty thread can only evict within its
//! own stripe, never another thread's tail).
//!
//! The ring is [`EventRing`]; its one parameter is the admission rule.
//! [`FlightRecorder`] admits every event, [`crate::TraceBuffer`] only
//! span events that carry a trace id.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::agg::thread_stripe;
use crate::event::{Event, OwnedEvent};
use crate::jsonl;
use crate::sink::Sink;

/// Stripe count; see `agg.rs` for the rationale.
const STRIPES: usize = 32;

/// A fixed-capacity, thread-striped ring of recent events (see the
/// [module docs](self)). With `TRACED_ONLY` it admits only span events
/// carrying a nonzero trace id ([`crate::TraceBuffer`]); without, every
/// event ([`FlightRecorder`]).
pub struct EventRing<const TRACED_ONLY: bool> {
    rings: Vec<Mutex<VecDeque<OwnedEvent>>>,
    per_stripe: usize,
}

/// The flight recorder: an [`EventRing`] that keeps every event.
pub type FlightRecorder = EventRing<false>;

impl<const TRACED_ONLY: bool> std::fmt::Debug for EventRing<TRACED_ONLY> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = if TRACED_ONLY {
            "TraceBuffer"
        } else {
            "FlightRecorder"
        };
        f.debug_struct(name)
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl<const TRACED_ONLY: bool> Default for EventRing<TRACED_ONLY> {
    fn default() -> Self {
        EventRing::new(Self::DEFAULT_CAPACITY)
    }
}

impl<const TRACED_ONLY: bool> EventRing<TRACED_ONLY> {
    /// Default total capacity: enough to hold several `hom-adapt`
    /// evidence windows plus the serving traffic around them, or several
    /// full batch traces per node.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A ring retaining (approximately) the last `capacity` admitted
    /// events. The capacity is split evenly across the internal stripes,
    /// with a minimum of one event per stripe.
    pub fn new(capacity: usize) -> Self {
        let per_stripe = capacity.div_ceil(STRIPES).max(1);
        EventRing {
            rings: (0..STRIPES)
                .map(|_| Mutex::new(VecDeque::with_capacity(per_stripe)))
                .collect(),
            per_stripe,
        }
    }

    /// Total event capacity (rounded up to a multiple of the stripe
    /// count).
    pub fn capacity(&self) -> usize {
        self.per_stripe * self.rings.len()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.rings
            .iter()
            .map(|r| r.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all retained events.
    pub fn clear(&self) {
        for ring in &self.rings {
            ring.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }

    /// Every retained event `keep` accepts, merged across the stripes
    /// and ordered by event timestamp (`t_us`; stable, so
    /// same-timestamp events keep their per-stripe arrival order).
    /// Timestamps are per-process offsets — the order means nothing
    /// across nodes.
    pub(crate) fn collect(&self, keep: impl Fn(&OwnedEvent) -> bool) -> Vec<OwnedEvent> {
        let mut events: Vec<OwnedEvent> = Vec::new();
        for ring in &self.rings {
            let ring = ring.lock().unwrap_or_else(|e| e.into_inner());
            events.extend(ring.iter().filter(|e| keep(e)).cloned());
        }
        events.sort_by_key(t_us_of);
        events
    }
}

impl FlightRecorder {
    /// Merge every stripe's ring into one list ordered by event
    /// timestamp (`t_us`; stable, so same-timestamp events keep their
    /// per-stripe arrival order).
    pub fn dump(&self) -> Vec<OwnedEvent> {
        self.collect(|_| true)
    }

    /// The dump rendered as JSONL — one [`crate::jsonl`] line per event,
    /// each `\n`-terminated. Parseable back with
    /// [`crate::jsonl::parse_line`] and renderable by
    /// `examples/trace_report.rs`.
    pub fn dump_jsonl(&self) -> String {
        self.dump_jsonl_capped(usize::MAX)
    }

    /// [`Self::dump_jsonl`] keeping at most `max_events` (the newest).
    /// When events were dropped, the final line is a `flight.truncated`
    /// count event carrying the drop count — a scrape endpoint serving
    /// this can bound its response body without truncating silently.
    pub fn dump_jsonl_capped(&self, max_events: usize) -> String {
        render_capped(&self.dump(), max_events, "flight.truncated")
    }

    /// Write the JSONL dump to `path` (created or truncated).
    pub fn write_jsonl(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.dump_jsonl())
    }
}

/// Render `events` as JSONL keeping the newest `max_events`; report any
/// drop as a trailing count event named `truncated_name`.
pub(crate) fn render_capped(
    events: &[OwnedEvent],
    max_events: usize,
    truncated_name: &'static str,
) -> String {
    let max = max_events.max(1);
    let dropped = events.len().saturating_sub(max);
    let kept = &events[dropped..];
    let mut out = String::with_capacity(kept.len() * 96);
    for event in kept {
        out.push_str(&jsonl::to_line(&event.as_event()));
        out.push('\n');
    }
    if dropped > 0 {
        let t_us = kept.last().map(t_us_of).unwrap_or(0);
        out.push_str(&jsonl::to_line(&Event::Count {
            span: 0,
            name: truncated_name,
            n: dropped as u64,
            t_us,
        }));
        out.push('\n');
    }
    out
}

fn t_us_of(event: &OwnedEvent) -> u64 {
    match *event {
        OwnedEvent::SpanStart { t_us, .. }
        | OwnedEvent::SpanEnd { t_us, .. }
        | OwnedEvent::Count { t_us, .. }
        | OwnedEvent::Gauge { t_us, .. }
        | OwnedEvent::Series { t_us, .. }
        | OwnedEvent::Hist { t_us, .. } => t_us,
    }
}

impl<const TRACED_ONLY: bool> Sink for EventRing<TRACED_ONLY> {
    fn record(&self, event: &Event<'_>) {
        // A trace buffer is an index from trace id to span slice, not a
        // second flight recorder: untraced events (the overwhelming
        // majority on a busy node) are dropped before any allocation.
        if TRACED_ONLY
            && !matches!(event, Event::SpanStart { trace, .. } | Event::SpanEnd { trace, .. } if *trace != 0)
        {
            return;
        }
        let i = thread_stripe(self.rings.len());
        let mut ring = self.rings[i].lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.per_stripe {
            ring.pop_front();
        }
        ring.push_back(event.to_owned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;
    use std::sync::Arc;

    #[test]
    fn retains_the_most_recent_events() {
        // One recording thread → one stripe → exact ring semantics.
        let rec = Arc::new(FlightRecorder::new(STRIPES * 4));
        let obs = Obs::new(Arc::clone(&rec));
        for i in 0..100u64 {
            obs.count("tick", i);
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), 4, "per-stripe capacity holds the tail");
        let ns: Vec<u64> = dump
            .iter()
            .map(|e| match e {
                OwnedEvent::Count { n, .. } => *n,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ns, vec![96, 97, 98, 99]);
    }

    #[test]
    fn dump_is_ordered_and_jsonl_parses() {
        // Sized so even if every thread hashed to ONE stripe, nothing is
        // evicted (stripe assignment depends on thread-id allocation,
        // which the test runner does not control).
        let rec = Arc::new(FlightRecorder::new(STRIPES * 80));
        let obs = Obs::new(Arc::clone(&rec));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let obs = obs.clone();
                scope.spawn(move || {
                    for i in 0..10 {
                        obs.count("par", i);
                        obs.gauge("g", i as f64);
                    }
                });
            }
        });
        let dump = rec.dump();
        assert_eq!(dump.len(), 80);
        let mut last = 0u64;
        for e in &dump {
            let t = t_us_of(e);
            assert!(t >= last, "dump ordered by t_us");
            last = t;
        }
        for line in rec.dump_jsonl().lines() {
            jsonl::parse_line(line).expect("every dumped line parses");
        }
    }

    #[test]
    fn capped_dump_reports_truncation() {
        let rec = Arc::new(FlightRecorder::new(1024));
        let obs = Obs::new(Arc::clone(&rec));
        for i in 0..20u64 {
            obs.count("tick", i);
        }
        let out = rec.dump_jsonl_capped(8);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 9, "8 kept + 1 trailer");
        let trailer = jsonl::parse_line(lines[8]).expect("trailer parses");
        assert!(matches!(
            trailer,
            OwnedEvent::Count { name, n: 12, .. } if name == "flight.truncated"
        ));
        // The kept events are the newest.
        assert!(matches!(
            jsonl::parse_line(lines[0]).unwrap(),
            OwnedEvent::Count { n: 12, .. }
        ));
        // A dump within budget has no trailer.
        assert_eq!(rec.dump_jsonl_capped(1024).lines().count(), 20);
    }

    #[test]
    fn capacity_is_bounded_under_concurrency() {
        let rec = Arc::new(FlightRecorder::new(64));
        let obs = Obs::new(Arc::clone(&rec));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let obs = obs.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        obs.count("spam", 1);
                    }
                });
            }
        });
        assert!(rec.len() <= rec.capacity());
        rec.clear();
        assert!(rec.is_empty());
    }
}
