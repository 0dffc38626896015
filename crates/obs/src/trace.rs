//! The per-node trace buffer: a bounded, striped ring of traced span
//! events, indexed by trace id.
//!
//! Where [`crate::FlightRecorder`] keeps *everything recent* for
//! incident dumps, [`TraceBuffer`] keeps only span events that carry a
//! nonzero trace id (see [`crate::TraceContext`]) — the raw material of
//! the `/trace/<id>` endpoints. It is the flight recorder's
//! [`EventRing`] with a narrower admission rule: thread-striped rings,
//! per-stripe oldest-first eviction, no global lock, memory bounded by
//! construction. Untraced events (the overwhelming majority on a busy
//! node) cost one match arm and are dropped before any allocation.
//!
//! [`TraceBuffer::slice_jsonl`] renders one trace's spans as JSONL —
//! the same line format as `HOM_TRACE` — capped at a caller-chosen
//! event budget. A capped dump is reported, not silent: the final line
//! is a `trace.truncated` count event whose `n` is the number of spans
//! dropped, so a renderer (and an operator) can tell a complete tree
//! from a clipped one.

use crate::event::OwnedEvent;
use crate::flight::{render_capped, EventRing};

/// Default cap on events per rendered `/trace` or `/flight` dump —
/// bounds the response body a scrape of a hot node can build,
/// mirroring the 16 KiB request-head cap on the inbound side.
pub const DUMP_CAP: usize = 4096;

/// A bounded, thread-striped ring of traced span events (see the
/// [module docs](self)).
pub type TraceBuffer = EventRing<true>;

impl TraceBuffer {
    /// A buffer sized by `$HOM_TRACE_BUFFER`
    /// ([`crate::ctx::trace_buffer_from_env`]); unset means
    /// [`Self::DEFAULT_CAPACITY`], set-but-malformed is the typed
    /// error.
    pub fn from_env() -> Result<Self, crate::ctx::TraceKnobError> {
        Ok(TraceBuffer::new(crate::ctx::trace_buffer_from_env()?))
    }

    /// Every retained span event of `trace_id`, ordered by this node's
    /// event timestamp (stable, so same-timestamp events keep arrival
    /// order). Timestamps are per-process offsets — order is meaningful
    /// within one node's slice, never across nodes.
    pub fn slice(&self, trace_id: u64) -> Vec<OwnedEvent> {
        self.collect(|e| {
            matches!(*e, OwnedEvent::SpanStart { trace, .. } | OwnedEvent::SpanEnd { trace, .. } if trace == trace_id)
        })
    }

    /// [`Self::slice`] rendered as JSONL, keeping at most `max_events`
    /// (the **newest** — the tail of the operation is what debugging
    /// needs). When spans were dropped, the final line is a
    /// `trace.truncated` count event carrying the drop count.
    pub fn slice_jsonl(&self, trace_id: u64, max_events: usize) -> String {
        render_capped(&self.slice(trace_id), max_events, "trace.truncated")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Obs, TraceContext};
    use std::sync::Arc;

    #[test]
    fn retains_only_traced_span_events() {
        let buf = Arc::new(TraceBuffer::new(1024));
        let obs = Obs::new(Arc::clone(&buf));
        {
            // No scope active: spans carry trace 0 and are dropped.
            let _s = obs.span("untraced");
            obs.count("noise", 1);
        }
        assert!(buf.is_empty(), "untraced events are not retained");

        let ctx = TraceContext::for_batch(1);
        {
            let _scope = obs.trace_scope(ctx);
            let _s = obs.span("traced");
            obs.count("noise", 1); // counts never enter the buffer
        }
        assert_eq!(buf.len(), 2, "span_start + span_end");
        let slice = buf.slice(ctx.trace_id);
        assert_eq!(slice.len(), 2);
        assert!(matches!(
            &slice[0],
            OwnedEvent::SpanStart { trace, name, .. }
                if *trace == ctx.trace_id && name == "traced"
        ));
        assert!(buf.slice(ctx.trace_id + 1).is_empty(), "indexed by id");
    }

    #[test]
    fn slice_jsonl_caps_and_reports_truncation() {
        let buf = Arc::new(TraceBuffer::new(4096));
        let obs = Obs::new(Arc::clone(&buf));
        let ctx = TraceContext::for_batch(9);
        let _scope = obs.trace_scope(ctx);
        for _ in 0..10 {
            let _s = obs.span("tick");
        }
        // 20 span events; cap at 5 → 15 dropped, trailer reports it.
        let out = buf.slice_jsonl(ctx.trace_id, 5);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 6, "5 kept + 1 trailer");
        let trailer = crate::jsonl::parse_line(lines[5]).expect("trailer parses");
        assert!(matches!(
            trailer,
            OwnedEvent::Count { name, n: 15, .. } if name == "trace.truncated"
        ));
        // An uncapped slice has no trailer.
        let full = buf.slice_jsonl(ctx.trace_id, DUMP_CAP);
        assert_eq!(full.lines().count(), 20);
        for line in full.lines() {
            crate::jsonl::parse_line(line).expect("every line parses");
        }
    }

    #[test]
    fn capacity_is_bounded_under_concurrency() {
        let buf = Arc::new(TraceBuffer::new(64));
        let obs = Obs::new(Arc::clone(&buf));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let obs = obs.clone();
                scope.spawn(move || {
                    let _scope = obs.trace_scope(TraceContext::for_batch(t));
                    for _ in 0..1000 {
                        let _s = obs.span("spam");
                    }
                });
            }
        });
        assert!(buf.len() <= buf.capacity());
        buf.clear();
        assert!(buf.is_empty());
    }
}
