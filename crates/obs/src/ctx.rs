//! Distributed trace context: a deterministic trace identity that
//! crosses process boundaries.
//!
//! A [`TraceContext`] is two numbers: the **trace id** naming one
//! logical operation fleet-wide (a routed batch, a stream migration, a
//! two-phase swap, a health probe round) and the **parent span id** —
//! the span on the *sending* node that the receiving node's spans
//! should hang under. The router stamps both into an `X-HOM-Trace`
//! header on every forwarded call; the worker parses the header, opens
//! its request spans as children of the remote parent, and the
//! collected span slices stitch back into one cross-process tree.
//!
//! # Determinism
//!
//! Trace ids are **derived, not drawn**: FNV-1a over an operation tag
//! and the operation's own sequence number / stream id / epoch. No RNG,
//! no wall clock, no process identity — the same traffic produces the
//! same trace ids at any `HOM_THREADS` setting and on every rerun,
//! which is what lets the cluster smoke compare traced runs digest-for-
//! digest and lets a test predict the exact id a migration will carry
//! ([`TraceContext::for_migration`] is a pure function).
//!
//! Span *ids* remain per-process counters (see `crate::Obs`), so two
//! processes can emit the same span id under one trace; consumers key
//! spans by `(node, id)` — the node label is attached at collection
//! time by the router's `/trace/<id>` federation.
//!
//! # Wire format
//!
//! `to_header` renders `<trace_id>-<parent_span_id>` as two fixed-width
//! lowercase hex fields (`{:016x}`); [`TraceContext::parse`] accepts
//! exactly that, so a parsed header always renders back to itself. A
//! missing or malformed header simply means "untraced" — propagation
//! must never fail a request. Trace ids in URLs (`/trace/<id>`) use the
//! same canonical field, checked by [`parse_trace_id`].

use std::fmt;

/// Per-node span-buffer capacity ([`crate::TraceBuffer`]), read by
/// `TraceBuffer::from_env`. Unset means
/// [`crate::TraceBuffer::DEFAULT_CAPACITY`]; set-but-malformed is a
/// typed [`TraceKnobError`].
pub const TRACE_BUFFER_ENV: &str = "HOM_TRACE_BUFFER";

/// 1-in-N deterministic batch sampling for router-originated traces
/// (`1` — the default — traces every batch). Read by
/// [`trace_sample_from_env`]; set-but-malformed is a typed
/// [`TraceKnobError`].
pub const TRACE_SAMPLE_ENV: &str = "HOM_TRACE_SAMPLE";

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over an operation tag plus the operation's 8-byte identity —
/// the whole id-derivation scheme. Pure, so tests can predict ids.
fn derive(tag: &str, id: u64) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in tag.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    for b in id.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    // 0 is the "untraced" sentinel everywhere; never derive it.
    if h == 0 {
        1
    } else {
        h
    }
}

/// The identity one traced operation carries across the wire (see the
/// [module docs](self)). `trace_id == 0` means "no trace active" — the
/// state every thread starts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Fleet-wide id of the logical operation (0 = untraced).
    pub trace_id: u64,
    /// Span id on the *sending* node that receiver-side root spans
    /// become children of (0 = the trace root itself).
    pub parent_span_id: u64,
}

impl TraceContext {
    /// A root context for an explicit (nonzero-forced) trace id.
    pub fn new(trace_id: u64) -> Self {
        TraceContext {
            trace_id: if trace_id == 0 { 1 } else { trace_id },
            parent_span_id: 0,
        }
    }

    /// The trace of the router's `seq`-th submitted batch.
    pub fn for_batch(seq: u64) -> Self {
        TraceContext::new(derive("batch", seq))
    }

    /// The trace of the two-phase migration of `stream`.
    pub fn for_migration(stream: u64) -> Self {
        TraceContext::new(derive("migrate", stream))
    }

    /// The trace of the two-phase fleet swap to `epoch`.
    pub fn for_swap(epoch: u64) -> Self {
        TraceContext::new(derive("swap", epoch))
    }

    /// The trace of the router's `round`-th health-probe sweep.
    pub fn for_probe(round: u64) -> Self {
        TraceContext::new(derive("probe", round))
    }

    /// The same trace, re-parented under `parent_span_id` — what a
    /// sender stamps on the wire so the receiver's spans nest under the
    /// sender's span for that exchange.
    pub fn child(self, parent_span_id: u64) -> Self {
        TraceContext {
            trace_id: self.trace_id,
            parent_span_id,
        }
    }

    /// Whether a trace is active (`trace_id != 0`).
    pub fn is_active(&self) -> bool {
        self.trace_id != 0
    }

    /// The `X-HOM-Trace` header value: two fixed-width lowercase hex
    /// fields, `<trace_id>-<parent_span_id>`.
    pub fn to_header(&self) -> String {
        format!("{:016x}-{:016x}", self.trace_id, self.parent_span_id)
    }

    /// Parse a header value produced by [`Self::to_header`]. `None` on
    /// anything else — an unparseable header means "untraced", never an
    /// error (tracing must not be able to fail a request).
    pub fn parse(s: &str) -> Option<TraceContext> {
        let (t, p) = s.trim().split_once('-')?;
        Some(TraceContext {
            trace_id: parse_trace_id(t)?,
            parent_span_id: hex16(p)?,
        })
    }
}

/// A trace id in its one canonical form — exactly 16 lowercase hex
/// digits, nonzero — as [`TraceContext`] renders it in headers, exemplar
/// labels and `/trace/<id>` URLs. `None` on anything else, including
/// forms `u64::from_str_radix` would take (a leading `+`, uppercase
/// digits, another width).
pub fn parse_trace_id(s: &str) -> Option<u64> {
    hex16(s).filter(|&id| id != 0)
}

/// Exactly 16 lowercase hex digits, as `{:016x}` renders a `u64`.
fn hex16(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    s.bytes().try_fold(0u64, |acc, b| {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        Some(acc << 4 | u64::from(digit))
    })
}

impl fmt::Display for TraceContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.trace_id)
    }
}

/// A tracing knob ([`TRACE_BUFFER_ENV`] / [`TRACE_SAMPLE_ENV`]) was set
/// but malformed — the workspace's no-silent-fallback convention: a
/// value the operator set deliberately is a typed error, never quietly
/// replaced by a default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceKnobError {
    /// The environment variable at fault.
    pub env: &'static str,
    /// The rejected value, verbatim.
    pub got: String,
}

impl fmt::Display for TraceKnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}={}: expected a positive integer",
            self.env, self.got
        )
    }
}

impl std::error::Error for TraceKnobError {}

fn positive_env(env: &'static str, default: u64) -> Result<u64, TraceKnobError> {
    match std::env::var(env) {
        Ok(v) if !v.is_empty() => v
            .parse::<u64>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or(TraceKnobError { env, got: v }),
        _ => Ok(default),
    }
}

/// Resolve [`TRACE_BUFFER_ENV`]: the per-node span capacity of a
/// [`crate::TraceBuffer`], defaulting to
/// [`crate::TraceBuffer::DEFAULT_CAPACITY`].
pub fn trace_buffer_from_env() -> Result<usize, TraceKnobError> {
    positive_env(
        TRACE_BUFFER_ENV,
        crate::trace::TraceBuffer::DEFAULT_CAPACITY as u64,
    )
    .map(|n| n as usize)
}

/// Resolve [`TRACE_SAMPLE_ENV`]: trace 1 in N router batches
/// (default 1 — every batch; migration/swap/probe traces are always
/// on, they are reconfiguration-rate, not traffic-rate).
pub fn trace_sample_from_env() -> Result<u64, TraceKnobError> {
    positive_env(TRACE_SAMPLE_ENV, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_pure_and_tagged() {
        assert_eq!(TraceContext::for_batch(7), TraceContext::for_batch(7));
        assert_ne!(
            TraceContext::for_batch(7).trace_id,
            TraceContext::for_batch(8).trace_id
        );
        // Same numeric identity, different operation → different trace.
        assert_ne!(
            TraceContext::for_batch(7).trace_id,
            TraceContext::for_migration(7).trace_id
        );
        assert_ne!(
            TraceContext::for_swap(1).trace_id,
            TraceContext::for_probe(1).trace_id
        );
        assert!(TraceContext::for_batch(0).is_active(), "ids never derive 0");
    }

    #[test]
    fn header_round_trips() {
        let ctx = TraceContext::for_migration(u64::MAX).child(42);
        let parsed = TraceContext::parse(&ctx.to_header()).expect("own header parses");
        assert_eq!(parsed, ctx);
        assert_eq!(ctx.to_header().len(), 33, "fixed-width hex-dash-hex");
    }

    #[test]
    fn malformed_headers_mean_untraced() {
        for bad in [
            "",
            "zzz",
            "123-456",                             // not fixed-width
            "0000000000000000-0000000000000001",   // zero trace id
            "00000000000000010000000000000002",    // no dash
            "000000000000000g-0000000000000001",   // bad hex
            "0000000000000001-0000000000000002-3", // trailing field
            "+00000000000000a-0000000000000001",   // sign
            "000000000000000A-0000000000000001",   // uppercase
            "0000000000000001-+000000000000002",   // signed parent
        ] {
            assert_eq!(TraceContext::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn child_keeps_the_trace_id() {
        let root = TraceContext::for_swap(3);
        let child = root.child(99);
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_span_id, 99);
    }

    #[test]
    fn knob_defaults_apply_when_unset() {
        // The test runner does not set the knobs; if a developer runs
        // tests with them set, the parsed values are the correct result.
        if std::env::var(TRACE_BUFFER_ENV).is_err() {
            assert_eq!(
                trace_buffer_from_env().unwrap(),
                crate::trace::TraceBuffer::DEFAULT_CAPACITY
            );
        }
        if std::env::var(TRACE_SAMPLE_ENV).is_err() {
            assert_eq!(trace_sample_from_env().unwrap(), 1);
        }
    }
}
