//! Deterministic latency exemplars: sampled links from slow batches
//! back to the concrete streams and shards inside them.
//!
//! Histograms answer "how slow?"; exemplars answer "slow *for whom*?".
//! When a batch blows its latency objective, the serving engine records
//! a handful of `(stream, shard, batch latency)` exemplars so an
//! operator can jump from a burn-rate alert straight to the affected
//! shard and a representative stream id.
//!
//! Two properties keep this compatible with the workspace's
//! determinism contract:
//!
//! * **No RNG.** Sampling is a pure function of the stream id
//!   ([`hash_sampled`]) — the same multiplicative hash family the shard
//!   router uses — so the same traffic always yields the same
//!   exemplars, at any thread count.
//! * **No hot-path cost.** Exemplars are captured only after a batch
//!   already exceeded the objective, on the (rare) slow path, into a
//!   bounded overwrite-oldest ring.

use crate::export::prom_f64;

/// The Fibonacci multiplier (`⌊2^64/φ⌋`, forced odd) shared with the
/// serving shard router — a full-width multiply whose high bits mix
/// every input bit.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Deterministic 1-in-`2^log2_rate` sampling decision for a stream id.
///
/// `log2_rate == 0` samples everything. Otherwise the stream id is
/// mixed with a Fibonacci multiply and the top `log2_rate` bits must
/// all be zero — an unbiased `1/2^k` subset under the hash's bit
/// mixing, stable across runs, threads and shardings.
#[inline]
pub fn hash_sampled(stream: u64, log2_rate: u32) -> bool {
    log2_rate == 0 || stream.wrapping_mul(FIB) >> (64 - log2_rate.min(63)) == 0
}

/// One sampled link from a slow batch to a stream inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Monotonic capture sequence number (engine-wide).
    pub seq: u64,
    /// The sampled stream id.
    pub stream: u64,
    /// The shard the stream routed to.
    pub shard: u32,
    /// The offending batch's wall-clock latency in nanoseconds.
    pub batch_ns: u64,
    /// The distributed trace id active when the batch ran (0 =
    /// untraced) — lets an operator jump from a slow-batch exemplar to
    /// the fleet-wide `/trace/<id>` tree for that exact batch.
    pub trace: u64,
}

/// A bounded overwrite-oldest ring of [`Exemplar`]s.
///
/// Capacity is fixed at construction; once full, each push evicts the
/// oldest entry. [`ExemplarRing::iter_recent`] yields oldest-first, so
/// renderers see a consistent time order.
#[derive(Debug)]
pub struct ExemplarRing {
    slots: Vec<Exemplar>,
    cap: usize,
    /// Total exemplars ever pushed; `next slot = pushed % cap`.
    pushed: u64,
}

impl ExemplarRing {
    /// A ring retaining the last `cap` exemplars (`cap >= 1` — a zero
    /// capacity is rounded up, a ring that drops everything silently
    /// would read as "no slow batches").
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        ExemplarRing {
            slots: Vec::with_capacity(cap),
            cap,
            pushed: 0,
        }
    }

    /// Record an exemplar, assigning it the next sequence number (which
    /// is also returned). Evicts the oldest entry when full.
    pub fn push(&mut self, stream: u64, shard: u32, batch_ns: u64, trace: u64) -> u64 {
        let seq = self.pushed;
        let ex = Exemplar {
            seq,
            stream,
            shard,
            batch_ns,
            trace,
        };
        if self.slots.len() < self.cap {
            self.slots.push(ex);
        } else {
            self.slots[(seq % self.cap as u64) as usize] = ex;
        }
        self.pushed += 1;
        seq
    }

    /// Total exemplars ever pushed (including since-evicted ones).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// How many exemplars are currently retained.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the ring has captured nothing yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The retained exemplars, oldest first.
    pub fn iter_recent(&self) -> impl Iterator<Item = &Exemplar> {
        let split = (self.pushed % self.cap as u64) as usize;
        let (newer, older) = self.slots.split_at(split.min(self.slots.len()));
        older.iter().chain(newer.iter())
    }
}

/// Render exemplars as labeled Prometheus gauge samples under `name`
/// (e.g. `hom_slo_exemplar_batch_ns{stream="42",shard="3",seq="7"}`),
/// preceded by `# HELP` / `# TYPE` headers. Emits nothing when the
/// slice is empty — Prometheus families may not be declared
/// sample-free. Takes a slice (not the ring) so endpoints that only
/// hold a snapshot copied out from behind a lock can render it.
pub fn push_exemplars(out: &mut String, name: &str, exemplars: &[Exemplar]) {
    if exemplars.is_empty() {
        return;
    }
    out.push_str("# HELP ");
    out.push_str(name);
    out.push_str(" latency exemplars from batches over the SLO objective (hom-obs)\n# TYPE ");
    out.push_str(name);
    out.push_str(" gauge\n");
    for ex in exemplars {
        out.push_str(name);
        out.push_str("{stream=\"");
        out.push_str(&ex.stream.to_string());
        out.push_str("\",shard=\"");
        out.push_str(&ex.shard.to_string());
        out.push_str("\",seq=\"");
        out.push_str(&ex.seq.to_string());
        // The trace label only exists when a trace was active, so
        // untraced deployments render byte-identically to before tracing
        // existed. Hex to match the `/trace/<id>` URL and header format.
        if ex.trace != 0 {
            out.push_str("\",trace=\"");
            out.push_str(&format!("{:016x}", ex.trace));
        }
        out.push_str("\"} ");
        out.push_str(&prom_f64(ex.batch_ns as f64));
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_roughly_unbiased() {
        for stream in 0..1000u64 {
            assert!(hash_sampled(stream, 0), "rate 0 samples everything");
            assert_eq!(hash_sampled(stream, 3), hash_sampled(stream, 3));
        }
        let hits = (0..100_000u64).filter(|&s| hash_sampled(s, 3)).count();
        // 1-in-8 over 100k sequential ids: allow generous slack.
        assert!((10_000..15_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn ring_overwrites_oldest_and_iterates_in_order() {
        let mut ring = ExemplarRing::new(3);
        assert!(ring.is_empty());
        for i in 0..5u64 {
            let seq = ring.push(i, (i % 2) as u32, 1000 + i, 0);
            assert_eq!(seq, i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.pushed(), 5);
        let seqs: Vec<u64> = ring.iter_recent().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest first, newest retained");
    }

    #[test]
    fn zero_capacity_rounds_up() {
        let mut ring = ExemplarRing::new(0);
        ring.push(7, 1, 99, 0);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.iter_recent().next().unwrap().stream, 7);
    }

    #[test]
    fn prometheus_rendering_is_labeled_and_parseable() {
        let mut ring = ExemplarRing::new(4);
        ring.push(42, 3, 2_000_000, 0);
        ring.push(43, 1, 3_000_000, 0xdead_beef);
        let snapshot: Vec<Exemplar> = ring.iter_recent().copied().collect();
        let mut out = String::new();
        push_exemplars(&mut out, "hom_slo_exemplar_batch_ns", &snapshot);
        assert!(out.contains("# TYPE hom_slo_exemplar_batch_ns gauge\n"));
        // Untraced exemplars render exactly as before tracing existed.
        assert!(out
            .contains("hom_slo_exemplar_batch_ns{stream=\"42\",shard=\"3\",seq=\"0\"} 2000000\n"));
        // Traced ones carry the trace id in the /trace URL's hex format.
        assert!(out.contains(
            "hom_slo_exemplar_batch_ns{stream=\"43\",shard=\"1\",seq=\"1\",trace=\"00000000deadbeef\"} 3000000\n"
        ));

        let mut empty = String::new();
        push_exemplars(&mut empty, "hom_x", &[]);
        assert!(empty.is_empty(), "no exemplars render nothing");
    }
}
