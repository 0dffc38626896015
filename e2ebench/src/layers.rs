//! The per-layer breakdown of a traced phase, timed from outside the
//! program: around calls into each crate's public functions.
//!
//! For a cluster, every traced batch is replayed layer by layer after
//! the phase: `Router::owner` over the batch and its split into
//! per-worker sub-batches (route), the `wire` codec on the identical
//! sub-batches, and a standalone single-thread engine per worker, fed the
//! same sub-batch sequence from the warm pass on (engine). The traced
//! `Router::submit` wall time minus the critical path through those
//! spans is the transport residual: sockets, HTTP, connection threads.

use std::sync::Arc;
use std::time::Instant;

use hom_cluster_serve::wire;
use hom_core::HighOrderModel;
use hom_serve::{Request, ServeEngine};

use crate::drive::Phase;
use crate::inputs::Inputs;
use crate::system::{worker_engine, System};

/// Share of the traced submit wall time by which the layer spans may
/// overshoot it (a negative residual) before the breakdown is rejected.
pub const TOLERANCE: f64 = 0.05;

/// Layer totals over the traced batches, nanoseconds unless named.
#[derive(Debug, Default, Clone)]
pub struct ClusterSpans {
    /// Batches replayed.
    pub batches: u64,
    /// `Router::owner` over each batch and the per-worker split.
    pub route_ns: f64,
    /// `wire::encode_requests`, all sub-batches.
    pub encode_req_ns: f64,
    /// `wire::decode_requests`, all sub-batches.
    pub decode_req_ns: f64,
    /// Standalone `ServeEngine::submit`, all sub-batches.
    pub engine_ns: f64,
    /// Standalone `ServeEngine::submit` calls.
    pub engine_calls: u64,
    /// `wire::encode_responses`, all sub-batches.
    pub encode_resp_ns: f64,
    /// `wire::decode_responses`, all sub-batches.
    pub decode_resp_ns: f64,
    /// Request bytes on the wire.
    pub req_bytes: u64,
    /// Response bytes on the wire.
    pub resp_bytes: u64,
    /// Worker exchanges (occupied sub-batches).
    pub exchanges: u64,
    /// Every worker's decode + engine + encode.
    pub worker_ns: f64,
    /// Per batch, the slowest worker's decode + engine + encode.
    pub slowest_worker_ns: f64,
    /// Traced `Router::submit` wall time.
    pub wall_ns: f64,
}

impl ClusterSpans {
    /// The spans on the critical path of the traced batches. The router
    /// encodes every sub-batch before the fan-out and decodes every reply
    /// after it. The workers' work overlaps when they have a CPU each;
    /// on one CPU (`serial`) it runs one worker after the other.
    pub fn critical_path(&self, serial: bool) -> [(&'static str, f64); 4] {
        let workers = if serial {
            ("workers", self.worker_ns)
        } else {
            ("slowest_worker", self.slowest_worker_ns)
        };
        [
            ("route", self.route_ns),
            ("encode_requests", self.encode_req_ns),
            workers,
            ("decode_responses", self.decode_resp_ns),
        ]
    }
}

fn split(
    router_owner: impl Fn(u64) -> usize,
    batch: &[Request],
    workers: usize,
) -> Vec<Vec<Request>> {
    let mut per_worker = vec![Vec::new(); workers];
    for r in batch {
        per_worker[router_owner(r.stream())].push(r.clone());
    }
    per_worker
}

/// Replay the traced phase (which must start at batch 0) layer by layer.
pub fn cluster_spans(
    system: &System,
    model: &Arc<HighOrderModel>,
    inputs: &Inputs,
    traced: &Phase,
) -> Result<ClusterSpans, String> {
    assert_eq!(
        traced.first, 0,
        "the replay engines start from the warm pass"
    );
    let router = system.router().expect("a clustered system");
    let n_workers = router.workers().len();
    let engines: Vec<ServeEngine> = (0..n_workers)
        .map(|_| worker_engine(Arc::clone(model)).0)
        .collect();
    let mut batch = Vec::new();
    for k in 0..inputs.warm_batches() {
        inputs.fill_warm(k, &mut batch);
        for (engine, sub) in engines
            .iter()
            .zip(split(|s| router.owner(s), &batch, n_workers))
        {
            if !sub.is_empty() {
                engine.submit(&sub);
            }
        }
    }
    let mut spans = ClusterSpans::default();
    let ns = |t: Instant| t.elapsed().as_nanos() as f64;
    for (k, outcome) in traced.outcomes.iter().enumerate() {
        inputs.fill(k, &mut batch);
        let t = Instant::now();
        let subs = split(|s| router.owner(s), &batch, n_workers);
        let route = ns(t);
        let (mut slowest, mut workers) = (0.0f64, 0.0);
        for (engine, sub) in engines.iter().zip(&subs) {
            if sub.is_empty() {
                continue;
            }
            let t = Instant::now();
            let body = wire::encode_requests(sub).map_err(|e| e.to_string())?;
            let enc_req = ns(t);
            let t = Instant::now();
            let decoded = wire::decode_requests(&body).map_err(|e| e.to_string())?;
            let dec_req = ns(t);
            let t = Instant::now();
            let replies = engine.submit(&decoded);
            let eng = ns(t);
            let t = Instant::now();
            let text = wire::encode_responses(&replies);
            let enc_resp = ns(t);
            let t = Instant::now();
            let back = wire::decode_responses(&text).map_err(|e| e.to_string())?;
            let dec_resp = ns(t);
            if back != replies {
                return Err(format!("batch {k}: response codec does not round-trip"));
            }
            spans.encode_req_ns += enc_req;
            spans.decode_req_ns += dec_req;
            spans.engine_ns += eng;
            spans.encode_resp_ns += enc_resp;
            spans.decode_resp_ns += dec_resp;
            spans.engine_calls += 1;
            spans.req_bytes += body.len() as u64;
            spans.resp_bytes += text.len() as u64;
            spans.exchanges += 1;
            slowest = slowest.max(dec_req + eng + enc_resp);
            workers += dec_req + eng + enc_resp;
        }
        spans.route_ns += route;
        spans.slowest_worker_ns += slowest;
        spans.worker_ns += workers;
        spans.wall_ns += outcome.service_ns as f64;
        spans.batches += 1;
    }
    Ok(spans)
}

/// Attribute the traced `wall` time to `layers` and return the residual
/// the spans leave over. The spans may overshoot the wall time (a
/// negative residual) by at most [`TOLERANCE`] of it; beyond that the
/// breakdown is wrong and is rejected.
pub fn reconcile(what: &str, wall: f64, layers: &[(&str, f64)]) -> Result<f64, String> {
    let residual = wall - layers.iter().map(|(_, v)| v).sum::<f64>();
    if residual < -TOLERANCE * wall {
        return Err(format!(
            "{what}: layers {layers:?} exceed the wall time {wall:.0} by {:.0}",
            -residual
        ));
    }
    Ok(residual)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconcile_accepts_a_small_negative_residual_only() {
        assert_eq!(reconcile("t", 100.0, &[("a", 60.0), ("b", 30.0)]), Ok(10.0));
        assert_eq!(reconcile("t", 100.0, &[("a", 60.0), ("b", 44.0)]), Ok(-4.0));
        assert!(reconcile("t", 100.0, &[("a", 60.0), ("b", 50.0)]).is_err());
    }
}
