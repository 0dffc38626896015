//! The load generator: one closed-loop client, measured in fixed windows.
//!
//! A host that lends this guest its vCPUs takes them away in bursts of a
//! fraction of a second (steal). A sampler thread reads host steal and
//! process CPU at every window boundary; the end-to-end figures leave out
//! the windows a burst hit ([`calm_windows`]), so a burst in one run does
//! not move them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hom_serve::{Request, Response};

use crate::inputs::{Inputs, BATCH};
use crate::procfs::{HostCpu, ProcCpu};
use crate::system::System;

/// Length of a measurement window.
pub const WINDOW: Duration = Duration::from_millis(500);

/// What one timed batch did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Digest of the batch index and every prediction, in order.
    pub digest: u64,
    /// Whether the batch failed (error, or a short or misaddressed reply).
    pub failed: bool,
    /// Wall time of the submit call (the batch's latency), nanoseconds.
    pub service_ns: u64,
    /// When the reply arrived, nanoseconds after the phase started.
    pub done_ns: u64,
}

/// Host and process CPU counters at one window boundary.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Time since the phase started.
    pub at: Duration,
    /// Host CPU counters.
    pub host: HostCpu,
    /// This process's CPU.
    pub cpu: ProcCpu,
}

impl Sample {
    fn now(start: Instant) -> Sample {
        Sample {
            host: HostCpu::read(),
            cpu: ProcCpu::read(),
            at: start.elapsed(),
        }
    }
}

/// A timed phase: batches `first..first + outcomes.len()` of the run.
pub struct Phase {
    /// Index of the phase's first batch.
    pub first: usize,
    /// One entry per batch, in index order.
    pub outcomes: Vec<Outcome>,
    /// Counters at the phase's start, every window boundary and its end.
    pub samples: Vec<Sample>,
    /// Client-side seconds spent filling and checking batches, timed
    /// around those steps.
    pub client_s: f64,
}

/// The figures of a phase's calm windows.
pub struct Calm {
    /// Windows kept, of those long enough to rank.
    pub kept: usize,
    /// Windows long enough to rank.
    pub ranked: usize,
    /// Seconds the kept windows span.
    pub seconds: f64,
    /// Requests answered in them.
    pub preds: f64,
    /// Process CPU in them.
    pub cpu: ProcCpu,
    /// Host steal share in them.
    pub steal_share: f64,
    /// Latencies of the batches answered in them, nanoseconds.
    pub latencies_ns: Vec<f64>,
}

/// Share of a window's CPU time the host may take (steal) before the
/// window is left out of the figures.
pub const STEAL_LIMIT: f64 = 0.05;

/// Indices of the windows to keep. Of the windows at least half a window
/// long, those with at most [`STEAL_LIMIT`] steal; when that leaves fewer
/// than half of them, the least-stolen half (rounded up, ties to the
/// earlier), so the figures always rest on half the phase or more.
pub fn calm_windows(lengths: &[Duration], steal_shares: &[f64]) -> Vec<usize> {
    let ranked: Vec<usize> = (0..lengths.len())
        .filter(|&i| lengths[i] >= WINDOW / 2)
        .collect();
    let half = ranked.len().div_ceil(2);
    let calm: Vec<usize> = ranked
        .iter()
        .copied()
        .filter(|&i| steal_shares[i] <= STEAL_LIMIT)
        .collect();
    if calm.len() >= half {
        return calm;
    }
    let mut least = ranked;
    least.sort_by(|&a, &b| steal_shares[a].total_cmp(&steal_shares[b]).then(a.cmp(&b)));
    least.truncate(half);
    least.sort_unstable();
    least
}

impl Phase {
    /// Wall seconds from the first send to the last reply.
    pub fn wall_s(&self) -> f64 {
        self.samples
            .last()
            .expect("a phase has samples")
            .at
            .as_secs_f64()
    }

    /// Process CPU over the whole phase.
    pub fn cpu(&self) -> ProcCpu {
        let (first, last) = (self.samples[0], self.samples[self.samples.len() - 1]);
        last.cpu.since(&first.cpu)
    }

    /// Host steal share over the whole phase.
    pub fn steal_share(&self) -> f64 {
        let (first, last) = (self.samples[0], self.samples[self.samples.len() - 1]);
        first.host.steal_share(&last.host)
    }

    /// Host steal share of each window.
    pub fn window_steal(&self) -> Vec<f64> {
        self.samples
            .windows(2)
            .map(|w| w[0].host.steal_share(&w[1].host))
            .collect()
    }

    /// The figures of the calm windows ([`calm_windows`]).
    pub fn calm(&self) -> Calm {
        let pairs: Vec<(Sample, Sample)> = self.samples.windows(2).map(|w| (w[0], w[1])).collect();
        let lengths: Vec<Duration> = pairs.iter().map(|(a, b)| b.at - a.at).collect();
        let steal = self.window_steal();
        let kept = calm_windows(&lengths, &steal);
        let mut calm = Calm {
            kept: kept.len(),
            ranked: lengths.iter().filter(|&&l| l >= WINDOW / 2).count(),
            seconds: 0.0,
            preds: 0.0,
            cpu: ProcCpu::default(),
            steal_share: 0.0,
            latencies_ns: Vec::new(),
        };
        let (mut stolen, mut total) = (0u64, 0u64);
        for &i in &kept {
            let (a, b) = pairs[i];
            calm.seconds += lengths[i].as_secs_f64();
            let used = b.cpu.since(&a.cpu);
            calm.cpu.user_s += used.user_s;
            calm.cpu.sys_s += used.sys_s;
            stolen += b.host.steal - a.host.steal;
            total += b.host.total - a.host.total;
            let (from, to) = (a.at.as_nanos() as u64, b.at.as_nanos() as u64);
            for o in &self.outcomes {
                if !o.failed && o.done_ns >= from && o.done_ns < to {
                    calm.preds += BATCH as f64;
                    calm.latencies_ns.push(o.service_ns as f64);
                }
            }
        }
        calm.steal_share = if total == 0 {
            0.0
        } else {
            stolen as f64 / total as f64
        };
        calm
    }
}

/// Digest of batch `k`'s replies, checked against the request batch, and
/// the count of `Step` predictions that missed the label. `None` when the
/// reply is short or answers other streams.
pub fn digest(k: usize, batch: &[Request], replies: &[Response]) -> Option<(u64, u64)> {
    if replies.len() != batch.len() {
        return None;
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ k as u64;
    let mut mispredicts = 0;
    for (request, reply) in batch.iter().zip(replies) {
        let (Request::Step { stream, y, .. }, Some(p)) = (request, reply.prediction) else {
            return None;
        };
        if reply.stream != *stream {
            return None;
        }
        mispredicts += u64::from(p != *y);
        h = (h ^ u64::from(p)).wrapping_mul(0x0100_0000_01b3);
    }
    Some((h, mispredicts))
}

fn serve(system: &System, k: usize, batch: &[Request], start: Instant) -> Outcome {
    let sent = Instant::now();
    let replies = system.submit(batch);
    let service_ns = sent.elapsed().as_nanos() as u64;
    let done_ns = start.elapsed().as_nanos() as u64;
    let checked = replies.ok().and_then(|r| digest(k, batch, &r));
    Outcome {
        digest: checked.map_or(0, |(h, _)| h),
        failed: checked.is_none(),
        service_ns,
        done_ns,
    }
}

/// Run `load` while a sampler thread reads the counters at every window
/// boundary; returns the load's result and the samples.
fn sampled<T: Send>(load: impl FnOnce(Instant) -> T + Send) -> (T, Vec<Sample>) {
    let done = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut samples = vec![Sample::now(start)];
            let mut next = WINDOW;
            while !done.load(Ordering::Acquire) {
                match next.checked_sub(start.elapsed()) {
                    Some(wait) => std::thread::sleep(wait.min(Duration::from_millis(20))),
                    None => {
                        samples.push(Sample::now(start));
                        next += WINDOW;
                    }
                }
            }
            samples.push(Sample::now(start));
            samples
        });
        let out = load(start);
        done.store(true, Ordering::Release);
        (out, sampler.join().expect("the sampler never panics"))
    })
}

/// One client that sends batch `k + 1` when batch `k` has returned,
/// from batch `first` until `seconds` have passed.
pub fn closed_loop(system: &System, inputs: &Inputs, first: usize, seconds: f64) -> Phase {
    let budget = Duration::from_secs_f64(seconds);
    let ((outcomes, client), samples) = sampled(|start| {
        let mut batch = Vec::new();
        let mut outcomes = Vec::new();
        let mut client = Duration::ZERO;
        while start.elapsed() < budget {
            let k = first + outcomes.len();
            let filling = Instant::now();
            inputs.fill(k, &mut batch);
            client += filling.elapsed();
            let called = Instant::now();
            let outcome = serve(system, k, &batch, start);
            // What serve() spent beyond the submit call is the digest check.
            client += called
                .elapsed()
                .saturating_sub(Duration::from_nanos(outcome.service_ns));
            outcomes.push(outcome);
        }
        (outcomes, client)
    });
    Phase {
        first,
        outcomes,
        samples,
        client_s: client.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_windows_drop_stolen_windows() {
        let full = WINDOW;
        let lengths = [full, full, full, full, full, WINDOW / 4];
        // The short last window is never ranked; the two windows over
        // the limit are dropped.
        let steal = [0.30, 0.01, 0.05, 0.0, 0.20, 0.0];
        assert_eq!(calm_windows(&lengths, &steal), vec![1, 2, 3]);
        assert_eq!(calm_windows(&lengths, &[0.0; 6]), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn calm_windows_keep_at_least_half_of_the_phase() {
        let full = WINDOW;
        let lengths = [full; 5];
        // Only one window is under the limit: the least-stolen three stay.
        let steal = [0.30, 0.06, 0.05, 0.09, 0.20];
        assert_eq!(calm_windows(&lengths, &steal), vec![1, 2, 3]);
        assert_eq!(calm_windows(&[full], &[0.9]), vec![0]);
    }

    #[test]
    fn digest_rejects_short_and_misaddressed_replies() {
        let batch = vec![
            Request::Step {
                stream: 1,
                x: vec![0.0],
                y: 1,
            },
            Request::Step {
                stream: 2,
                x: vec![0.0],
                y: 0,
            },
        ];
        let reply = |stream, p| Response {
            stream,
            prediction: Some(p),
        };
        let (h, miss) = digest(0, &batch, &[reply(1, 1), reply(2, 1)]).unwrap();
        assert_eq!(miss, 1);
        assert_ne!(
            Some(h),
            digest(1, &batch, &[reply(1, 1), reply(2, 1)]).map(|d| d.0)
        );
        assert_eq!(digest(0, &batch, &[reply(1, 1)]), None);
        assert_eq!(digest(0, &batch, &[reply(1, 1), reply(3, 1)]), None);
    }
}
