//! Every input a run uses, made before set-up starts.
//!
//! The historical stream the model is mined from and the serving records
//! come from one fixed Hyperplane stream, so every run mines the same
//! model and does the same set-up work: with a per-seed corpus, the
//! mined model (its concept count and tree depth) and thus the cost of a
//! prediction varied from seed to seed more than the program did from
//! run to run. The seed draws the request sequence: which stream each
//! request addresses, and where in the serving records it starts.

use hom_data::stream::collect;
use hom_data::{Dataset, StreamSource};
use hom_datagen::{HyperplaneParams, HyperplaneSource};
use hom_serve::Request;

/// Seed of the fixed Hyperplane stream behind the corpus.
const CORPUS_SEED: u64 = 1;
/// Historical records the model is mined from.
pub const HISTORICAL: usize = 50_000;
/// Serving records, cycled through by the request sequence.
const POOL: usize = 1 << 16;
/// Pre-drawn stream ids, cycled through by the request sequence.
const IDS: usize = 1 << 20;
/// Requests per batch, in the warm pass and the timed phase.
pub const BATCH: usize = 2_048;

/// A small, fast, seedable generator (SplitMix64) for stream ids.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-40 for
    /// the stream counts used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The request sequence of one run. Batch `k` of the timed phase is a
/// pure function of `k`, so the correctness reference replays exactly
/// what the system under test served.
pub struct Inputs {
    /// The historical stream the model is mined from.
    pub training: Dataset,
    pool: Vec<(Vec<f64>, u32)>,
    /// Where in the pool the request sequence starts.
    pool_start: usize,
    ids: Vec<u64>,
    streams: u64,
}

impl Inputs {
    /// The corpus, and the request sequence `seed` draws.
    pub fn new(seed: u64, streams: u64) -> Inputs {
        let mut source = HyperplaneSource::new(HyperplaneParams {
            seed: CORPUS_SEED,
            ..Default::default()
        });
        let (training, _) = collect(&mut source, HISTORICAL);
        let pool = (0..POOL)
            .map(|_| {
                let r = source.next_record();
                (r.x.to_vec(), r.y)
            })
            .collect();
        let mut rng = SplitMix::new(seed);
        let pool_start = rng.below(POOL as u64) as usize;
        let ids = (0..IDS).map(|_| rng.below(streams)).collect();
        Inputs {
            training,
            pool,
            pool_start,
            ids,
            streams,
        }
    }

    /// Batches of the warm pass: every stream once, in id order.
    pub fn warm_batches(&self) -> usize {
        (self.streams as usize).div_ceil(BATCH)
    }

    /// Fill `out` with warm batch `k`.
    pub fn fill_warm(&self, k: usize, out: &mut Vec<Request>) {
        let first = k * BATCH;
        let last = (first + BATCH).min(self.streams as usize);
        self.fill_with(out, last - first, |i| {
            let j = first + i;
            (j as u64, j)
        });
    }

    /// Fill `out` with timed batch `k`.
    pub fn fill(&self, k: usize, out: &mut Vec<Request>) {
        let base = k * BATCH;
        self.fill_with(out, BATCH, |i| {
            let j = base + i;
            (self.ids[j % IDS], j)
        });
    }

    /// Write `n` `Step` requests into `out`, request `i` addressing
    /// stream `pick(i).0` with serving record `pick(i).1`. Reuses the
    /// requests already in `out`, so the timed loop allocates nothing.
    fn fill_with(&self, out: &mut Vec<Request>, n: usize, pick: impl Fn(usize) -> (u64, usize)) {
        out.truncate(n);
        for i in 0..n {
            let (stream, j) = pick(i);
            let (x, y) = &self.pool[(self.pool_start + j) % POOL];
            match out.get_mut(i) {
                Some(Request::Step {
                    stream: s,
                    x: xs,
                    y: ys,
                }) => {
                    *s = stream;
                    xs.copy_from_slice(x);
                    *ys = *y;
                }
                _ => out.push(Request::Step {
                    stream,
                    x: x.clone(),
                    y: *y,
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streams_of(batch: &[Request]) -> Vec<u64> {
        batch.iter().map(Request::stream).collect()
    }

    #[test]
    fn batches_are_a_pure_function_of_seed_and_index() {
        let a = Inputs::new(7, 1_000);
        let b = Inputs::new(7, 1_000);
        let (mut x, mut y) = (Vec::new(), Vec::new());
        a.fill(3, &mut x);
        a.fill(5, &mut x); // reuse must overwrite, not append
        b.fill(5, &mut y);
        assert_eq!(x.len(), BATCH);
        assert_eq!(streams_of(&x), streams_of(&y));
        assert!(streams_of(&x).iter().all(|&s| s < 1_000));
    }

    #[test]
    fn warm_pass_creates_every_stream_once() {
        let inputs = Inputs::new(1, 5_000);
        let mut seen = Vec::new();
        let mut batch = Vec::new();
        for k in 0..inputs.warm_batches() {
            inputs.fill_warm(k, &mut batch);
            seen.extend(streams_of(&batch));
        }
        assert_eq!(seen, (0..5_000).collect::<Vec<u64>>());
    }
}
