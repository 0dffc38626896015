//! Offline stand-in for [`criterion`](https://crates.io/crates/criterion).
//!
//! The build environment cannot fetch external crates, so this shim
//! implements the call surface the workspace's micro-benches use —
//! [`Criterion`], benchmark groups (with an optional [`Throughput`]),
//! [`Bencher::iter`] / [`Bencher::iter_batched`], [`criterion_group!`] /
//! [`criterion_main!`] and [`black_box`] — with a simple measurement
//! loop: warm up briefly, then time `sample_size` samples and report
//! min / median / mean nanoseconds per iteration (and the median per
//! element, when the group declares a throughput) to stdout. There are
//! no HTML reports, no statistical regression analysis and no baseline
//! storage.

use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer identity function.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How `iter_batched` amortizes setup cost. The shim runs one routine
/// call per setup regardless of the hint, so the variants only exist for
/// call-site compatibility.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// How much work one iteration does, so a group can report time per
/// unit of work as well as per iteration.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Each iteration processes this many elements.
    Elements(u64),
}

/// The benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 30 }
    }
}

impl Criterion {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Apply command-line configuration. The shim accepts and ignores
    /// the harness arguments cargo-bench passes (`--bench`, filters).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(name, self.sample_size, None, &mut f);
        self
    }

    /// Open a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            throughput: None,
        }
    }

    /// Print the closing summary (no-op in the shim).
    pub fn final_summary(&mut self) {}
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.criterion.sample_size = n;
        self
    }

    /// Declare the work per iteration of the benchmarks that follow.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Run one benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        run_one(&full, self.criterion.sample_size, self.throughput, &mut f);
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// Passed to each benchmark closure; runs and times the measured routine.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `routine`, called `iters` times back to back.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Time `routine` over inputs produced by `setup`; only the routine
    /// is timed.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut elapsed = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            elapsed += start.elapsed();
        }
        self.elapsed = elapsed;
    }
}

fn run_one(
    name: &str,
    sample_size: usize,
    throughput: Option<Throughput>,
    f: &mut dyn FnMut(&mut Bencher),
) {
    // Calibrate: grow the per-sample iteration count until one sample
    // takes ≥ ~2ms, so cheap routines are not dominated by timer noise.
    let mut iters: u64 = 1;
    loop {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        if b.elapsed >= Duration::from_millis(2) || iters >= 1 << 20 {
            break;
        }
        iters *= 4;
    }

    let mut per_iter: Vec<f64> = (0..sample_size)
        .map(|_| {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            b.elapsed.as_secs_f64() / iters as f64
        })
        .collect();
    per_iter.sort_by(f64::total_cmp);
    let min = per_iter[0];
    let median = per_iter[per_iter.len() / 2];
    let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    let per_element = match throughput {
        Some(Throughput::Elements(n)) if n > 0 => {
            format!("  median {:>10}/element", fmt_ns(median / n as f64))
        }
        _ => String::new(),
    };
    println!(
        "{name:<40} min {:>12}  median {:>12}  mean {:>12}  ({} samples x {} iters){per_element}",
        fmt_ns(min),
        fmt_ns(median),
        fmt_ns(mean),
        sample_size,
        iters
    );
}

fn fmt_ns(secs: f64) -> String {
    let ns = secs * 1e9;
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Declare a group of benchmark functions (same two forms as the real
/// crate).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config.configure_from_args();
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declare the benchmark entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_times() {
        let mut c = Criterion::default().sample_size(3);
        let mut runs = 0u64;
        c.bench_function("noop", |b| {
            b.iter(|| {
                runs += 1;
            })
        });
        assert!(runs > 0);
    }

    #[test]
    fn iter_batched_times_only_routine() {
        let mut b = Bencher {
            iters: 10,
            elapsed: Duration::ZERO,
        };
        b.iter_batched(|| vec![1u8; 8], |v| v.len(), BatchSize::SmallInput);
        assert_eq!(b.iters, 10);
    }

    #[test]
    fn ns_formatting_picks_units() {
        assert!(fmt_ns(5e-9).ends_with("ns"));
        assert!(fmt_ns(5e-6).ends_with("µs"));
        assert!(fmt_ns(5e-3).ends_with("ms"));
        assert!(fmt_ns(5.0).ends_with(" s"));
    }
}
