//! Vendored, offline stand-in for the [`criterion`](https://bheisler.github.io/criterion.rs/book/)
//! benchmark harness.
//!
//! The build environment has no network access, so the real criterion cannot
//! be fetched. This crate keeps the workspace's benches source-compatible:
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`] (with
//! `sample_size` and `finish`), [`Bencher::iter`], [`black_box`], and the
//! [`criterion_group!`]/[`criterion_main!`] macros. Measurement is a plain
//! wall-clock sampler — one timed call per sample, reporting
//! min/median/mean/max — with none of criterion's statistical machinery.
//! Numbers it prints are indicative, not publication grade; the benches
//! still serve their main purposes of regenerating figure reports and
//! catching gross regressions.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use std::time::{Duration, Instant};

/// Prevents the optimiser from deleting a benchmark's result.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Top-level benchmark driver, handed to every `criterion_group!` target.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        // The real criterion defaults to 100 samples; that is affordable
        // here because each sample is a single call.
        Criterion { sample_size: 100 }
    }
}

impl Criterion {
    /// Benchmarks `f` under `name` with the driver's default sample count.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(name, self.sample_size, &mut f);
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.to_string(),
            sample_size: 100,
        }
    }
}

/// A named group of benchmarks sharing a sample-size override.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of samples per benchmark in this group.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = samples.max(1);
        self
    }

    /// Benchmarks `f` under `group/name`.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(&format!("{}/{}", self.name, name), self.sample_size, &mut f);
        self
    }

    /// Ends the group (kept for API compatibility; reporting is immediate).
    pub fn finish(self) {}
}

/// Passed to the benchmark closure; times the routine under test.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `routine`, one call per sample.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // One warm-up call, then `sample_size` timed calls.
        black_box(routine());
        self.samples.clear();
        self.samples.reserve(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }
}

/// Summary statistics of a set of timing samples.
///
/// The median is reported alongside min/mean/max because single-sample
/// scheduler noise (a preemption, a page-fault storm) skews the mean and
/// max arbitrarily, while the median of even a handful of samples is
/// robust.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Summary {
    /// Fastest sample.
    min: Duration,
    /// Median sample (mean of the two middle samples for even counts).
    median: Duration,
    /// Arithmetic mean of the samples.
    mean: Duration,
    /// Slowest sample.
    max: Duration,
    /// Number of samples summarised.
    samples: usize,
}

/// Summarises timing samples into min/median/mean/max.
///
/// # Panics
///
/// Panics if `samples` is empty.
fn summarize(samples: &[Duration]) -> Summary {
    assert!(!samples.is_empty(), "cannot summarise zero samples");
    let mut sorted: Vec<Duration> = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    };
    let total: Duration = sorted.iter().sum();
    Summary {
        min: sorted[0],
        median,
        mean: total / n as u32,
        max: sorted[n - 1],
        samples: n,
    }
}

fn run_bench<F>(name: &str, sample_size: usize, f: &mut F)
where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher {
        samples: Vec::new(),
        sample_size,
    };
    f(&mut bencher);
    if bencher.samples.is_empty() {
        println!("{name:<48} (no samples)");
        return;
    }
    let summary = summarize(&bencher.samples);
    println!(
        "{name:<48} [min {} / median {} / mean {} / max {}] over {} samples",
        human(summary.min),
        human(summary.median),
        human(summary.mean),
        human(summary.max),
        summary.samples
    );
}

fn human(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos as f64 / 1_000_000_000.0)
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark binary's `main`, mirroring criterion's macro.
///
/// Command-line arguments (`cargo bench` passes `--bench`) are ignored.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_requested_samples() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke");
        group.sample_size(3);
        let mut runs = 0u32;
        group.bench_function("counting", |b| {
            b.iter(|| {
                runs += 1;
                runs
            })
        });
        group.finish();
        // 1 warm-up + 3 samples.
        assert_eq!(runs, 4);
    }

    #[test]
    fn summary_reports_robust_median() {
        let samples = [
            Duration::from_micros(10),
            Duration::from_micros(12),
            Duration::from_micros(11),
            Duration::from_micros(500), // scheduler outlier
            Duration::from_micros(13),
        ];
        let summary = summarize(&samples);
        assert_eq!(summary.min, Duration::from_micros(10));
        assert_eq!(summary.median, Duration::from_micros(12));
        assert_eq!(summary.max, Duration::from_micros(500));
        assert_eq!(summary.samples, 5);
        // The outlier drags the mean far above the median.
        assert!(summary.mean > summary.median * 2);
        // Even counts interpolate the middle pair.
        let even = summarize(&samples[..4]);
        assert_eq!(even.median, (Duration::from_micros(11) + Duration::from_micros(12)) / 2);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn summary_of_nothing_panics() {
        let _ = summarize(&[]);
    }

    #[test]
    fn human_formats_each_magnitude() {
        assert_eq!(human(Duration::from_nanos(12)), "12 ns");
        assert_eq!(human(Duration::from_micros(12)), "12.00 µs");
        assert_eq!(human(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(human(Duration::from_secs(2)), "2.00 s");
    }
}
