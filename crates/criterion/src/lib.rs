//! Offline, in-tree stand-in for the `criterion` crate.
//!
//! The build environment has no network access, so the real `criterion`
//! cannot be fetched. This crate implements the subset of the API the
//! workspace's `harness = false` benches use — `Criterion`,
//! `benchmark_group`, `bench_with_input`, `Bencher::iter`, `Throughput`,
//! and the `criterion_group!`/`criterion_main!` macros — with a simple
//! wall-clock measurement loop instead of criterion's statistical
//! machinery. Output is one line per benchmark: the median time per
//! iteration over `sample_size` samples with their min, max and median
//! absolute deviation, plus derived throughput when configured.

#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver handed to each `criterion_group!` target.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 10,
            throughput: None,
        }
    }

    /// Runs a single benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = self.benchmark_group(id.into());
        group.bench_with_input(BenchmarkId::new("", ""), &(), |b, _| f(b));
        group.finish();
        self
    }
}

/// How many work items one benchmark iteration processes; used to
/// derive a rate from the measured time.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Identifies one benchmark within a group: a function name plus a
/// display-formatted parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
    param: String,
}

impl BenchmarkId {
    /// Builds an id from a name and a parameter value.
    pub fn new(name: impl Into<String>, param: impl Display) -> Self {
        BenchmarkId {
            name: name.into(),
            param: param.to_string(),
        }
    }

    /// Builds an id from just a parameter value.
    pub fn from_parameter(param: impl Display) -> Self {
        BenchmarkId {
            name: String::new(),
            param: param.to_string(),
        }
    }

    fn render(&self, group: &str) -> String {
        let mut s = group.to_string();
        if !self.name.is_empty() {
            s.push('/');
            s.push_str(&self.name);
        }
        if !self.param.is_empty() {
            s.push('/');
            s.push_str(&self.param);
        }
        s
    }
}

/// A named collection of benchmarks sharing settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timing samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Declares per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Accepted for compatibility; the measurement loop sizes itself.
    pub fn measurement_time(&mut self, _t: Duration) -> &mut Self {
        self
    }

    /// Runs one benchmark with an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            summary: None,
        };
        f(&mut bencher, input);
        self.report(&id, bencher.summary);
        self
    }

    /// Runs one benchmark without an input value.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.bench_with_input(id.into_benchmark_id(), &(), |b, _| f(b))
    }

    /// Ends the group. (Reporting happens per-benchmark.)
    pub fn finish(self) {}

    fn report(&self, id: &BenchmarkId, summary: Option<Summary>) {
        let label = id.render(&self.name);
        match summary {
            Some(summary) => {
                let ns = summary.median;
                let rate = match self.throughput {
                    Some(Throughput::Elements(n)) => {
                        format!("  ({:.3e} elem/s)", n as f64 / (ns * 1e-9))
                    }
                    Some(Throughput::Bytes(n)) => {
                        format!("  ({:.3e} B/s)", n as f64 / (ns * 1e-9))
                    }
                    None => String::new(),
                };
                println!(
                    "{label:<48} time: {} /iter  (min {}, max {}, MAD {}){rate}",
                    format_ns(ns),
                    format_ns(summary.min),
                    format_ns(summary.max),
                    format_ns(summary.mad),
                );
            }
            None => println!("{label:<48} (no measurement: Bencher::iter never called)"),
        }
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Conversion helper so `bench_function` accepts `&str` or `BenchmarkId`.
pub trait IntoBenchmarkId {
    /// Converts into a [`BenchmarkId`].
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId::new(self, "")
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId::new(self, "")
    }
}

/// Median, extremes and spread of one benchmark's samples, in ns per
/// iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Summary {
    median: f64,
    min: f64,
    max: f64,
    /// Median absolute deviation from `median`.
    mad: f64,
}

impl Summary {
    /// Summarises a non-empty sample set. For an even count both medians
    /// take the upper of the two middle values.
    fn of(mut samples: Vec<f64>) -> Summary {
        let upper_median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let median = upper_median(&mut samples);
        let mut deviations: Vec<f64> = samples.iter().map(|s| (s - median).abs()).collect();
        Summary {
            median,
            min: samples[0],
            max: samples[samples.len() - 1],
            mad: upper_median(&mut deviations),
        }
    }
}

/// Runs and times the closure under benchmark.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    summary: Option<Summary>,
}

impl Bencher {
    /// Measures `f`: calibrates an iteration count so one sample takes
    /// a few milliseconds, collects `sample_size` samples, and records
    /// their median, min, max and median absolute deviation per iteration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Calibration: time single iterations until ~10ms total elapses
        // (at least one), to pick the per-sample iteration count.
        let calibration_start = Instant::now();
        let mut calibration_iters = 0u64;
        while calibration_iters == 0 || calibration_start.elapsed() < Duration::from_millis(10) {
            black_box(f());
            calibration_iters += 1;
        }
        let per_iter = calibration_start.elapsed().as_secs_f64() / calibration_iters as f64;
        let iters_per_sample = ((0.005 / per_iter) as u64).clamp(1, 1_000_000);

        let samples: Vec<f64> = (0..self.sample_size)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters_per_sample {
                    black_box(f());
                }
                start.elapsed().as_secs_f64() * 1e9 / iters_per_sample as f64
            })
            .collect();
        self.summary = Some(Summary::of(samples));
    }
}

/// Bundles benchmark functions into a callable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the listed groups.
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

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("smoke");
        group.sample_size(3);
        group.throughput(Throughput::Elements(64));
        group.bench_with_input(BenchmarkId::new("sum", 10), &10u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn group_runs_and_measures() {
        benches();
    }

    #[test]
    fn summary_reports_median_extremes_and_mad() {
        // Sorted 1 3 4 5 9: median 4; deviations 3 1 0 1 5 sort to 0 1 1 3 5.
        let odd = Summary::of(vec![5.0, 1.0, 3.0, 9.0, 4.0]);
        assert_eq!(
            odd,
            Summary {
                median: 4.0,
                min: 1.0,
                max: 9.0,
                mad: 1.0
            }
        );
        // Sorted 2 4 6 8: upper median 6; deviations 4 2 0 2 sort to 0 2 2 4.
        let even = Summary::of(vec![8.0, 2.0, 6.0, 4.0]);
        assert_eq!(
            even,
            Summary {
                median: 6.0,
                min: 2.0,
                max: 8.0,
                mad: 2.0
            }
        );
        let one = Summary::of(vec![7.5]);
        assert_eq!(
            (one.median, one.min, one.max, one.mad),
            (7.5, 7.5, 7.5, 0.0)
        );
    }

    #[test]
    fn id_rendering() {
        assert_eq!(BenchmarkId::new("f", 5).render("g"), "g/f/5");
        assert_eq!(BenchmarkId::from_parameter(7).render("g"), "g/7");
    }
}
