//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no crates.io access, so this workspace ships
//! a minimal wall-clock benchmark harness that is source-compatible with
//! the criterion API subset its benches use: [`Criterion`],
//! `benchmark_group`/`bench_function`, `Bencher::iter`, [`black_box`] and
//! the [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! Measurement model: each benchmark is warmed up for a fixed wall-clock
//! budget, then sampled in batches until the measurement budget elapses.
//! Every measured batch keeps its time per iteration. The mean, the
//! fastest batch, the median and quartiles of the batches (each batch
//! weighted by its iteration count) and the iteration count are reported
//! on stdout; the median and the interquartile range are what one slow
//! stretch of the host moves least. Results are also collected on the
//! [`Criterion`] instance so harness binaries can serialize them (see
//! [`Criterion::results`]).
//!
//! As with criterion, a name filter on the command line runs only the
//! benchmarks whose `group/name` id contains it:
//! `cargo bench --bench flow_stages -- fuzz`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// An opaque identity function that prevents the optimizer from deleting a
/// computation or const-folding its input.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// `group/name` identifier.
    pub id: String,
    /// Mean time per iteration in nanoseconds.
    pub mean_ns: f64,
    /// Fastest observed batch, per iteration, in nanoseconds.
    pub min_ns: f64,
    /// Median time per iteration over the measured batches, each batch
    /// weighted by its iterations, in nanoseconds.
    pub median_ns: f64,
    /// First quartile of the same weighted sample, in nanoseconds.
    pub q1_ns: f64,
    /// Third quartile of the same weighted sample, in nanoseconds.
    pub q3_ns: f64,
    /// Total iterations measured.
    pub iters: u64,
}

/// The weighted `q`-quantile of `(value, weight)` samples: the smallest
/// value whose cumulative weight, in ascending value order, reaches `q`
/// of the total. NaN for an empty or weightless sample.
fn weighted_quantile(samples: &[(f64, u64)], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = sorted.iter().map(|&(_, w)| w).sum();
    let target = q * total as f64;
    let mut seen = 0u64;
    for &(value, weight) in &sorted {
        seen += weight;
        if weight > 0 && seen as f64 >= target {
            return value;
        }
    }
    f64::NAN
}

/// The benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    warmup: Duration,
    measurement: Duration,
    results: Vec<BenchResult>,
    /// Substring a benchmark id must contain to run; `None` runs all.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            warmup: Duration::from_millis(300),
            measurement: Duration::from_millis(1200),
            results: Vec::new(),
            filter: None,
        }
    }
}

impl Criterion {
    /// Reads the benchmark name filter from the command line: the first
    /// argument that is not a `--` flag (`cargo bench` passes `--bench`,
    /// and criterion's own flags are ignored).
    pub fn configure_from_args(self) -> Self {
        self.with_args(std::env::args().skip(1))
    }

    fn with_args(mut self, args: impl IntoIterator<Item = String>) -> Self {
        self.filter = args.into_iter().find(|a| !a.starts_with("--"));
        self
    }

    /// Sets the warm-up budget.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warmup = d;
        self
    }

    /// Sets the measurement budget.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement = d;
        self
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.into(),
        }
    }

    /// Runs one ungrouped benchmark.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        self.run(name.to_string(), f);
        self
    }

    /// All measurements taken so far, in execution order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    fn run(&mut self, id: String, mut f: impl FnMut(&mut Bencher)) {
        if self
            .filter
            .as_ref()
            .is_some_and(|want| !id.contains(want.as_str()))
        {
            return;
        }
        let mut b = Bencher {
            mode: Mode::Warmup(self.warmup),
            total: Duration::ZERO,
            iters: 0,
            min_ns: f64::INFINITY,
            batches: Vec::new(),
        };
        f(&mut b);
        b.mode = Mode::Measure(self.measurement);
        b.total = Duration::ZERO;
        b.iters = 0;
        b.min_ns = f64::INFINITY;
        b.batches.clear();
        f(&mut b);
        let r = b.result(id);
        println!(
            "bench {:<48} {:>14.1} ns/iter (min {:.1}, median {:.1}, iqr {:.1}..{:.1}, {} iters)",
            r.id, r.mean_ns, r.min_ns, r.median_ns, r.q1_ns, r.q3_ns, r.iters
        );
        self.results.push(r);
    }
}

/// A named collection of benchmarks sharing a prefix.
pub struct BenchmarkGroup<'c> {
    c: &'c mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark in this group.
    pub fn bench_function(
        &mut self,
        name: impl std::fmt::Display,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, name);
        self.c.run(id, f);
        self
    }

    /// Finishes the group (a no-op; provided for API parity).
    pub fn finish(self) {}
}

enum Mode {
    Warmup(Duration),
    Measure(Duration),
}

/// Passed to the benchmark closure; runs the measured routine.
pub struct Bencher {
    mode: Mode,
    total: Duration,
    iters: u64,
    min_ns: f64,
    /// Every batch of the current phase: `(ns per iteration, iterations)`.
    batches: Vec<(f64, u64)>,
}

impl Bencher {
    /// The measurement of the batches taken so far.
    fn result(&self, id: String) -> BenchResult {
        let mean_ns = if self.iters > 0 {
            self.total.as_nanos() as f64 / self.iters as f64
        } else {
            f64::NAN
        };
        BenchResult {
            id,
            mean_ns,
            min_ns: self.min_ns,
            median_ns: weighted_quantile(&self.batches, 0.5),
            q1_ns: weighted_quantile(&self.batches, 0.25),
            q3_ns: weighted_quantile(&self.batches, 0.75),
            iters: self.iters,
        }
    }

    /// Times `routine` in growing batches until the phase budget elapses.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let budget = match self.mode {
            Mode::Warmup(d) | Mode::Measure(d) => d,
        };
        let phase = Instant::now();
        let mut batch: u64 = 1;
        while phase.elapsed() < budget {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let dt = start.elapsed();
            self.total += dt;
            self.iters += batch;
            let per_iter = dt.as_nanos() as f64 / batch as f64;
            if per_iter < self.min_ns {
                self.min_ns = per_iter;
            }
            self.batches.push((per_iter, batch));
            // Grow batches until one batch takes ~1/20 of the budget, so
            // timer overhead amortizes away for nanosecond routines.
            if dt < budget / 20 {
                batch = batch.saturating_mul(2);
            }
        }
    }
}

/// Declares a benchmark group function, criterion style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $($target(&mut c);)+
        }
    };
}

/// Declares the benchmark `main` running the listed groups.
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

    fn quick() -> Criterion {
        Criterion {
            warmup: Duration::from_millis(5),
            measurement: Duration::from_millis(20),
            ..Criterion::default()
        }
    }

    #[test]
    fn measures_something_positive() {
        let mut c = quick();
        let mut g = c.benchmark_group("g");
        g.bench_function("spin", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.finish();
        let r = &c.results()[0];
        assert_eq!(r.id, "g/spin");
        assert!(r.iters > 0);
        assert!(r.mean_ns.is_finite() && r.mean_ns > 0.0);
        assert!(r.min_ns <= r.mean_ns * 1.001);
        assert!(r.min_ns <= r.q1_ns && r.q1_ns <= r.median_ns && r.median_ns <= r.q3_ns);
    }

    #[test]
    fn quartiles_weight_each_batch_by_its_iterations() {
        // One slow single-iteration batch and three fast large ones: by
        // iterations, nearly every measured iteration took 10 ns.
        let b = Bencher {
            mode: Mode::Measure(Duration::ZERO),
            total: Duration::from_nanos(1_000 + 3 * 640),
            iters: 1 + 64 + 64 + 64,
            min_ns: 9.0,
            batches: vec![(1_000.0, 1), (11.0, 64), (9.0, 64), (10.0, 64)],
        };
        let r = b.result("g/planted".into());
        assert_eq!((r.q1_ns, r.median_ns, r.q3_ns), (9.0, 10.0, 11.0));
        assert_eq!(r.min_ns, 9.0);
        assert!((r.mean_ns - 2_920.0 / 193.0).abs() < 1e-9, "{}", r.mean_ns);
        // Unweighted, the slow batch would be one of four samples and the
        // third quartile would read it.
        assert_eq!(
            weighted_quantile(&[(1.0, 1), (2.0, 1), (3.0, 1), (4.0, 1)], 0.75),
            3.0
        );
        assert_eq!(weighted_quantile(&[(5.0, 3), (1.0, 1)], 0.5), 5.0);
        assert!(weighted_quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn name_filter_runs_only_matching_benches() {
        let args = ["--bench", "fuzz"].map(String::from);
        let mut c = quick().with_args(args);
        let mut ran = Vec::new();
        let mut g = c.benchmark_group("flow_stages");
        for name in ["fuzz/merged", "compile/merged", "fuzz/none"] {
            g.bench_function(name, |b| {
                ran.push(name);
                b.iter(|| 1u64)
            });
        }
        g.finish();
        let ids: Vec<&str> = c.results().iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["flow_stages/fuzz/merged", "flow_stages/fuzz/none"]);
        // Skipped benches never run their closure, not even to warm up.
        assert!(!ran.contains(&"compile/merged"), "{ran:?}");
    }

    #[test]
    fn flags_alone_set_no_filter() {
        let mut c = quick().with_args(["--bench", "--noplot"].map(String::from));
        c.bench_function("any", |b| b.iter(|| 1u64));
        assert_eq!(c.results().len(), 1);
    }
}
