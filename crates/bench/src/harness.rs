//! A dependency-free micro-benchmark harness.
//!
//! The workspace keeps its measurement path free of external crates, so
//! kernel/planner timings come from [`std::time::Instant`] (monotonic by
//! contract) under a fixed protocol: `warmup` unmeasured iterations,
//! then `runs` timed runs of `iters` iterations each, reporting the
//! **median** per-iteration time across runs (robust to a stray
//! scheduler hiccup) alongside the minimum (the least-disturbed run).
//!
//! Wall-clock numbers vary between machines and reruns; everything
//! downstream (the CI gate, `EXPERIMENTS.md`) therefore compares
//! **ratios** between records measured in the same process, never
//! absolute nanoseconds. The *structure* of a report — suite name,
//! record names, protocol fields — is deterministic and is what the
//! golden-shape tests pin down.

use std::time::Instant;

/// The fixed measurement protocol: how many unmeasured warmup
/// iterations, how many iterations per timed run, and how many runs the
/// median is taken over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchConfig {
    /// Unmeasured iterations before timing starts (fills caches and the
    /// scratch pool, so steady state is what gets measured).
    pub warmup: usize,
    /// Iterations per timed run.
    pub iters: usize,
    /// Timed runs; the reported time is their median.
    pub runs: usize,
}

impl BenchConfig {
    /// Creates a protocol.
    ///
    /// # Panics
    ///
    /// Panics if `iters` or `runs` is zero.
    pub fn new(warmup: usize, iters: usize, runs: usize) -> Self {
        assert!(iters > 0, "iters must be positive");
        assert!(runs > 0, "runs must be positive");
        BenchConfig {
            warmup,
            iters,
            runs,
        }
    }

    /// A fast protocol for smoke tests and CI: 1 warmup, 3 iterations,
    /// 3 runs.
    pub fn quick() -> Self {
        BenchConfig::new(1, 3, 3)
    }

    /// Returns this protocol with a different per-run iteration count.
    pub fn with_iters(mut self, iters: usize) -> Self {
        assert!(iters > 0, "iters must be positive");
        self.iters = iters;
        self
    }

    /// Returns this protocol with a different run count.
    pub fn with_runs(mut self, runs: usize) -> Self {
        assert!(runs > 0, "runs must be positive");
        self.runs = runs;
        self
    }

    /// Returns this protocol with a different warmup count.
    pub fn with_warmup(mut self, warmup: usize) -> Self {
        self.warmup = warmup;
        self
    }
}

impl Default for BenchConfig {
    /// The offline default: 2 warmups, 10 iterations, 5 runs.
    fn default() -> Self {
        BenchConfig::new(2, 10, 5)
    }
}

/// One benchmark's result under a [`BenchConfig`] protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Suite the record belongs to (`kernels`, `planner`).
    pub suite: String,
    /// Case name, `<case>/<variant>` by convention.
    pub name: String,
    /// Warmup iterations that preceded measurement.
    pub warmup: usize,
    /// Iterations per timed run.
    pub iters: usize,
    /// Timed runs the median was taken over.
    pub runs: usize,
    /// Median per-iteration time across runs, in nanoseconds.
    pub median_ns: u64,
    /// Fastest run's per-iteration time, in nanoseconds.
    pub min_ns: u64,
    /// Floating-point operations one iteration performs (0 when not
    /// meaningful, e.g. planner timings).
    pub flops: f64,
}

impl BenchRecord {
    /// Throughput in GFLOP/s at the median time (0 when `flops` is 0 or
    /// the measured time is below clock resolution).
    pub fn gflops(&self) -> f64 {
        if self.flops > 0.0 && self.median_ns > 0 {
            self.flops / self.median_ns as f64
        } else {
            0.0
        }
    }
}

/// Times `f` under `cfg` and returns its record.
///
/// The closure runs `cfg.warmup + cfg.runs * cfg.iters` times in
/// total. Per-iteration times are whole-run elapsed time divided by
/// `iters`, so per-call clock overhead stays out of the figure.
pub fn bench<F: FnMut()>(
    suite: &str,
    name: &str,
    cfg: BenchConfig,
    flops: f64,
    mut f: F,
) -> BenchRecord {
    for _ in 0..cfg.warmup {
        f();
    }
    let mut per_iter: Vec<u64> = Vec::with_capacity(cfg.runs);
    for _ in 0..cfg.runs {
        let start = Instant::now();
        for _ in 0..cfg.iters {
            f();
        }
        let elapsed = start.elapsed().as_nanos() / cfg.iters as u128;
        // A single run cannot realistically reach u64::MAX nanoseconds
        // (~584 years); saturate rather than truncate regardless.
        per_iter.push(u64::try_from(elapsed).unwrap_or(u64::MAX));
    }
    per_iter.sort_unstable();
    let min_ns = per_iter[0];
    // Median: middle element, or the mean of the two middles.
    let mid = per_iter.len() / 2;
    let median_ns = if per_iter.len() % 2 == 1 {
        per_iter[mid]
    } else {
        per_iter[mid - 1] / 2 + per_iter[mid] / 2 + (per_iter[mid - 1] % 2 + per_iter[mid] % 2) / 2
    };
    BenchRecord {
        suite: suite.to_string(),
        name: name.to_string(),
        warmup: cfg.warmup,
        iters: cfg.iters,
        runs: cfg.runs,
        median_ns,
        min_ns,
        flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_counts_every_iteration() {
        let mut calls = 0usize;
        let cfg = BenchConfig::new(2, 3, 4);
        let rec = bench("t", "count", cfg, 0.0, || calls += 1);
        assert_eq!(calls, 2 + 3 * 4);
        assert_eq!(rec.suite, "t");
        assert_eq!(rec.name, "count");
        assert_eq!((rec.warmup, rec.iters, rec.runs), (2, 3, 4));
        assert!(rec.min_ns <= rec.median_ns);
    }

    #[test]
    fn median_is_robust_to_one_slow_run() {
        // 5 runs where one is artificially slow: the median must sit
        // near the fast runs, i.e. strictly below the slowest run's
        // per-iteration time.
        let mut run = 0usize;
        let cfg = BenchConfig::new(0, 1, 5);
        let rec = bench("t", "spike", cfg, 0.0, || {
            run += 1;
            if run == 3 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        });
        assert!(rec.median_ns < 20_000_000, "median absorbed the spike");
    }

    #[test]
    fn gflops_uses_median() {
        let rec = BenchRecord {
            suite: "t".into(),
            name: "g".into(),
            warmup: 0,
            iters: 1,
            runs: 1,
            median_ns: 100,
            min_ns: 90,
            flops: 1_000.0,
        };
        assert!((rec.gflops() - 10.0).abs() < 1e-12);
        let zero = BenchRecord { flops: 0.0, ..rec };
        assert_eq!(zero.gflops(), 0.0);
    }

    #[test]
    #[should_panic(expected = "iters must be positive")]
    fn zero_iters_rejected() {
        BenchConfig::new(0, 0, 1);
    }
}
