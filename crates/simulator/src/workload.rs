//! Realistic workload generators.
//!
//! The paper motivates APICO with time-varying load: "these devices
//! could be idle when occupants go to work, and busy when they return
//! home". This module builds such arrival streams:
//!
//! * [`phases`] — piecewise-constant Poisson rates (a day schedule);
//! * [`bursty`] — a two-state Markov-modulated Poisson process (quiet /
//!   burst), the standard model for flash crowds;
//! * [`diurnal`] — a smooth sinusoidal day/night rate curve sampled via
//!   thinning.

use pico_model::rng::SplitMix64;

use crate::Arrivals;

/// Piecewise-constant Poisson arrivals: each `(rate, duration)` phase
/// runs in order (`rate` in tasks/s, `duration` in seconds).
///
/// # Example
///
/// ```
/// use pico_sim::workload::phases;
///
/// // Quiet night, busy evening.
/// let arrivals = phases(&[(0.01, 3600.0), (0.5, 3600.0)], 7);
/// let times = arrivals.times().unwrap();
/// assert!(times.iter().filter(|t| **t > 3600.0).count()
///     > 10 * times.iter().filter(|t| **t <= 3600.0).count());
/// ```
///
/// # Panics
///
/// Panics if `segments` is empty, or any rate is negative or duration
/// non-positive.
pub fn phases(segments: &[(f64, f64)], seed: u64) -> Arrivals {
    assert!(!segments.is_empty(), "need at least one phase");
    assert!(
        segments.iter().all(|(r, d)| *r >= 0.0 && *d > 0.0),
        "rates must be >= 0, durations > 0"
    );
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut times = Vec::new();
    let mut t0 = 0.0;
    for (rate, duration) in segments {
        if *rate > 0.0 {
            let mut t = t0;
            loop {
                let u: f64 = rng.range_f64(f64::EPSILON..1.0);
                t += -u.ln() / rate;
                if t > t0 + duration {
                    break;
                }
                times.push(t);
            }
        }
        t0 += duration;
    }
    Arrivals::trace(times)
}

/// A two-state Markov-modulated Poisson process: exponentially
/// distributed sojourns in a `quiet` state (rate `quiet_rate`) and a
/// `burst` state (rate `burst_rate`), switching with mean dwell times
/// `quiet_dwell` / `burst_dwell` seconds, over `horizon` seconds.
///
/// # Panics
///
/// Panics on non-positive dwell times or horizon, or negative rates.
pub fn bursty(
    quiet_rate: f64,
    burst_rate: f64,
    quiet_dwell: f64,
    burst_dwell: f64,
    horizon: f64,
    seed: u64,
) -> Arrivals {
    assert!(quiet_rate >= 0.0 && burst_rate >= 0.0, "rates must be >= 0");
    assert!(
        quiet_dwell > 0.0 && burst_dwell > 0.0 && horizon > 0.0,
        "dwells and horizon must be positive"
    );
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut times = Vec::new();
    let mut t = 0.0;
    let mut in_burst = false;
    while t < horizon {
        let dwell_mean = if in_burst { burst_dwell } else { quiet_dwell };
        let u: f64 = rng.range_f64(f64::EPSILON..1.0);
        let dwell = (-u.ln() * dwell_mean).min(horizon - t);
        let rate = if in_burst { burst_rate } else { quiet_rate };
        if rate > 0.0 {
            let mut s = t;
            loop {
                let u: f64 = rng.range_f64(f64::EPSILON..1.0);
                s += -u.ln() / rate;
                if s > t + dwell {
                    break;
                }
                times.push(s);
            }
        }
        t += dwell;
        in_burst = !in_burst;
    }
    Arrivals::trace(times)
}

/// A sinusoidal diurnal pattern: rate(t) = `base * (1 + depth *
/// sin(2πt/period))`, clipped at zero, sampled by thinning over
/// `horizon` seconds.
///
/// # Panics
///
/// Panics if `base <= 0`, `depth < 0`, `period <= 0`, or
/// `horizon <= 0`.
pub fn diurnal(base: f64, depth: f64, period: f64, horizon: f64, seed: u64) -> Arrivals {
    assert!(base > 0.0, "base rate must be positive");
    assert!(depth >= 0.0, "depth must be non-negative");
    assert!(
        period > 0.0 && horizon > 0.0,
        "period and horizon must be positive"
    );
    let peak = base * (1.0 + depth);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut times = Vec::new();
    let mut t = 0.0;
    loop {
        // Thinning: propose at the peak rate, accept proportionally.
        let u: f64 = rng.range_f64(f64::EPSILON..1.0);
        t += -u.ln() / peak;
        if t > horizon {
            break;
        }
        let rate =
            (base * (1.0 + depth * (2.0 * std::f64::consts::PI * t / period).sin())).max(0.0);
        if rng.range_f64(0.0..1.0) < rate / peak {
            times.push(t);
        }
    }
    Arrivals::trace(times)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(a: &Arrivals) -> Vec<f64> {
        a.times().expect("trace has times")
    }

    #[test]
    fn phases_respect_rates() {
        let a = phases(&[(1.0, 1000.0), (10.0, 1000.0)], 7);
        let ts = times(&a);
        let first: usize = ts.iter().filter(|t| **t < 1000.0).count();
        let second = ts.len() - first;
        assert!((first as f64 - 1000.0).abs() < 150.0, "{first}");
        assert!((second as f64 - 10_000.0).abs() < 500.0, "{second}");
    }

    #[test]
    fn phases_can_be_silent() {
        let a = phases(&[(0.0, 100.0), (2.0, 100.0)], 1);
        let ts = times(&a);
        assert!(ts.iter().all(|t| *t > 100.0));
        assert!(!ts.is_empty());
    }

    #[test]
    fn bursty_has_higher_variance_than_poisson() {
        // Dispersion index (var/mean of per-window counts) >> 1 for the
        // MMPP, ~1 for plain Poisson of the same average rate.
        let horizon = 20_000.0;
        let mmpp = bursty(0.2, 5.0, 200.0, 50.0, horizon, 3);
        let counts = |ts: &[f64]| -> Vec<usize> {
            let mut c = vec![0usize; (horizon / 100.0) as usize];
            for t in ts {
                let idx = ((*t / 100.0) as usize).min(c.len() - 1);
                c[idx] += 1;
            }
            c
        };
        let dispersion = |c: &[usize]| {
            let mean = c.iter().sum::<usize>() as f64 / c.len() as f64;
            let var = c.iter().map(|x| (*x as f64 - mean).powi(2)).sum::<f64>() / c.len() as f64;
            var / mean
        };
        let d_mmpp = dispersion(&counts(&times(&mmpp)));
        let avg_rate = times(&mmpp).len() as f64 / horizon;
        let pois = crate::Arrivals::poisson(avg_rate, horizon, 3);
        let d_pois = dispersion(&counts(&times(&pois)));
        assert!(d_mmpp > 3.0 * d_pois, "mmpp {d_mmpp} poisson {d_pois}");
    }

    #[test]
    fn diurnal_peaks_and_troughs() {
        // One sine period: the first half (rising) should carry more
        // arrivals than the second (falling below base).
        let a = diurnal(1.0, 0.9, 10_000.0, 10_000.0, 5);
        let ts = times(&a);
        let first_half = ts.iter().filter(|t| **t < 5000.0).count();
        let second_half = ts.len() - first_half;
        assert!(
            first_half as f64 > 1.3 * second_half as f64,
            "{first_half} vs {second_half}"
        );
    }

    #[test]
    fn all_generators_are_sorted_and_deterministic() {
        for a in [
            phases(&[(2.0, 500.0)], 9),
            bursty(0.5, 3.0, 100.0, 30.0, 1000.0, 9),
            diurnal(1.0, 0.5, 500.0, 1000.0, 9),
        ] {
            let ts = times(&a);
            assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        }
        assert_eq!(
            times(&bursty(0.5, 3.0, 100.0, 30.0, 1000.0, 9)),
            times(&bursty(0.5, 3.0, 100.0, 30.0, 1000.0, 9))
        );
    }
}
