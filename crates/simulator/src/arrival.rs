use pico_model::rng::SplitMix64;

/// How inference tasks arrive at the cluster (Sec. V-A).
#[derive(Debug, Clone, PartialEq)]
pub enum Arrivals {
    /// Tasks arrive "following a Poisson distribution" at `rate` tasks
    /// per second until `horizon` seconds; deterministic given `seed`.
    Poisson {
        /// Mean arrival rate λ (tasks/s).
        rate: f64,
        /// Stream length in seconds.
        horizon: f64,
        /// RNG seed.
        seed: u64,
    },
    /// "Each task arrives immediately once the last task was complete"
    /// — the saturation stream used to measure maximum throughput.
    ClosedLoop {
        /// Number of tasks to push through.
        count: usize,
    },
    /// Explicit arrival times (seconds, non-decreasing).
    Trace(Vec<f64>),
}

impl Arrivals {
    /// A Poisson stream (Figs. 10/11 workloads).
    ///
    /// # Panics
    ///
    /// Panics if `rate` or `horizon` is not strictly positive.
    pub fn poisson(rate: f64, horizon: f64, seed: u64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        assert!(
            horizon > 0.0 && horizon.is_finite(),
            "horizon must be positive"
        );
        Arrivals::Poisson {
            rate,
            horizon,
            seed,
        }
    }

    /// A saturation stream of `count` tasks (Figs. 8/9 capacity runs).
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn closed_loop(count: usize) -> Self {
        assert!(count > 0, "need at least one task");
        Arrivals::ClosedLoop { count }
    }

    /// An explicit arrival-time trace.
    ///
    /// # Panics
    ///
    /// Panics if the times are not non-decreasing and non-negative.
    pub fn trace(times: Vec<f64>) -> Self {
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "trace times must be non-decreasing"
        );
        assert!(
            times.first().is_none_or(|t| *t >= 0.0),
            "times must be non-negative"
        );
        Arrivals::Trace(times)
    }

    /// Materializes open-loop arrival times. Closed-loop streams have no
    /// fixed times (the simulator admits tasks as the pipeline frees),
    /// so this returns `None` for them.
    pub fn times(&self) -> Option<Vec<f64>> {
        match self {
            Arrivals::Poisson {
                rate,
                horizon,
                seed,
            } => {
                let mut rng = SplitMix64::seed_from_u64(*seed);
                let mut t = 0.0;
                let mut out = Vec::new();
                loop {
                    // Exponential inter-arrival gaps.
                    let u: f64 = rng.range_f64(f64::EPSILON..1.0);
                    t += -u.ln() / rate;
                    if t > *horizon {
                        break;
                    }
                    out.push(t);
                }
                Some(out)
            }
            Arrivals::ClosedLoop { .. } => None,
            Arrivals::Trace(times) => Some(times.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_is_respected() {
        let times = Arrivals::poisson(5.0, 2000.0, 1).times().unwrap();
        let rate = times.len() as f64 / 2000.0;
        assert!((rate - 5.0).abs() < 0.3, "empirical rate {rate}");
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn poisson_stream_is_pinned() {
        // Captured through the `rand` stand-in every golden and
        // benchmark schedule was generated with, before the generator
        // moved into `pico_model::rng`.
        let times = Arrivals::poisson(3.0, 50.0, 7).times().unwrap();
        assert_eq!(times.len(), 164);
        let bits: Vec<u64> = times[..8].iter().map(|t| t.to_bits()).collect();
        assert_eq!(
            bits,
            [
                0x3fd418d29e7c366c,
                0x3ffad26c57fa3818,
                0x3ffb611f37ff96ca,
                0x3ffe41f9bae27271,
                0x40013e686cd7a1f9,
                0x4004f256c5904b3b,
                0x4006f8bf5704a2a3,
                0x4009f195af1f9f22
            ]
        );
    }

    #[test]
    fn poisson_is_deterministic() {
        let a = Arrivals::poisson(3.0, 50.0, 7).times().unwrap();
        let b = Arrivals::poisson(3.0, 50.0, 7).times().unwrap();
        let c = Arrivals::poisson(3.0, 50.0, 8).times().unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_interarrivals_look_exponential() {
        let times = Arrivals::poisson(10.0, 5000.0, 3).times().unwrap();
        let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        let mean: f64 = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var: f64 = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        // Exponential: std ≈ mean.
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.1,
            "cv {}",
            var.sqrt() / mean
        );
    }

    #[test]
    fn closed_loop_has_no_times() {
        assert_eq!(Arrivals::closed_loop(5).times(), None);
    }

    #[test]
    fn trace_roundtrips() {
        let t = Arrivals::trace(vec![0.0, 0.5, 2.0]);
        assert_eq!(t.times().unwrap(), vec![0.0, 0.5, 2.0]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn trace_rejects_unsorted() {
        Arrivals::trace(vec![1.0, 0.5]);
    }
}
