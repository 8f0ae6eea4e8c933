//! Workload bands: the `[λ_lo, λ_hi]` interval a deployment is
//! provisioned for.
//!
//! APICO reacts to the *current* EWMA-estimated rate (Eq. 15); the
//! deep audit instead takes the whole band an operator expects and
//! certifies Theorem 2 across it. Because M/D/1 utilization `ρ = p·λ`
//! is monotone in λ, checking the band endpoints covers every rate in
//! between — the band type exists so analyses and the DES agree on
//! what "the workload" means.

/// A closed arrival-rate interval `[lo, hi]` in tasks per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadBand {
    /// Lowest expected arrival rate (tasks/s).
    pub lo: f64,
    /// Highest expected arrival rate (tasks/s).
    pub hi: f64,
}

impl WorkloadBand {
    /// Creates a band.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= lo <= hi` and both are finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi,
            "workload band requires 0 <= lo <= hi, got [{lo}, {hi}]"
        );
        WorkloadBand { lo, hi }
    }

    /// A degenerate band holding a single rate.
    pub fn point(lambda: f64) -> Self {
        WorkloadBand::new(lambda, lambda)
    }

    /// Whether `lambda` falls inside the band (inclusive).
    pub fn contains(&self, lambda: f64) -> bool {
        self.lo <= lambda && lambda <= self.hi
    }

    /// `n` evenly spaced rates covering the band, endpoints included
    /// (`n == 1` yields just `hi`, the stability-critical endpoint).
    pub fn samples(&self, n: usize) -> Vec<f64> {
        assert!(n > 0, "need at least one sample");
        if n == 1 || self.hi == self.lo {
            return vec![self.hi];
        }
        (0..n)
            .map(|i| self.lo + (self.hi - self.lo) * i as f64 / (n - 1) as f64)
            .collect()
    }
}

impl std::fmt::Display for WorkloadBand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:.3}, {:.3}] tasks/s", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_cover_the_band_inclusively() {
        let b = WorkloadBand::new(1.0, 3.0);
        let s = b.samples(5);
        assert_eq!(s.first(), Some(&1.0));
        assert_eq!(s.last(), Some(&3.0));
        assert_eq!(s.len(), 5);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&l| b.contains(l)));
    }

    #[test]
    fn point_band_collapses() {
        let b = WorkloadBand::point(2.5);
        assert_eq!(b.samples(7), vec![2.5]);
        assert!(b.contains(2.5) && !b.contains(2.6));
    }

    #[test]
    #[should_panic(expected = "workload band")]
    fn inverted_band_is_rejected() {
        WorkloadBand::new(2.0, 1.0);
    }
}
