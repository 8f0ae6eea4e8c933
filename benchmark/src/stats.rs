//! Order statistics, round cutting and hashing shared by the harness.

/// Sorts samples ascending (NaN-free inputs; `total_cmp` keeps it total).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The `p`-th percentile (0–100) of ascending `sorted`, linearly
/// interpolated between closest ranks. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = (p / 100.0).clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Median of unsorted values. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// The highest of p99/p95/p90 that leaves at least ten of `samples`
/// beyond it — a tail estimate needs that many to repeat. `None` when
/// even p90 does not (fewer than 100 samples).
pub fn tail_percentile_for(samples: usize) -> Option<u32> {
    [99u32, 95, 90]
        .into_iter()
        .find(|p| samples * (100 - *p as usize) >= 10 * 100)
}

/// Cuts the window into `rounds` rounds by completion time and returns
/// each round's completion rate (1/s). Completions are binned where
/// they land — there is no drain or restart between rounds.
///
/// Round `r` nominally ends at `r × window ÷ rounds`; its boundary is
/// snapped forward to the first completion at or after that time, and
/// the first round starts at the first completion. Both ends of every
/// round therefore sit on a completion, so a loop that hands back four
/// tasks every 0.28 s reads `4 ÷ 0.28` in every round instead of
/// flipping between "6 batches" and "7 batches" per fixed slice.
/// `completions` are ascending seconds from window start. Fewer rates
/// than `rounds` come back when completions are too sparse to end
/// every round.
pub fn round_rates(completions: &[f64], window: f64, rounds: usize) -> Vec<f64> {
    let mut rates = Vec::with_capacity(rounds);
    let Some(&first) = completions.first() else {
        return rates;
    };
    // Completions sharing the first instant (one batch) open the first round together.
    let (mut from_t, mut from_i) = (first, completions.partition_point(|&t| t <= first) - 1);
    for r in 1..=rounds {
        let nominal = window * r as f64 / rounds as f64;
        // Index of the first completion at or after the nominal end.
        let at = from_i + completions[from_i..].partition_point(|&t| t < nominal);
        let Some(&end_t) = completions.get(at) else {
            break;
        };
        // Completions sharing the boundary instant (one batch) stay together.
        let to_i = at + completions[at..].partition_point(|&t| t <= end_t) - 1;
        if end_t > from_t {
            rates.push((to_i - from_i) as f64 / (end_t - from_t));
            (from_t, from_i) = (end_t, to_i);
        }
    }
    rates
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method) — the driver's spread rule is stated in those terms.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.to_vec());
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile range as a share of the median — the spread the
/// driver holds against each end-to-end metric's bound.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    Some((q3 - q1) / q2.abs())
}

/// FNV-1a over 64-bit words: the fingerprint printed for arrival
/// schedules and churn walks, so two runs can be shown to have offered
/// identical load.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in.
    pub fn write(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_handles_edges() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 100.0), Some(4.0));
        assert_eq!(percentile(&s, 50.0), Some(2.5));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
    }

    #[test]
    fn tail_picker_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile_for(99), None);
        assert_eq!(tail_percentile_for(100), Some(90));
        assert_eq!(tail_percentile_for(199), Some(90));
        assert_eq!(tail_percentile_for(200), Some(95));
        assert_eq!(tail_percentile_for(999), Some(95));
        assert_eq!(tail_percentile_for(1000), Some(99));
        assert_eq!(tail_percentile_for(40_000), Some(99));
    }

    #[test]
    fn rounds_snap_to_completions_and_take_the_median() {
        // One completion every 0.1 s for 3 s: every round reads 10/s,
        // wherever the nominal boundaries fall.
        let steady: Vec<f64> = (1..=30).map(|i| f64::from(i) * 0.1).collect();
        for rounds in [3, 4, 7] {
            let rates = round_rates(&steady, 3.0, rounds);
            assert!(rates.len() >= rounds - 1, "{rounds} rounds: {rates:?}");
            assert!(rates.iter().all(|r| (r - 10.0).abs() < 1e-9), "{rates:?}");
        }
        // Batches of four every 0.28 s do not quantize either.
        let batched: Vec<f64> = (1..=40).flat_map(|b| [f64::from(b) * 0.28; 4]).collect();
        let rates = round_rates(&batched, 11.2, 15);
        assert!(rates.len() >= 14);
        assert!(
            rates.iter().all(|r| (r - 4.0 / 0.28).abs() < 1e-9),
            "{rates:?}"
        );
        // A stalled stretch drags the mean, not the median.
        let mut stalled = steady.clone();
        stalled.retain(|t| !(1.0..2.0).contains(t));
        let rates = round_rates(&stalled, 3.0, 6);
        assert_eq!(median(&rates).map(|m| (m * 1e6).round() / 1e6), Some(10.0));
        assert!(rates.iter().any(|r| *r < 5.0));
        assert!(round_rates(&[], 3.0, 3).is_empty());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_share(&v), Some(1.0));
    }

    #[test]
    fn fnv_depends_on_content_and_order() {
        let hash = |words: &[u64]| {
            let mut h = Fnv::default();
            words.iter().for_each(|w| h.write(*w));
            h.finish()
        };
        assert_eq!(hash(&[1, 2, 3]), hash(&[1, 2, 3]));
        assert_ne!(hash(&[1, 2, 3]), hash(&[3, 2, 1]));
        assert_ne!(hash(&[1, 2, 3]), hash(&[1, 2, 4]));
    }
}
