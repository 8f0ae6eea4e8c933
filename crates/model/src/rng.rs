//! The workspace's one seeded generator: SplitMix64 (Steele, Lea &
//! Flood, OOPSLA 2014).
//!
//! Synthetic weights, inputs and arrival schedules are all drawn from
//! it, so a seed fixes every number the reproduction reports. It is a
//! statistical generator, not a cryptographic one.

use std::ops::Range;

/// A SplitMix64 stream, fixed by its seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The generator whose stream is fixed by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    // `#[inline]` below: other crates draw once per weight, and without
    // it nothing crosses the crate boundary (AlexNet set-up +70 %).

    /// The next 64 bits of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from the half-open `range` (53 random bits).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn range_f64(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "cannot sample empty range");
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let v = range.start + (range.end - range.start) * u;
        // Rounding can land on `end`; the range is half-open.
        if v < range.end {
            v
        } else {
            range.start
        }
    }

    /// A uniform draw from the half-open `range` (24 random bits).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn range_f32(&mut self, range: Range<f32>) -> f32 {
        assert!(range.start < range.end, "cannot sample empty range");
        let u = (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32);
        let v = range.start + (range.end - range.start) * u;
        if v < range.end {
            v
        } else {
            range.start
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(seed: u64, n: usize) -> Vec<u64> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn matches_the_published_vectors() {
        assert_eq!(
            first(0, 3),
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
        assert_eq!(
            first(1_234_567, 5),
            [
                6_457_827_717_110_365_317,
                3_203_168_211_198_807_973,
                9_817_491_932_198_370_423,
                4_593_380_528_125_082_431,
                16_408_922_859_458_223_821
            ]
        );
    }

    #[test]
    fn ranges_are_half_open_even_one_ulp_wide() {
        let mut rng = SplitMix64::seed_from_u64(9);
        let (mut low, mut high) = (false, false);
        for _ in 0..10_000 {
            let x = rng.range_f64(-1.0..1.0);
            assert!((-1.0..1.0).contains(&x));
            low |= x < -0.9;
            high |= x > 0.9;
            let y = rng.range_f32(-0.5..0.5);
            assert!((-0.5..0.5).contains(&y));
            // Half of these draws round up onto `end` and must fall
            // back to `start`.
            let wide = f64::from_bits(1.0f64.to_bits() + 1);
            assert_eq!(rng.range_f64(1.0..wide), 1.0);
            let wide = f32::from_bits(1.0f32.to_bits() + 1);
            assert_eq!(rng.range_f32(1.0..wide), 1.0);
        }
        assert!(low && high, "draws never reached the ends of the range");
    }

    #[test]
    #[should_panic(expected = "cannot sample empty range")]
    fn empty_range_is_rejected() {
        SplitMix64::seed_from_u64(0).range_f64(1.0..1.0);
    }
}
