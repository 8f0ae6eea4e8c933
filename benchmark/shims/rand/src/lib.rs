//! `rand` 0.8-shaped seeded generator: `StdRng::seed_from_u64` and
//! `Rng::gen_range` over half-open float and integer ranges.
//!
//! The generator is SplitMix64 — deterministic for a seed, which is all
//! the workspace asks of it (synthetic weights, inputs, arrival
//! schedules). Its streams differ from the published `StdRng`'s.

use std::ops::Range;

/// Source of 64 random bits.
pub trait RngCore {
    /// The next 64 bits of the stream.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// The generator whose stream is fixed by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A range `gen_range` can sample a `T` from.
pub trait SampleRange<T> {
    /// One uniform draw from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// User-facing sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform draw from the half-open `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

impl SampleRange<f64> for Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        // 53 random mantissa bits → u in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let v = self.start + (self.end - self.start) * u;
        // Rounding can land on `end`; the range is half-open.
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        // 24 random mantissa bits → u in [0, 1).
        let u = (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32);
        let v = self.start + (self.end - self.start) * u;
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                // Modulo bias is below 2^-32 for every span the
                // workspace draws from (all far under 2^32).
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}
int_range!(u32, u64, usize);

/// Generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's seeded generator (SplitMix64).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let mut differs = false;
        for _ in 0..1000 {
            let x: f64 = a.gen_range(-1.0..1.0);
            let y: f64 = b.gen_range(-1.0..1.0);
            let z: f64 = c.gen_range(-1.0..1.0);
            assert_eq!(x.to_bits(), y.to_bits());
            assert!((-1.0..1.0).contains(&x));
            differs |= x != z;
            let f: f32 = a.gen_range(-0.5f32..0.5);
            let _: f32 = b.gen_range(-0.5f32..0.5);
            assert!((-0.5..0.5).contains(&f));
            let n: usize = a.gen_range(3..9usize);
            let _: usize = b.gen_range(3..9usize);
            assert!((3..9).contains(&n));
        }
        assert!(differs);
    }
}
