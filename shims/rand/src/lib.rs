//! Offline shim for the `rand` crate (0.10 API surface).
//!
//! The build container has no crates.io access, so the workspace vendors
//! the slice of `rand` it uses: [`SeedableRng`], [`RngExt`] with
//! `random_range` / `random_bool` / `random_ratio`, and
//! [`rngs::SmallRng`]. The generator is xoshiro256** seeded via
//! splitmix64 — deterministic for a given seed across platforms and
//! builds, which the reproduction's bit-for-bit experiment claims rely
//! on.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// A random number generator that can be seeded from a `u64`.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed (splitmix64-expanded).
    fn seed_from_u64(seed: u64) -> Self;
}

/// The subset of `rand::Rng`'s extension methods this workspace uses.
pub trait RngExt {
    /// Returns the next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Samples uniformly from a half-open or inclusive range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T: SampleUniform>(&mut self, range: impl IntoSampleRange<T>) -> T {
        let (lo, hi_inclusive) = range.into_bounds();
        T::sample(self.next_u64(), lo, hi_inclusive)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} out of [0,1]");
        to_unit_f64(self.next_u64()) < p
    }

    /// Returns `true` with probability `numerator / denominator`.
    ///
    /// # Panics
    ///
    /// Panics if `denominator` is zero or `numerator > denominator`.
    fn random_ratio(&mut self, numerator: u32, denominator: u32) -> bool {
        assert!(denominator > 0, "zero denominator");
        assert!(numerator <= denominator, "{numerator}/{denominator} > 1");
        u64::sample(self.next_u64(), 0, u64::from(denominator) - 1) < u64::from(numerator)
    }
}

fn to_unit_f64(bits: u64) -> f64 {
    // 53 high bits → [0, 1) with full double precision.
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Types that can be sampled uniformly from a closed range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Maps 64 random bits into `[lo, hi]` (inclusive).
    fn sample(bits: u64, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(bits: u64, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "empty range");
                let span = (hi as u128) - (lo as u128) + 1;
                lo + ((bits as u128) % span) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_signed {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(bits: u64, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "empty range");
                let span = (hi as i128) - (lo as i128) + 1;
                (lo as i128 + ((bits as i128) & i128::MAX) % span) as $t
            }
        }
    )*};
}

impl_sample_uniform_signed!(i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample(bits: u64, lo: Self, hi: Self) -> Self {
        assert!(lo <= hi, "empty range");
        lo + to_unit_f64(bits) * (hi - lo)
    }
}

/// Range arguments accepted by [`RngExt::random_range`].
pub trait IntoSampleRange<T: SampleUniform> {
    /// Returns `(lo, hi_inclusive)`.
    fn into_bounds(self) -> (T, T);
}

impl IntoSampleRange<f64> for Range<f64> {
    fn into_bounds(self) -> (f64, f64) {
        assert!(self.start < self.end, "empty range");
        (self.start, self.end) // treated as half-open by measure zero
    }
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl IntoSampleRange<$t> for Range<$t> {
            fn into_bounds(self) -> ($t, $t) {
                assert!(self.start < self.end, "empty range");
                (self.start, self.end - 1)
            }
        }
        impl IntoSampleRange<$t> for RangeInclusive<$t> {
            fn into_bounds(self) -> ($t, $t) {
                (*self.start(), *self.end())
            }
        }
    )*};
}

impl_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Concrete generators.
pub mod rngs {
    use super::{RngExt, SeedableRng};

    /// A small, fast, deterministic generator (xoshiro256**).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> SmallRng {
            let mut sm = seed;
            SmallRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngExt for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.random_range(512u64..16_384);
            assert!((512..16_384).contains(&v));
            let w = rng.random_range(1u16..=3);
            assert!((1..=3).contains(&w));
            let f = rng.random_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let u = rng.random_range(3usize..5);
            assert!((3..5).contains(&u));
        }
    }

    #[test]
    fn ratio_and_bool_are_calibrated() {
        let mut rng = SmallRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| rng.random_ratio(1, 10)).count();
        assert!((800..1200).contains(&hits), "{hits}");
        let heads = (0..10_000).filter(|_| rng.random_bool(0.5)).count();
        assert!((4700..5300).contains(&heads), "{heads}");
    }
}
