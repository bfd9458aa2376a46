//! Offline stand-in for the part of `rand` 0.8 that matgnn calls:
//! `StdRng::seed_from_u64`, `Rng::{gen, gen_range, gen_bool}` and
//! `SliceRandom::shuffle`.
//!
//! The generator is xoshiro256++ seeded through splitmix64. It is
//! deterministic per seed but **not** stream-compatible with the published
//! crate (whose `StdRng` is ChaCha12), so data and initial weights differ
//! from a build against crates.io. The trait layout mirrors rand's
//! (`SampleUniform` / `SampleRange`) so type inference at call sites such
//! as `pool[rng.gen_range(0..pool.len())]` resolves the same way.

use std::ops::{Range, RangeInclusive};

/// Source of raw random words.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Construction from a seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 random bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types `Rng::gen_range` can produce.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform in `[low, high)`.
    fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    /// Uniform in `[low, high]`.
    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

/// Unbiased integer in `[0, span)` by rejection (Lemire's widening multiply).
fn below<R: RngCore + ?Sized>(span: u64, rng: &mut R) -> u64 {
    debug_assert!(span > 0);
    let threshold = span.wrapping_neg() % span;
    loop {
        let wide = (rng.next_u64() as u128) * (span as u128);
        if (wide as u64) >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low < high, "gen_range: empty range");
                let span = (high as i128 - low as i128) as u64;
                (low as i128 + below(span, rng) as i128) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low <= high, "gen_range: empty range");
                let span = (high as i128 - low as i128 + 1) as u128;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                (low as i128 + below(span as u64, rng) as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low < high, "gen_range: empty range");
                loop {
                    let x = low + (high - low) * <$t as Standard>::sample(rng);
                    // Rounding can land on `high`; redraw to keep the range half-open.
                    if x < high {
                        return x;
                    }
                }
            }
            fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low <= high, "gen_range: empty range");
                low + (high - low) * <$t as Standard>::sample(rng)
            }
        }
    )*};
}
uniform_float!(f32, f64);

/// Range forms `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_inclusive(low, high, rng)
    }
}

/// User-facing sampling methods, implemented for every `RngCore`.
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        <f64 as Standard>::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // splitmix64 expands the seed; it never yields the all-zero state.
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    use super::{Rng, SampleUniform};

    pub trait SliceRandom {
        type Item;
        /// Fisher–Yates shuffle.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = usize::sample_inclusive(0, i, rng);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[usize::sample_half_open(0, self.len(), rng)])
            }
        }
    }
}

pub mod prelude {
    pub use super::rngs::StdRng;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs[0], StdRng::seed_from_u64(8).gen::<u64>());
    }

    #[test]
    fn ranges_hold_and_cover() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let i = rng.gen_range(0..5usize);
            seen[i] = true;
            let k: i32 = rng.gen_range(-3..=3);
            assert!((-3..=3).contains(&k));
            let x: f64 = rng.gen_range(-0.25..0.25);
            assert!((-0.25..0.25).contains(&x));
            let y: f32 = rng.gen_range(f32::EPSILON..1.0);
            assert!((f32::EPSILON..1.0).contains(&y));
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_mean_and_bool_rate() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.gen_range(0.0..1.0f64)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count() as f64 / n as f64;
        assert!((hits - 0.3).abs() < 0.02, "rate {hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut StdRng::seed_from_u64(9));
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
