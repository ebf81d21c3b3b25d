//! Minimal, API-compatible subset of `rand` 0.8 built on SplitMix64.
//!
//! The streams differ from the real crate's ChaCha-based `StdRng`, but
//! they are deterministic per seed, uniform, and fast — which is all
//! the simulation and tests rely on.

#![forbid(unsafe_code)]

pub mod distributions;
pub mod rngs;

/// Core entropy source: 64 random bits at a time.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

/// Value-producing convenience layer, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Map 64 random bits to a uniform f64 in `[0, 1)`.
fn uniform_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Types that `gen_range` / `Uniform` can sample.
pub trait SampleUniform: PartialOrd + Copy {
    fn sample_between<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                let (lo_w, hi_w) = (lo as i128, hi as i128);
                let span = if inclusive { hi_w - lo_w + 1 } else { hi_w - lo_w };
                assert!(span > 0, "gen_range called with empty range");
                // Modulo bias is negligible for the spans used here
                // (span << 2^64) and irrelevant for simulation fidelity.
                let offset = (rng.next_u64() as u128 % span as u128) as i128;
                (lo_w + offset) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                _inclusive: bool,
            ) -> Self {
                assert!(lo <= hi, "gen_range called with empty range");
                let u = uniform_f64(rng.next_u64()) as $t;
                lo + u * (hi - lo)
            }
        }
    )*};
}

impl_sample_uniform_float!(f32, f64);

/// Ranges accepted by `gen_range`.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(rng, *self.start(), *self.end(), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: u64 = rng.gen_range(10..20);
            assert!((10..20).contains(&x));
            let y = rng.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&y));
            let z: usize = rng.gen_range(3..=3);
            assert_eq!(z, 3);
        }
    }

    #[test]
    fn float_range_covers_span() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            let x = rng.gen_range(0.0..1.0);
            if x < 0.1 {
                lo_seen = true;
            }
            if x > 0.9 {
                hi_seen = true;
            }
        }
        assert!(lo_seen && hi_seen, "uniform floats should cover the span");
    }

    #[test]
    fn uniform_distribution_samples_indices() {
        use distributions::{Distribution, Uniform};
        let dist = Uniform::new(0usize, 64);
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 64];
        for _ in 0..5_000 {
            seen[dist.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all indices reachable");
    }
}
