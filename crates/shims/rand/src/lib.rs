//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no crates.io access, so this workspace-local
//! crate provides the (small) subset of the `rand` 0.8 API the repository
//! uses: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], and the
//! [`Rng`] methods `gen`, `gen_range` and `gen_bool`.
//!
//! The generator is splitmix64 — statistically solid for simulation and
//! test seeding, fully deterministic given a seed, and dependency-free. It
//! does *not* match the stream of the real `StdRng` (ChaCha12); nothing in
//! this workspace depends on the exact stream, only on determinism.

/// Low-level generator interface.
pub trait RngCore {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next raw 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction of seedable generators.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable uniformly from the generator's raw stream (the shim's
/// equivalent of `Standard: Distribution<T>`).
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits -> [0, 1)
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for f32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() >> 40) as f32) / (1u64 << 24) as f32
    }
}

impl Standard for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types with a uniform sampler over half-open / inclusive ranges.
pub trait SampleUniform: Sized + Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform draw from `[lo, hi]`.
    fn sample_range_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range in gen_range");
                let span = (hi as i128 - lo as i128) as u128;
                // modulo bias is negligible for the spans used here (all
                // far below 2^64), and determinism is what matters
                lo + (rng.next_u64() as u128 % span) as $t
            }
            #[inline]
            fn sample_range_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "empty inclusive range in gen_range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                lo + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(usize, u64, u32, u16, u8, i64, i32, i16, i8);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range in gen_range");
                let u = f64::sample(rng) as $t;
                lo + u * (hi - lo)
            }
            #[inline]
            fn sample_range_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "empty inclusive range in gen_range");
                let u = f64::sample(rng) as $t;
                lo + u * (hi - lo)
            }
        }
    )*};
}

impl_sample_uniform_float!(f32, f64);

/// Range argument accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range_inclusive(rng, *self.start(), *self.end())
    }
}

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Sample a value of type `T` from its standard distribution.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform draw from a range.
    #[inline]
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    /// Bernoulli draw.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic 64-bit generator (splitmix64 core).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        #[inline]
        fn seed_from_u64(seed: u64) -> Self {
            StdRng {
                // pre-mix so nearby seeds diverge immediately
                state: seed ^ 0x6A09E667F3BCC909,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let av: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let bv: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(0usize..=5);
            assert!(y <= 5);
            let f = rng.gen_range(-2.0f32..2.0);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
