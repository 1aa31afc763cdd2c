//! Vendored, offline stand-in for the [`rand`](https://docs.rs/rand) crate.
//!
//! Provides the subset this workspace uses: [`rngs::StdRng`] seeded through
//! [`SeedableRng::seed_from_u64`], and the [`Rng`] extension methods
//! [`Rng::gen_range`] (over `f64` and integer ranges) and [`Rng::gen_bool`].
//! The generator is xorshift64* — not the real StdRng's ChaCha12, but the
//! workspace only relies on determinism-given-a-seed, which both provide.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use std::ops::Range;

/// A source of randomness, the stand-in for rand's `RngCore` + `Rng`.
pub trait Rng {
    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform value from `range`.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.next_f64() < p.clamp(0.0, 1.0)
    }
}

/// Ranges a value can be uniformly sampled from.
pub trait SampleRange<T> {
    /// Draws one uniform value from `self`.
    fn sample<R: Rng>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn sample<R: Rng>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

// No `Range<f32>` impl: unsuffixed float ranges like `-0.5..0.5` must see a
// single floating-point candidate for inference to pick `f64`, matching how
// such call sites compile against the real rand.

macro_rules! impl_sample_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + (rng.next_u64() % span) as i128) as $t
            }
        }
    )*};
}

impl_sample_int_range!(u32, u64, usize, i64);

/// Generators constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The named generators rand ships.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic xorshift64* generator standing in for rand's `StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // splitmix64 of the seed avoids weak low-entropy starts; state
            // must be non-zero for xorshift.
            let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            StdRng {
                state: (z ^ (z >> 31)).max(1),
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeding_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let f = rng.gen_range(-0.5..0.5);
            assert!((-0.5..0.5).contains(&f));
            let u = rng.gen_range(0usize..3);
            assert!(u < 3);
        }
    }

    #[test]
    fn gen_bool_respects_extremes() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
