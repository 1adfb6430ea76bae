//! Minimal stand-in for `rand`, used when the real crate cannot be fetched
//! (offline build environments). Implements the surface this workspace
//! uses — [`Rng`], [`SeedableRng`], [`rngs::SmallRng`] and
//! [`seq::SliceRandom`] — over a xoshiro256++ core seeded via SplitMix64.
//!
//! Streams are deterministic for a given seed but are **not** identical to
//! upstream `rand`'s; all workspace code treats RNG output as opaque.

#![forbid(unsafe_code)]

/// Types that can be drawn uniformly from the full value domain
/// (`Rng::gen`). Floats are drawn from `[0, 1)`.
pub trait Standard: Sized {
    fn from_u64(bits: u64) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn from_u64(bits: u64) -> Self {
                bits as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn from_u64(bits: u64) -> Self {
        bits & 1 == 1
    }
}

impl Standard for f64 {
    fn from_u64(bits: u64) -> Self {
        // 53 high bits -> [0, 1).
        (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn from_u64(bits: u64) -> Self {
        // 24 high bits -> [0, 1).
        (bits >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types with uniform sampling over a half-open `start..end` range
/// (`Rng::gen_range`).
pub trait SampleUniform: Copy + PartialOrd {
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, start: Self, end: Self) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, start: Self, end: Self) -> Self {
                assert!(start < end, "gen_range: empty range");
                let span = (end as i128 - start as i128) as u128;
                // Multiply-shift rejection-free mapping; bias is < 2^-64,
                // far below anything the workspace's tests can resolve.
                let hi = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (start as i128 + hi) as $t
            }
        }
    )*};
}
impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, start: Self, end: Self) -> Self {
        assert!(start < end, "gen_range: empty range");
        let u: f64 = Standard::from_u64(rng.next_u64());
        start + u * (end - start)
    }
}

impl SampleUniform for f32 {
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, start: Self, end: Self) -> Self {
        assert!(start < end, "gen_range: empty range");
        let u: f32 = Standard::from_u64(rng.next_u64());
        start + u * (end - start)
    }
}

/// Random-number generator interface (the subset of `rand::Rng` in use).
pub trait Rng {
    /// Next 64 uniformly random bits — the primitive everything else
    /// derives from.
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn gen<T: Standard>(&mut self) -> T {
        T::from_u64(self.next_u64())
    }

    fn gen_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} outside [0,1]");
        self.gen::<f64>() < p
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable construction (the subset of `rand::SeedableRng` in use).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Small fast PRNG (xoshiro256++), the stand-in for `rand`'s `SmallRng`.
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            Self { s }
        }
    }

    impl Rng for SmallRng {
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
    use super::Rng;

    /// Slice helpers (the subset of `rand::seq::SliceRandom` in use).
    pub trait SliceRandom {
        type Item;

        /// Fisher–Yates shuffle.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` on an empty slice.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(3usize..10);
            assert!((3..10).contains(&v));
            let f = rng.gen_range(-2.0f64..2.0);
            assert!((-2.0..2.0).contains(&f));
            let i = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn gen_float_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
            let y: f32 = rng.gen();
            assert!((0.0..1.0).contains(&y));
        }
        assert!(
            (sum / 10_000.0 - 0.5).abs() < 0.02,
            "mean {}",
            sum / 10_000.0
        );
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = SmallRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.8)).count();
        assert!((7700..8300).contains(&hits), "hits {hits}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left 100 elements in order");
    }

    #[test]
    fn choose_none_on_empty() {
        let mut rng = SmallRng::seed_from_u64(5);
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        assert!([7u8].choose(&mut rng).is_some());
    }
}
