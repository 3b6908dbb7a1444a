//! A minimal, self-contained stand-in for the parts of `rand` 0.8 the
//! workspace uses: `rngs::SmallRng`, `SeedableRng::seed_from_u64`,
//! `Rng::{gen, gen_range, gen_bool}`, and `seq::SliceRandom::shuffle`.
//!
//! The build environment cannot reach crates.io, and every consumer in
//! this repository only needs a *seeded, deterministic* generator — the
//! exact bit stream of upstream `rand` is irrelevant (all tests derive
//! their expectations from the generated data itself). The generator is
//! xoshiro256++ seeded via SplitMix64, which is the same construction
//! upstream `SmallRng` uses on 64-bit targets.

#![forbid(unsafe_code)]

/// Seedable generators (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    type Seed;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a 64-bit seed via SplitMix64.
    fn seed_from_u64(state: u64) -> Self;
}

/// Uniform sampling support for a primitive type (subset of
/// `rand::distributions::uniform::SampleUniform`).
pub trait SampleUniform: PartialOrd + Copy {
    /// Uniform draw from `[low, high)`; `high` is exclusive.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    /// Uniform draw from `[low, high]`; `high` is inclusive.
    fn sample_closed<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

/// A range usable with [`Rng::gen_range`] (subset of
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(
            self.start < self.end,
            "gen_range called with an empty range"
        );
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range called with an empty range");
        T::sample_closed(rng, lo, hi)
    }
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                let span = (high as i128).wrapping_sub(low as i128) as u128;
                (low as i128).wrapping_add(uniform_u128(rng, span) as i128) as $t
            }
            fn sample_closed<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                let span = (high as i128).wrapping_sub(low as i128) as u128 + 1;
                (low as i128).wrapping_add(uniform_u128(rng, span) as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        low + (high - low) * unit_f64(rng)
    }
    fn sample_closed<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        // The closed/half-open distinction is immaterial for floats.
        Self::sample_half_open(rng, low, high)
    }
}

impl SampleUniform for f32 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        low + (high - low) * unit_f64(rng) as f32
    }
    fn sample_closed<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        Self::sample_half_open(rng, low, high)
    }
}

/// Unbiased draw from `[0, span)` (`span == 0` means the full 2^128 wrap,
/// which only arises for the widest integer ranges).
fn uniform_u128<R: RngCore + ?Sized>(rng: &mut R, span: u128) -> u128 {
    let wide = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
    if span == 0 {
        return wide;
    }
    if span <= u64::MAX as u128 {
        // Rejection sampling on 64 bits keeps the draw unbiased.
        let span = span as u64;
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        let mut x = wide as u64;
        loop {
            if x <= zone {
                return (x % span) as u128;
            }
            x = rng.next_u64();
        }
    }
    wide % span
}

/// A uniform draw from `[0, 1)` with 53 bits of precision.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The raw generator interface (subset of `rand::RngCore`).
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Sampling conveniences (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// A uniform value of `T` over its full natural span (`[0, 1)` for
    /// floats, all values for integers, fair coin for `bool`).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// A uniform value in `range`.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        Self: Sized,
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} not in [0,1]"
        );
        unit_f64(self) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Types `Rng::gen` can produce (subset of the `Standard` distribution).
pub trait Standard {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        unit_f64(rng)
    }
}

impl Standard for f32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        unit_f64(rng) as f32
    }
}

impl Standard for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic small fast generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SmallRng {
        fn splitmix(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for SmallRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> SmallRng {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().unwrap());
            }
            if s == [0; 4] {
                return SmallRng::seed_from_u64(0);
            }
            SmallRng { s }
        }

        fn seed_from_u64(state: u64) -> SmallRng {
            let mut sm = state;
            let s = [
                Self::splitmix(&mut sm),
                Self::splitmix(&mut sm),
                Self::splitmix(&mut sm),
                Self::splitmix(&mut sm),
            ];
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
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
    use super::{Rng, RngCore};

    /// Slice shuffling (subset of `rand::seq::SliceRandom`).
    pub trait SliceRandom {
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);

        /// A uniformly chosen element (`None` on an empty slice).
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

pub mod prelude {
    pub use super::rngs::SmallRng;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_across_instances() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.gen_range(-5i64..17);
            assert!((-5..17).contains(&x));
            let y = r.gen_range(3usize..=9);
            assert!((3..=9).contains(&y));
            let f = r.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&f));
            let u: f64 = r.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SmallRng::seed_from_u64(1);
        let hits = (0..20_000).filter(|_| r.gen_bool(0.25)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.25).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SmallRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }
}
