//! Offline stand-in for `rand` 0.9: the seeded small generator, uniform
//! ranges, Bernoulli draws and slice choice — the subset the planetp
//! crates call. Streams are deterministic per seed but are not promised
//! to equal the published crate's.

use std::ops::{Range, RangeInclusive};

/// Source of random bits.
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

/// Generators constructible from a small seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Convenience methods over any [`RngCore`].
pub trait Rng: RngCore {
    fn random<T>(&mut self) -> T
    where
        distr::StandardUniform: distr::Distribution<T>,
    {
        distr::Distribution::sample(&distr::StandardUniform, self)
    }

    fn random_range<T, R: distr::SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p` (which must lie in `[0, 1]`).
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside [0, 1]");
        if p >= 1.0 {
            return true;
        }
        // 2^64 as f64; the product truncates to the acceptance threshold.
        self.next_u64() < (p * 18_446_744_073_709_551_616.0) as u64
    }

    fn sample<T, D: distr::Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++, seeded through SplitMix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut state: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            Self { s }
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

pub mod distr {
    use super::{Range, RangeInclusive, Rng, RngCore};

    /// Types that can produce values of `T` from random bits.
    pub trait Distribution<T> {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    impl<T, D: Distribution<T> + ?Sized> Distribution<T> for &D {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
            (**self).sample(rng)
        }
    }

    /// The "natural" uniform distribution of a type: all bit patterns
    /// of an integer, `[0, 1)` for floats.
    #[derive(Debug, Clone, Copy)]
    pub struct StandardUniform;

    impl Distribution<f64> for StandardUniform {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for StandardUniform {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    impl Distribution<bool> for StandardUniform {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() >> 63 == 1
        }
    }

    macro_rules! standard_int {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for StandardUniform {
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Types with a uniform sampler over `[low, high)` / `[low, high]`.
    pub trait SampleUniform: Sized {
        fn sample_between<R: RngCore + ?Sized>(
            low: Self,
            high: Self,
            inclusive: bool,
            rng: &mut R,
        ) -> Self;
    }

    /// Unbiased draw from `[0, span)`; `span == 0` means the full range.
    fn below<R: RngCore + ?Sized>(span: u64, rng: &mut R) -> u64 {
        if span == 0 {
            return rng.next_u64();
        }
        // Reject the tail that would bias the modulo.
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = rng.next_u64();
            if v <= zone {
                return v % span;
            }
        }
    }

    macro_rules! uniform_int {
        ($($t:ty),*) => {$(
            impl SampleUniform for $t {
                fn sample_between<R: RngCore + ?Sized>(
                    low: Self,
                    high: Self,
                    inclusive: bool,
                    rng: &mut R,
                ) -> Self {
                    assert!(
                        if inclusive { low <= high } else { low < high },
                        "cannot sample an empty range"
                    );
                    let width = (high as i128 - low as i128) as u64;
                    let span = if inclusive { width.wrapping_add(1) } else { width };
                    (low as i128 + below(span, rng) as i128) as $t
                }
            }
        )*};
    }
    uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! uniform_float {
        ($($t:ty),*) => {$(
            impl SampleUniform for $t {
                fn sample_between<R: RngCore + ?Sized>(
                    low: Self,
                    high: Self,
                    inclusive: bool,
                    rng: &mut R,
                ) -> Self {
                    assert!(
                        if inclusive { low <= high } else { low < high },
                        "cannot sample an empty range"
                    );
                    let unit: $t = Distribution::sample(&StandardUniform, rng);
                    let v = low + (high - low) * unit;
                    // Rounding can land on `high`; fold it back inside.
                    if !inclusive && v >= high { low } else { v }
                }
            }
        )*};
    }
    uniform_float!(f32, f64);

    /// Range syntaxes accepted by [`Rng::random_range`].
    pub trait SampleRange<T> {
        fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
    }

    impl<T: SampleUniform> SampleRange<T> for Range<T> {
        fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
            T::sample_between(self.start, self.end, false, rng)
        }
    }

    impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
        fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
            let (low, high) = self.into_inner();
            T::sample_between(low, high, true, rng)
        }
    }
}

pub mod seq {
    use super::Rng;

    /// Random choice from an indexable collection.
    pub trait IndexedRandom {
        type Item;
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> IndexedRandom for [T] {
        type Item = T;
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.random_range(0..self.len())])
            }
        }
    }

    /// In-place shuffling.
    pub trait SliceRandom {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.random_range(0..=i));
            }
        }
    }
}
