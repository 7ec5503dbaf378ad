//! A minimal, dependency-free stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships the small slice of `rand`'s 0.8 API that the code base actually
//! uses: [`rngs::SmallRng`], the [`Rng`]/[`SeedableRng`] traits,
//! [`distributions::WeightedIndex`], and [`seq::SliceRandom`]. Everything
//! is deterministic given a seed, which is what the experiments rely on.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — the same
//! construction real `rand` uses for `SmallRng` on 64-bit targets, chosen
//! here for speed and statistical quality, not for compatibility of the
//! exact output stream.
//!
//! One item goes beyond rand 0.8: [`rngs::SmallRng::advance`], an exact
//! jump of the stream by any number of outputs in a few microseconds,
//! which rand's `SmallRng` does not offer.

#![warn(missing_docs)]

/// Core random source: everything reduces to a stream of `u64`s.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing convenience methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value of type `T` from the standard distribution
    /// (`f32`/`f64` in `[0, 1)`, full-range integers, fair `bool`).
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
        Self: Sized,
    {
        use distributions::Distribution;
        distributions::Standard.sample(self)
    }

    /// Samples uniformly from a half-open or inclusive range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction of seedable generators.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Uniform sampling from range types, used by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128) as u128;
                // Widening multiply keeps the modulo bias negligible for
                // any span that fits in 64 bits.
                let hi = ((rng.next_u64() as u128 * span) >> 64) as $t;
                self.start + hi
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                if lo == <$t>::MIN && hi == <$t>::MAX {
                    return rng.next_u64() as $t;
                }
                let span = (hi as u128).wrapping_sub(lo as u128) + 1;
                let draw = ((rng.next_u64() as u128 * span) >> 64) as $t;
                lo + draw
            }
        }
    )*};
}

int_sample_range!(usize, u8, u16, u32, u64);

macro_rules! signed_sample_range {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let hi = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (self.start as i128 + hi) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let draw = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (lo as i128 + draw) as $t
            }
        }
    )*};
}

signed_sample_range!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let u: $t = unit_float(rng);
                self.start + u * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                let u: $t = unit_float(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}

float_sample_range!(f32, f64);

/// Uniform float in `[0, 1)` with full mantissa precision.
fn unit_float<T: UnitFloat, R: RngCore + ?Sized>(rng: &mut R) -> T {
    T::from_bits64(rng.next_u64())
}

trait UnitFloat {
    fn from_bits64(bits: u64) -> Self;
}

impl UnitFloat for f32 {
    fn from_bits64(bits: u64) -> f32 {
        ((bits >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }
}

impl UnitFloat for f64 {
    fn from_bits64(bits: u64) -> f64 {
        ((bits >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, high-quality non-cryptographic generator
    /// (xoshiro256++ with SplitMix64 seeding).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SmallRng {
        fn splitmix64(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }

        /// The state map `T` one output applies: linear over GF(2).
        #[inline]
        fn step(&mut self) {
            let s = &mut self.s;
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
        }

        /// Moves the stream `n` outputs ahead: afterwards the generator
        /// yields exactly what it would after `n` calls of
        /// [`RngCore::next_u64`], in a few microseconds whatever `n` is.
        ///
        /// `T^n` equals `r(T)` for `r = x^n mod P`, where `P` is the
        /// degree-256 characteristic polynomial of the state map. `r` is
        /// the product of the cached `x^(2^k) mod P` over `n`'s set bits,
        /// and one 256-step walk applies it: the construction behind the
        /// reference `jump()` of xoshiro's authors, for any `n`.
        pub fn advance(&mut self, n: u64) {
            let r = jump::x_pow_mod(n);
            let mut acc = [0u64; 4];
            for i in 0..256 {
                let keep = 0u64.wrapping_sub((r[i / 64] >> (i % 64)) & 1);
                for (a, s) in acc.iter_mut().zip(self.s) {
                    *a ^= keep & s;
                }
                self.step();
            }
            self.s = acc;
        }
    }

    /// Polynomial arithmetic behind [`SmallRng::advance`].
    mod jump {
        use super::SmallRng;
        use std::sync::OnceLock;

        /// A polynomial over GF(2) of degree below 256: bit `i` of word
        /// `i / 64` is the coefficient of `x^i`.
        type Poly = [u64; 4];

        struct Tables {
            /// `P - x^256`: the characteristic polynomial without its
            /// leading term.
            p: Poly,
            /// `x^(2^k) mod P` for `k < 64`.
            pow2: [Poly; 64],
        }

        fn tables() -> &'static Tables {
            static TABLES: OnceLock<Tables> = OnceLock::new();
            TABLES.get_or_init(|| {
                let p = characteristic_polynomial();
                let mut pow2 = [[0; 4]; 64];
                pow2[0][0] = 0b10; // x
                for k in 1..64 {
                    pow2[k] = mul_mod(&pow2[k - 1], &pow2[k - 1], &p);
                }
                Tables { p, pow2 }
            })
        }

        /// `x^n mod P`: `popcount(n) - 1` products.
        pub(super) fn x_pow_mod(n: u64) -> Poly {
            let t = tables();
            let mut bits = (0..64).filter(|k| (n >> k) & 1 == 1);
            match bits.next() {
                None => [1, 0, 0, 0],
                Some(k) => bits.fold(t.pow2[k], |r, k| mul_mod(&r, &t.pow2[k], &t.p)),
            }
        }

        /// `a * b mod P` by Horner's rule over `a`'s bits, high to low,
        /// given `p = P - x^256`.
        fn mul_mod(a: &Poly, b: &Poly, p: &Poly) -> Poly {
            let mut r = [0u64; 4];
            for i in (0..256).rev() {
                // r * x: shift up one, folding a carried-out x^256 back in
                // as p, since x^256 = p (mod P) over GF(2).
                let carry = 0u64.wrapping_sub(r[3] >> 63);
                r = [
                    r[0] << 1,
                    (r[1] << 1) | (r[0] >> 63),
                    (r[2] << 1) | (r[1] >> 63),
                    (r[3] << 1) | (r[2] >> 63),
                ];
                let add = 0u64.wrapping_sub((a[i / 64] >> (i % 64)) & 1);
                for ((r, p), b) in r.iter_mut().zip(p).zip(b) {
                    *r ^= (carry & p) ^ (add & b);
                }
            }
            r
        }

        /// The characteristic polynomial `P` of the state map, as its
        /// coefficients below the leading `x^256`.
        ///
        /// Berlekamp–Massey over 512 successive values of one state bit
        /// finds the shortest linear recurrence that bit obeys. The
        /// generator has full period `2^256 - 1`, so `P` is primitive,
        /// any nonzero bit sequence of the state has `P` as its minimal
        /// polynomial, and the recurrence found is `P` itself.
        fn characteristic_polynomial() -> Poly {
            let mut rng = SmallRng { s: [1, 0, 0, 0] };
            let bits: Vec<u8> = (0..512)
                .map(|_| {
                    let bit = (rng.s[0] & 1) as u8;
                    rng.step();
                    bit
                })
                .collect();
            let n = bits.len();
            // Connection polynomial C(x) = 1 + c_1 x + ... + c_len x^len
            // of the shortest recurrence so far, and B, C before the last
            // length change, `shift` steps ago.
            let (mut c, mut b) = (vec![0u8; n + 1], vec![0u8; n + 1]);
            c[0] = 1;
            b[0] = 1;
            let (mut len, mut shift) = (0, 1);
            for i in 0..n {
                let discrepancy = (1..=len).fold(bits[i], |d, j| d ^ (c[j] & bits[i - j]));
                if discrepancy == 0 {
                    shift += 1;
                    continue;
                }
                let before = c.clone();
                for j in 0..=n - shift {
                    c[j + shift] ^= b[j];
                }
                if 2 * len <= i {
                    len = i + 1 - len;
                    b = before;
                    shift = 1;
                } else {
                    shift += 1;
                }
            }
            assert_eq!(len, 256, "xoshiro256's state map has degree 256");
            // P(x) = x^256 C(1/x): its coefficient of x^k is c_(256 - k).
            let mut p = [0u64; 4];
            for (k, &ck) in c[1..=256].iter().rev().enumerate() {
                p[k / 64] |= u64::from(ck) << (k % 64);
            }
            p
        }

        #[cfg(test)]
        mod tests {
            use super::*;

            /// `characteristic_polynomial` asserts the recurrence it finds
            /// has degree 256. Modulo a primitive `P` of that degree, `x`
            /// has order `2^256 - 1`, so `x^(2^k) = x` for `k = 256` and
            /// no smaller `k`: the table's squarings must show exactly that.
            #[test]
            fn characteristic_polynomial_has_degree_256() {
                let p = characteristic_polynomial();
                let x: Poly = [0b10, 0, 0, 0];
                let mut power = x;
                for k in 1..=256 {
                    power = mul_mod(&power, &power, &p);
                    assert_eq!(power == x, k == 256, "x^(2^{k}) mod P");
                }
            }
        }
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = Self::splitmix64(&mut sm);
            }
            // An all-zero state is the one fixed point; SplitMix64 cannot
            // produce four zero outputs in a row, but guard regardless.
            if s == [0; 4] {
                s[0] = 0x9E3779B97F4A7C15;
            }
            Self { s }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            self.step();
            result
        }
    }
}

/// Distribution types: the standard distribution and weighted sampling.
pub mod distributions {
    use super::RngCore;

    /// A distribution over values of type `T`.
    pub trait Distribution<T> {
        /// Draws one sample.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The standard distribution: `[0, 1)` floats, full-range integers,
    /// fair booleans.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    impl Distribution<f32> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f32 {
            super::unit_float(rng)
        }
    }

    impl Distribution<f64> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
            super::unit_float(rng)
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Distribution<u32> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u32 {
            rng.next_u32()
        }
    }

    impl Distribution<u64> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
            rng.next_u64()
        }
    }

    impl Distribution<usize> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
            rng.next_u64() as usize
        }
    }

    /// Errors from [`WeightedIndex`] construction.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum WeightedError {
        /// The weight list was empty.
        NoItem,
        /// A weight was negative or not finite.
        InvalidWeight,
        /// All weights were zero.
        AllWeightsZero,
    }

    impl core::fmt::Display for WeightedError {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            match self {
                WeightedError::NoItem => write!(f, "no weights provided"),
                WeightedError::InvalidWeight => write!(f, "negative or non-finite weight"),
                WeightedError::AllWeightsZero => write!(f, "all weights are zero"),
            }
        }
    }

    impl std::error::Error for WeightedError {}

    /// Like `core::borrow::Borrow`, but restricted to [`Weight`] targets
    /// so the weight type infers unambiguously from `&[f64]`-style input
    /// (mirrors rand's `SampleBorrow`).
    pub trait SampleBorrow<B: Weight> {
        /// Borrows the weight value.
        fn sample_borrow(&self) -> B;
    }

    impl<B: Weight> SampleBorrow<B> for B {
        fn sample_borrow(&self) -> B {
            *self
        }
    }

    impl<B: Weight> SampleBorrow<B> for &B {
        fn sample_borrow(&self) -> B {
            **self
        }
    }

    /// Weight scalar types accepted by [`WeightedIndex`].
    pub trait Weight: Copy {
        /// Lossless-enough conversion to `f64` for accumulation.
        fn to_f64(self) -> f64;
    }

    impl Weight for f64 {
        fn to_f64(self) -> f64 {
            self
        }
    }

    impl Weight for f32 {
        fn to_f64(self) -> f64 {
            self as f64
        }
    }

    impl Weight for u32 {
        fn to_f64(self) -> f64 {
            self as f64
        }
    }

    impl Weight for u64 {
        fn to_f64(self) -> f64 {
            self as f64
        }
    }

    impl Weight for usize {
        fn to_f64(self) -> f64 {
            self as f64
        }
    }

    /// Samples indices `0..n` with probability proportional to the given
    /// weights (cumulative sums + binary search).
    #[derive(Debug, Clone, PartialEq)]
    pub struct WeightedIndex<X> {
        cumulative: Vec<f64>,
        total: f64,
        _marker: core::marker::PhantomData<X>,
    }

    impl<X: Weight> WeightedIndex<X> {
        /// Builds the sampler; weights must be non-negative, finite and
        /// not all zero.
        pub fn new<I>(weights: I) -> Result<Self, WeightedError>
        where
            I: IntoIterator,
            I::Item: SampleBorrow<X>,
        {
            let mut cumulative = Vec::new();
            let mut total = 0.0f64;
            for w in weights {
                let w = w.sample_borrow().to_f64();
                if !(w.is_finite() && w >= 0.0) {
                    return Err(WeightedError::InvalidWeight);
                }
                total += w;
                cumulative.push(total);
            }
            if cumulative.is_empty() {
                return Err(WeightedError::NoItem);
            }
            if total <= 0.0 {
                return Err(WeightedError::AllWeightsZero);
            }
            Ok(Self {
                cumulative,
                total,
                _marker: core::marker::PhantomData,
            })
        }
    }

    impl<X: Weight> Distribution<usize> for WeightedIndex<X> {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
            // Uniform in [0, 1) straight from RngCore so `R: ?Sized` works.
            let unit = ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
            let u: f64 = unit * self.total;
            // partition_point: first index whose cumulative sum exceeds u.
            let i = self.cumulative.partition_point(|&c| c <= u);
            i.min(self.cumulative.len() - 1)
        }
    }
}

/// Sequence helpers.
pub mod seq {
    use super::RngCore;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Shuffles the slice in place (Fisher-Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` when empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = index(rng, i + 1);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[index(rng, self.len())])
            }
        }
    }

    /// Uniform index in `[0, n)` via widening multiply, usable with
    /// unsized `R` (unlike `Rng::gen_range`).
    fn index<R: RngCore + ?Sized>(rng: &mut R, n: usize) -> usize {
        debug_assert!(n > 0);
        ((rng.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::distributions::{Distribution, WeightedIndex};
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn seeding_is_deterministic() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn unit_floats_cover_and_stay_in_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut min = 1.0f32;
        let mut max = 0.0f32;
        for _ in 0..10_000 {
            let x: f32 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            min = min.min(x);
            max = max.max(x);
        }
        assert!(min < 0.01 && max > 0.99, "poor coverage: [{min}, {max}]");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..1000 {
            let i = rng.gen_range(3usize..10);
            assert!((3..10).contains(&i));
            let f = rng.gen_range(-2.0f32..=2.0);
            assert!((-2.0..=2.0).contains(&f));
        }
        // All values of a small range appear.
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.gen_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn weighted_index_matches_weights() {
        let mut rng = SmallRng::seed_from_u64(3);
        let w = WeightedIndex::<f64>::new([1.0, 0.0, 3.0]).unwrap();
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[w.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight item sampled");
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio} too far from 3");
    }

    #[test]
    fn weighted_index_rejects_bad_input() {
        assert!(WeightedIndex::<f64>::new(core::iter::empty::<&f64>()).is_err());
        assert!(WeightedIndex::<f64>::new([0.0, 0.0]).is_err());
        assert!(WeightedIndex::<f64>::new([1.0, -1.0]).is_err());
        assert!(WeightedIndex::<f64>::new([f64::NAN]).is_err());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "shuffle left the slice sorted (astronomically unlikely)"
        );
    }

    #[test]
    fn advance_equals_stepping() {
        let mut picks = SmallRng::seed_from_u64(6);
        let fixed = [0, 1, 2, 63, 64, 255, 256, 257, 153_600, (1 << 20) + 7];
        let random: Vec<u64> = (0..6).map(|_| picks.gen_range(0..1 << 18)).collect();
        for seed in [0, 7, 42, u64::MAX] {
            for &n in fixed.iter().chain(&random) {
                let mut stepped = SmallRng::seed_from_u64(seed);
                for _ in 0..n {
                    stepped.next_u64();
                }
                let mut jumped = SmallRng::seed_from_u64(seed);
                jumped.advance(n);
                assert_eq!(jumped, stepped, "seed {seed}, n {n}");
            }
        }
    }

    /// Jumps too long to check by stepping: two jumps make their sum.
    #[test]
    fn advance_composes() {
        let mut picks = SmallRng::seed_from_u64(8);
        for _ in 0..8 {
            let (a, b) = (picks.gen::<u64>() >> 1, picks.gen::<u64>() >> 1);
            let mut twice = SmallRng::seed_from_u64(a ^ b);
            twice.advance(a);
            twice.advance(b);
            let mut once = SmallRng::seed_from_u64(a ^ b);
            once.advance(a + b);
            assert_eq!(once, twice, "{a} + {b}");
        }
    }

    #[test]
    fn rng_works_through_mut_references() {
        fn takes_impl(rng: &mut impl Rng) -> u64 {
            fn inner(rng: &mut impl Rng) -> u64 {
                rng.gen()
            }
            inner(rng)
        }
        let mut rng = SmallRng::seed_from_u64(5);
        let _ = takes_impl(&mut rng);
    }
}
