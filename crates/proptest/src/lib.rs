//! A minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships the slice of proptest's API the test suites use: the
//! [`Strategy`] trait with `prop_map`/`prop_flat_map`, range and tuple
//! strategies, [`collection::vec`]/[`collection::hash_set`], simple
//! character-class string patterns, `any::<bool>()`, and the
//! [`proptest!`]/[`prop_assert!`]/[`prop_assert_eq!`] macros.
//!
//! Differences from real proptest: cases are generated from a
//! deterministic per-test seed and failures are **not shrunk** — the
//! failing case index and message are reported instead. For a repo that
//! pins seeds everywhere, reproducibility is already total.

#![warn(missing_docs)]

use std::ops::Range;

/// Deterministic generator handed to strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x5851F42D4C957F2D,
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index in `[0, n)`; `n` must be positive.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample an empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// A recipe for generating random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` returns
    /// for it (dependent generation).
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let draw = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (self.start as i128 + draw) as $t
            }
        }
    )*};
}

int_range_strategy!(usize, u8, u16, u32, u64, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                self.start + (rng.unit_f64() as $t) * (self.end - self.start)
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// String pattern strategy: supports literal characters and character
/// classes with counted repetition, e.g. `"[a-z]{1,8}"` or `"[ab]{3}"`.
///
/// This intentionally covers only the tiny regex subset the test suites
/// use; anything it cannot parse panics loudly instead of silently
/// generating the wrong language.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        pattern::generate(self, rng)
    }
}

mod pattern {
    use super::TestRng;

    pub fn generate(pat: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let chars: Vec<char> = pat.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let (choices, next) = parse_atom(&chars, i, pat);
            let (lo, hi, next) = parse_repeat(&chars, next, pat);
            let count = if lo == hi {
                lo
            } else {
                lo + rng.index(hi - lo + 1)
            };
            for _ in 0..count {
                out.push(choices[rng.index(choices.len())]);
            }
            i = next;
        }
        out
    }

    /// Parses one atom (character class or literal) at `i`, returning the
    /// candidate characters and the next index.
    fn parse_atom(chars: &[char], i: usize, pat: &str) -> (Vec<char>, usize) {
        if chars[i] == '[' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == ']')
                .unwrap_or_else(|| panic!("unclosed character class in pattern {pat:?}"))
                + i;
            let mut choices = Vec::new();
            let mut j = i + 1;
            while j < close {
                if j + 2 < close && chars[j + 1] == '-' {
                    let (lo, hi) = (chars[j] as u32, chars[j + 2] as u32);
                    assert!(lo <= hi, "reversed range in pattern {pat:?}");
                    for c in lo..=hi {
                        choices.push(char::from_u32(c).expect("valid char range"));
                    }
                    j += 3;
                } else {
                    choices.push(chars[j]);
                    j += 1;
                }
            }
            assert!(
                !choices.is_empty(),
                "empty character class in pattern {pat:?}"
            );
            (choices, close + 1)
        } else {
            (vec![chars[i]], i + 1)
        }
    }

    /// Parses an optional `{m}` / `{m,n}` repetition at `i`.
    fn parse_repeat(chars: &[char], i: usize, pat: &str) -> (usize, usize, usize) {
        if i >= chars.len() || chars[i] != '{' {
            return (1, 1, i);
        }
        let close = chars[i..]
            .iter()
            .position(|&c| c == '}')
            .unwrap_or_else(|| panic!("unclosed repetition in pattern {pat:?}"))
            + i;
        let body: String = chars[i + 1..close].iter().collect();
        let parse = |s: &str| -> usize {
            s.trim()
                .parse()
                .unwrap_or_else(|_| panic!("bad repetition {body:?} in pattern {pat:?}"))
        };
        let (lo, hi) = match body.split_once(',') {
            Some((lo, hi)) => (parse(lo), parse(hi)),
            None => (parse(&body), parse(&body)),
        };
        assert!(lo <= hi, "reversed repetition in pattern {pat:?}");
        (lo, hi, close + 1)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::HashSet;
    use std::hash::Hash;
    use std::ops::Range;

    /// Length specification: a fixed size or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            if self.lo == self.hi {
                self.lo
            } else {
                self.lo + rng.index(self.hi - self.lo + 1)
            }
        }
    }

    /// Strategy for `Vec<T>` with element strategy `elem` and a size
    /// given as a `usize` or `Range<usize>`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// Strategy for `HashSet<T>`: distinct elements, sized like [`vec()`].
    /// Gives up (with fewer elements) if the element domain is too small
    /// to reach the requested size, mirroring proptest's behaviour of
    /// bounded rejection.
    pub fn hash_set<S>(elem: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        HashSetStrategy {
            elem,
            size: size.into(),
        }
    }

    /// See [`hash_set`].
    #[derive(Debug, Clone)]
    pub struct HashSetStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let n = self.size.sample(rng);
            let mut out = HashSet::with_capacity(n);
            let mut attempts = 0;
            while out.len() < n && attempts < n * 20 + 100 {
                out.insert(self.elem.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// Types with a canonical strategy, for [`any`].
pub trait Arbitrary {
    /// The canonical strategy.
    type Strategy: Strategy<Value = Self>;

    /// Builds the canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Canonical strategy for `T` (e.g. `any::<bool>()`).
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Strategy for a fair boolean.
#[derive(Debug, Clone, Copy)]
pub struct BoolStrategy;

impl Strategy for BoolStrategy {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = BoolStrategy;
    fn arbitrary() -> BoolStrategy {
        BoolStrategy
    }
}

/// Per-test configuration accepted via `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A failed property check, raised by `prop_assert!`-style macros.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Builds a failure with a message.
    pub fn fail(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// Stable per-test seed so failures reproduce across runs.
pub fn seed_for(test_name: &str, case: u32) -> u64 {
    // FNV-1a over the name, mixed with the case index.
    let mut h = 0xcbf29ce484222325u64;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h ^ ((case as u64).wrapping_mul(0x9E3779B97F4A7C15))
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

/// Declares property tests. Each function runs `cases` times with values
/// generated from its strategies; failures report the case index and
/// seed (no shrinking).
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident( $($arg:pat_param in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let strategy = ( $( $strat, )+ );
                for case in 0..cfg.cases {
                    let seed = $crate::seed_for(stringify!($name), case);
                    let mut rng = $crate::TestRng::new(seed);
                    let ( $($arg,)+ ) = $crate::Strategy::generate(&strategy, &mut rng);
                    let outcome = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest {} failed at case {}/{} (seed {:#x}): {}",
                            stringify!($name), case, cfg.cases, seed, e
                        );
                    }
                }
            }
        )*
    };
}

/// Everything a test file usually imports.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, proptest, Arbitrary, Just, ProptestConfig, Strategy,
        TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn pattern_strategy_generates_the_right_language() {
        let mut rng = super::TestRng::new(1);
        for _ in 0..100 {
            let s = super::Strategy::generate(&"[a-z]{1,8}", &mut rng);
            assert!((1..=8).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn vec_and_hash_set_respect_sizes() {
        let mut rng = super::TestRng::new(2);
        for _ in 0..50 {
            let v = super::Strategy::generate(&collection::vec(0usize..10, 3..7), &mut rng);
            assert!((3..7).contains(&v.len()));
            let h = super::Strategy::generate(&collection::hash_set(0usize..100, 5), &mut rng);
            assert_eq!(h.len(), 5);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_binds_tuple_patterns((a, b) in (0usize..10, 0usize..10), flip in any::<bool>()) {
            prop_assert!(a < 10 && b < 10);
            prop_assert!(usize::from(flip) <= 1);
        }

        #[test]
        fn flat_map_dependent_sizes(v in (1usize..5).prop_flat_map(|n| collection::vec(0f32..1.0, n))) {
            prop_assert!(!v.is_empty() && v.len() < 5);
            prop_assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        }
    }

    #[test]
    #[allow(unnameable_test_items)] // the nested #[test] is invoked by hand
    fn failures_are_reported_with_case_info() {
        let result = std::panic::catch_unwind(|| {
            proptest! {
                #[test]
                fn always_fails(x in 0usize..10) {
                    prop_assert!(x > 100, "x was {}", x);
                }
            }
            always_fails();
        });
        let msg = *result
            .unwrap_err()
            .downcast::<String>()
            .expect("string panic");
        assert!(
            msg.contains("always_fails") && msg.contains("seed"),
            "{msg}"
        );
    }
}
