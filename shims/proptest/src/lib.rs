//! Offline shim for the `proptest` crate (see `shims/README.md`).
//!
//! Implements the subset of the proptest 1.x API this workspace uses:
//! the [`proptest!`] macro, `prop_assert!`/`prop_assert_eq!`/
//! `prop_assume!`, `prop_oneof!`, [`strategy::Just`], range and tuple
//! strategies, `prop_map`/`prop_flat_map`, `collection::vec`, and
//! [`test_runner::ProptestConfig::with_cases`].
//!
//! Each property runs a fixed number of cases drawn from a
//! deterministic RNG seeded from the test's name, so failures are
//! reproducible run-to-run. There is no shrinking: a failing case
//! panics with the assertion message and its case index.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod test_runner {
    //! Runner configuration (shim: only the case count is honored).

    /// Configuration for a `proptest!` block.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use rand::rngs::StdRng;
    use rand::{Rng, RngCore};
    use std::ops::{Range, RangeInclusive};

    /// A source of random values of one type.
    ///
    /// Object-safe: the combinator methods are `Sized`-gated so boxed
    /// strategies (as produced by [`prop_oneof!`](crate::prop_oneof))
    /// remain usable.
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then samples from the strategy `f`
        /// derives from it.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn sample(&self, rng: &mut StdRng) -> S2::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    /// Uniform choice between boxed strategies (the `prop_oneof!`
    /// expansion).
    pub struct OneOf<T> {
        choices: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> OneOf<T> {
        /// Builds from a non-empty list of boxed strategies.
        ///
        /// # Panics
        /// Panics when `choices` is empty.
        pub fn new(choices: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!choices.is_empty(), "prop_oneof! needs at least one arm");
            OneOf { choices }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            let i = (rng.next_u64() % self.choices.len() as u64) as usize;
            self.choices[i].sample(rng)
        }
    }

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            (**self).sample(rng)
        }
    }

    /// Boxes a strategy (the `prop_oneof!` expansion helper — avoids
    /// unsizing casts with inference holes at the call site).
    pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(s)
    }

    macro_rules! impl_int_range {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    let span = self.end.wrapping_sub(self.start);
                    assert!(span > 0, "empty range strategy");
                    self.start.wrapping_add((rng.next_u64() % span as u64) as $t)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = hi.wrapping_sub(lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add((rng.next_u64() % (span + 1)) as $t)
                }
            }
        )*};
    }
    impl_int_range!(u8, u16, u32, u64, usize, i32, i64);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut StdRng) -> f64 {
            self.start + rng.random::<f64>() * (self.end - self.start)
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut StdRng) -> f64 {
            // The endpoint has measure zero; reuse the half-open draw.
            self.start() + rng.random::<f64>() * (self.end() - self.start())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::RngCore;
    use std::ops::Range;

    /// Length specification for [`vec()`]: a fixed size or a half-open
    /// range of sizes.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec length range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        len: SizeRange,
    }

    /// A strategy producing `Vec`s of values from `elem` with a length
    /// drawn from `len`.
    pub fn vec<S: Strategy>(elem: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            len: len.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let span = (self.len.hi - self.len.lo).max(1) as u64;
            let n = self.len.lo + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// Runs one property's cases: samples the strategy, binds the pattern,
/// and executes the body closure. Not part of the public proptest API —
/// the expansion target of [`proptest!`].
pub fn run_cases<S: strategy::Strategy>(
    test_name: &str,
    cases: u32,
    strat: &S,
    body: impl Fn(S::Value) -> Result<(), CaseSkipped>,
) {
    use rand::SeedableRng;
    // FNV-1a over the test name: per-test deterministic seed.
    let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        seed ^= b as u64;
        seed = seed.wrapping_mul(0x1000_0000_01b3);
    }
    let mut skipped = 0u32;
    for case in 0..cases {
        let mut rng = rand::rngs::StdRng::seed_from_u64(
            seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let value = strat.sample(&mut rng);
        if body(value).is_err() {
            skipped += 1;
        }
    }
    // Mirror proptest's behavior of failing when assumptions reject
    // nearly everything (a broken generator, not a passing test).
    assert!(
        skipped < cases,
        "{test_name}: all {cases} cases were rejected by prop_assume!"
    );
}

/// Marker returned by a case aborted via `prop_assume!`.
#[derive(Debug, Clone, Copy)]
pub struct CaseSkipped;

/// Defines property tests. See the crate docs for shim limitations.
#[macro_export]
macro_rules! proptest {
    (@cfg ($cfg:expr)) => {};
    (@cfg ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let strategy = ($($strat,)+);
            $crate::run_cases(
                stringify!($name),
                config.cases,
                &strategy,
                |($($pat,)+)| { $body Ok(()) },
            );
        }
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    ( $($rest:tt)* ) => {
        $crate::proptest!(@cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts inside a property (shim: plain `assert!`, no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property (shim: plain `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property (shim: plain `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when the condition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::CaseSkipped);
        }
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::boxed($arm)),+
        ])
    };
}

pub mod prelude {
    //! The glob-import surface: `use proptest::prelude::*;`.

    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    pub mod prop {
        //! The `prop::` path alias (`prop::collection::vec`).
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn square_strategy() -> impl Strategy<Value = u64> {
        (1u64..100).prop_map(|v| v * v)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sampled ranges respect their bounds.
        #[test]
        fn ranges_in_bounds(v in 5u64..50, f in -2.0f64..2.0) {
            prop_assert!((5..50).contains(&v));
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn map_and_flat_map_compose(sq in square_strategy(), v in (1usize..6).prop_flat_map(|n| prop::collection::vec(0u8..10, n))) {
            let root = (sq as f64).sqrt().round() as u64;
            prop_assert_eq!(root * root, sq);
            prop_assert!(!v.is_empty() && v.len() < 6);
            prop_assert!(v.iter().all(|b| *b < 10));
        }

        #[test]
        fn oneof_hits_every_arm(v in prop_oneof![Just(1u8), Just(2u8), 3u8..5]) {
            prop_assert!((1..5).contains(&v));
        }

        #[test]
        fn assume_skips_without_failing(v in 0u32..10) {
            prop_assume!(v % 2 == 0);
            prop_assert!(v % 2 == 0);
        }
    }

    #[test]
    #[should_panic(expected = "rejected by prop_assume")]
    fn total_rejection_fails_loudly() {
        crate::run_cases("always_rejected", 8, &(0u32..4), |_| {
            Err(crate::CaseSkipped)
        })
    }
}
