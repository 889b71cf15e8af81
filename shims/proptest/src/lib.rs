//! Offline shim for the `proptest` crate.
//!
//! The build container has no crates.io access, so the workspace vendors
//! the slice of proptest it uses: the [`proptest!`] / [`prop_oneof!`] /
//! [`prop_assert!`] macros, [`Strategy`] with `prop_map` and `boxed`,
//! ranges / tuples / [`Just`] / [`any`] as strategies, and
//! [`collection::vec`]. Cases are generated from a deterministic
//! per-test seed; failing cases panic immediately **without shrinking**
//! (the case's RNG seed is printed so it can be replayed).

#![forbid(unsafe_code)]

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::{Range, RangeInclusive};

use rand::rngs::SmallRng;
use rand::{IntoSampleRange, RngExt, SampleUniform, SeedableRng};

pub mod collection;

/// Everything a proptest file usually imports.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// Per-test configuration (only the case count is honoured).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// Builds the deterministic RNG for one test case (macro plumbing).
pub fn test_rng(test_name: &str, case: u32) -> SmallRng {
    let mut h = DefaultHasher::new();
    test_name.hash(&mut h);
    case.hash(&mut h);
    SmallRng::seed_from_u64(h.finish())
}

/// A value generator.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn pick(&self, rng: &mut SmallRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (needed by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn pick(&self, rng: &mut SmallRng) -> T {
        (**self).pick(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn pick(&self, _rng: &mut SmallRng) -> T {
        self.0.clone()
    }
}

/// The [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn pick(&self, rng: &mut SmallRng) -> O {
        (self.f)(self.inner.pick(rng))
    }
}

impl<T: SampleUniform> Strategy for Range<T>
where
    Range<T>: IntoSampleRange<T> + Clone,
{
    type Value = T;
    fn pick(&self, rng: &mut SmallRng) -> T {
        rng.random_range(self.clone())
    }
}

impl<T: SampleUniform> Strategy for RangeInclusive<T>
where
    RangeInclusive<T>: IntoSampleRange<T> + Clone,
{
    type Value = T;
    fn pick(&self, rng: &mut SmallRng) -> T {
        rng.random_range(self.clone())
    }
}

macro_rules! impl_strategy_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn pick(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$idx.pick(rng),)+)
            }
        }
    )*};
}

impl_strategy_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

/// Weighted choice between type-erased strategies ([`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u32,
}

impl<T> Union<T> {
    /// Builds a union; weights must not all be zero.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
        let total = arms.iter().map(|(w, _)| w).sum();
        assert!(total > 0, "prop_oneof! requires a positive total weight");
        Union { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn pick(&self, rng: &mut SmallRng) -> T {
        let mut roll = rng.random_range(0..self.total);
        for (weight, strat) in &self.arms {
            if roll < *weight {
                return strat.pick(rng);
            }
            roll -= weight;
        }
        unreachable!("roll below total weight")
    }
}

/// Types with a canonical full-range strategy ([`any`]).
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut SmallRng) -> Self;
}

/// The [`any`] strategy: full-range values of `T`.
pub struct Any<T>(std::marker::PhantomData<T>);

/// Generates unconstrained values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn pick(&self, rng: &mut SmallRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut SmallRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut SmallRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut SmallRng) -> f64 {
        rng.random_range(-1.0e9f64..1.0e9)
    }
}

/// The `proptest! { ... }` test-function wrapper.
///
/// Supports an optional `#![proptest_config(...)]` header followed by
/// `#[test] fn name(pat in strategy, ...) { body }` items. Each function
/// runs `config.cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let strategies = ($($strat,)+);
            for case in 0..config.cases {
                let mut rng = $crate::test_rng(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                let ($($arg,)+) = $crate::Strategy::pick(&strategies, &mut rng);
                $body
            }
        }
    )*};
}

/// Weighted (or unweighted) choice between strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(::std::vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(::std::vec![
            $((1u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}

/// Asserts a condition inside a proptest case (panics, no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { ::std::assert!($($args)*) };
}

/// Asserts equality inside a proptest case (panics, no shrinking).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { ::std::assert_eq!($($args)*) };
}

/// Asserts inequality inside a proptest case (panics, no shrinking).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { ::std::assert_ne!($($args)*) };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        Push(u16),
        Pop,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (1u16..100).prop_map(Op::Push),
            1 => Just(Op::Pop),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn vec_strategy_respects_bounds(
            ops in prop::collection::vec(op_strategy(), 1..40),
            seed in any::<u64>(),
        ) {
            prop_assert!((1..40).contains(&ops.len()));
            let _ = seed;
            for op in &ops {
                if let Op::Push(v) = op {
                    prop_assert!((1..100).contains(v));
                }
            }
        }

        #[test]
        fn float_ranges_work(frac in 0.0f64..1.0) {
            prop_assert!((0.0..=1.0).contains(&frac));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let a: Vec<u64> = (0..5)
            .map(|case| super::test_rng("x", case).next_u64())
            .collect();
        let b: Vec<u64> = (0..5)
            .map(|case| super::test_rng("x", case).next_u64())
            .collect();
        assert_eq!(a, b);
    }

    use rand::RngExt;
}
