//! Offline stand-in for the `proptest` crate.
//!
//! Supports the subset of the proptest surface this workspace's property
//! tests use: the `proptest!` macro (with an optional
//! `#![proptest_config(...)]` header), range and tuple strategies,
//! `prop::collection::vec`, `prop::option::of`, `any::<bool>()`,
//! `.prop_map`, and `prop_assert!`/`prop_assert_eq!`.
//!
//! Differences from real proptest: cases are drawn from a deterministic
//! per-test RNG (seeded from the test's module path + name, so runs are
//! reproducible across machines), and failing cases are reported but not
//! *shrunk*. For the invariant-style properties in this repo that trade-off
//! is fine — determinism matters more than minimal counterexamples.

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Deterministic generator driving all strategies (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Self {
        TestRng(seed ^ 0x9E3779B97F4A7C15)
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a hash of a string, const so test seeds embed at compile time.
pub const fn fnv1a(s: &str) -> u64 {
    let bytes = s.as_bytes();
    let mut hash = 0xcbf29ce484222325u64;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(0x100000001b3);
        i += 1;
    }
    hash
}

/// Failure raised by `prop_assert!` family; carried out of the case body.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Construct a failure with the given message.
    pub fn fail(msg: String) -> Self {
        TestCaseError(msg)
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A value generator. No shrinking in this shim.
pub trait Strategy {
    /// Type of the generated values.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
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

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                self.start + (rng.next_u64() as u128 % span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                lo + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(usize, u64, u32, u16, u8, i64, i32, i16, i8);

macro_rules! impl_float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                self.start + rng.unit_f64() as $t * (self.end - self.start)
            }
        }
    )*};
}

impl_float_range_strategy!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!((A, B), (A, B, C), (A, B, C, D), (A, B, C, D, E));

/// Types with a canonical strategy, for [`any`].
pub trait Arbitrary: Sized {
    /// The canonical strategy type.
    type Strategy: Strategy<Value = Self>;
    /// Build the canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Canonical strategy for `T` (`any::<bool>()` etc.).
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Uniform `bool` strategy.
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

/// Strategy combinators under proptest's `prop::` paths.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::Range;

        /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
        pub struct VecStrategy<S> {
            elem: S,
            size: Range<usize>,
        }

        /// `prop::collection::vec(elem, len_range)`.
        pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
            assert!(size.start < size.end, "empty vec-size range");
            VecStrategy { elem, size }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.end - self.size.start) as u64;
                let len = self.size.start + (rng.next_u64() % span) as usize;
                (0..len).map(|_| self.elem.generate(rng)).collect()
            }
        }
    }

    /// Option strategies.
    pub mod option {
        use super::super::{Strategy, TestRng};

        /// Strategy for `Option<S::Value>`.
        pub struct OptionStrategy<S> {
            inner: S,
        }

        /// `prop::option::of(strategy)`: `None` 25 % of the time.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
                if rng.next_u64().is_multiple_of(4) {
                    None
                } else {
                    Some(self.inner.generate(rng))
                }
            }
        }
    }
}

/// Everything a proptest-using file needs in scope.
pub mod prelude {
    pub use super::{
        any, prop, prop_assert, prop_assert_eq, proptest, Arbitrary, ProptestConfig, Strategy,
    };
}

/// Assert inside a proptest body; fails only the current case's `Result`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Equality assert inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if left != right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                left,
                right
            )));
        }
    }};
}

/// The proptest entry macro: wraps each `fn name(arg in strategy, ...)`
/// into a `#[test]`-able function running `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal recursive expansion of [`proptest!`]; not for direct use.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let seed = $crate::fnv1a(concat!(module_path!(), "::", stringify!($name)));
            let mut rng = $crate::TestRng::new(seed);
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let result: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = result {
                    panic!("proptest case {case} of {} failed: {e}", stringify!($name));
                }
            }
        }
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3usize..17, y in -5i32..=5, f in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..=5).contains(&y));
            prop_assert!((0.25..0.75).contains(&f), "f = {f}");
        }

        #[test]
        fn vec_and_tuple_strategies(v in prop::collection::vec((0u64..10, 0.0f32..1.0), 1..8)) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            for (a, b) in &v {
                prop_assert!(*a < 10);
                prop_assert!((0.0..1.0).contains(b));
            }
        }

        #[test]
        fn map_and_option(o in prop::option::of(1usize..4), m in (0usize..5).prop_map(|x| x * 2)) {
            if let Some(x) = o {
                prop_assert!((1..4).contains(&x));
            }
            prop_assert_eq!(m % 2, 0);
        }

        #[test]
        fn any_bool_generates(b in any::<bool>(), n in 0usize..2) {
            // bool strategy must produce a valid value usable in branches
            let x = if b { n + 1 } else { n };
            prop_assert!(x <= 2);
        }
    }

    #[test]
    fn fnv1a_distinguishes_names() {
        assert_ne!(super::fnv1a("a::b"), super::fnv1a("a::c"));
    }
}
