//! Vendored stand-in for the subset of the `proptest` crate API this
//! workspace uses.
//!
//! The build environment cannot reach a crates.io mirror, so property
//! tests run against this minimal re-implementation: random generation
//! driven by the vendored `rand` crate, deterministic per-test seeding,
//! `Strategy` with the `prop_map` / `prop_flat_map` / `prop_filter_map`
//! combinators, range / tuple / vec / weighted-bool strategies, and the
//! `proptest!` / `prop_assert*` / `prop_assume!` macros.
//!
//! Shrinking is intentionally **not** implemented: on failure the test
//! panics with the case's seed so the exact inputs can be replayed by
//! running the generator at that seed. Every test here is deterministic
//! per binary, which is what CI needs.

use std::ops::Range;

use rand::{Rng as _, SeedableRng};

/// RNG used to drive all strategies.
pub type TestRng = rand::rngs::StdRng;

/// How many times a filtering strategy may reject locally before the
/// whole case is abandoned as rejected.
const LOCAL_REJECT_LIMIT: usize = 256;

/// Error produced by one test case.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// A `prop_assert*` failed: the property is violated.
    Fail(String),
    /// The inputs were rejected (e.g. `prop_assume!`); try another case.
    Reject(String),
}

impl TestCaseError {
    /// Builds a failure error.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Builds a rejection error.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` successful cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The upstream default of 256 is slow for the matrix-heavy
        // strategies here; heavy tests override via proptest_config.
        ProptestConfig { cases: 64 }
    }
}

/// A generator of random values of type `Value`.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value. `Err(Reject)` means the strategy could not
    /// produce a value for this case (filter exhausted its retries).
    fn new_value(&self, rng: &mut TestRng) -> Result<Self::Value, TestCaseError>;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then samples from the strategy `f` builds
    /// from it (dependent generation).
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Maps through `f`, retrying with fresh draws while `f` returns
    /// `None`; rejects the case after too many retries.
    fn prop_filter_map<O, F: Fn(Self::Value) -> Option<O>>(
        self,
        reason: impl Into<String>,
        f: F,
    ) -> FilterMap<Self, F>
    where
        Self: Sized,
    {
        FilterMap { inner: self, f, reason: reason.into() }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn new_value(&self, rng: &mut TestRng) -> Result<O, TestCaseError> {
        self.inner.new_value(rng).map(&self.f)
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn new_value(&self, rng: &mut TestRng) -> Result<S2::Value, TestCaseError> {
        let first = self.inner.new_value(rng)?;
        (self.f)(first).new_value(rng)
    }
}

/// See [`Strategy::prop_filter_map`].
pub struct FilterMap<S, F> {
    inner: S,
    f: F,
    reason: String,
}

impl<S: Strategy, O, F: Fn(S::Value) -> Option<O>> Strategy for FilterMap<S, F> {
    type Value = O;
    fn new_value(&self, rng: &mut TestRng) -> Result<O, TestCaseError> {
        for _ in 0..LOCAL_REJECT_LIMIT {
            if let Some(out) = (self.f)(self.inner.new_value(rng)?) {
                return Ok(out);
            }
        }
        Err(TestCaseError::reject(self.reason.clone()))
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn new_value(&self, rng: &mut TestRng) -> Result<f64, TestCaseError> {
        Ok(rng.random_range(self.clone()))
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> Result<$t, TestCaseError> {
                Ok(rng.random_range(self.clone()))
            }
        }
    )*};
}

impl_int_range_strategy!(usize, u64, u32, i64, i32);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Result<Self::Value, TestCaseError> {
                Ok(($(self.$idx.new_value(rng)?,)+))
            }
        }
    )*};
}

impl_tuple_strategy!((A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3));

/// Vec-of-values strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestCaseError, TestRng};
    use rand::Rng as _;

    /// Length specification for [`vec()`]: a fixed `usize` or a
    /// half-open `Range<usize>`.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    /// Strategy for `Vec`s with element strategy `element` and a length
    /// drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Result<Vec<S::Value>, TestCaseError> {
            let len = if self.size.lo + 1 == self.size.hi {
                self.size.lo
            } else {
                rng.random_range(self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Boolean strategies (`proptest::bool`).
pub mod bool {
    use super::{Strategy, TestCaseError, TestRng};
    use rand::Rng as _;

    /// Strategy producing `true` with probability `p`.
    pub fn weighted(p: f64) -> Weighted {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        Weighted { p }
    }

    /// See [`weighted`].
    pub struct Weighted {
        p: f64,
    }

    impl Strategy for Weighted {
        type Value = bool;
        fn new_value(&self, rng: &mut TestRng) -> Result<bool, TestCaseError> {
            Ok(rng.random::<f64>() < self.p)
        }
    }
}

/// Stable 64-bit FNV-1a, used to derive a per-test base seed from the
/// test's name so every test has an independent, reproducible stream.
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Test driver behind the `proptest!` macro: runs `case` until
/// `config.cases` successes, retrying rejected cases, panicking on the
/// first failure with the case seed for replay.
pub fn run_proptest(
    config: ProptestConfig,
    name: &str,
    mut case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
) {
    let base = fnv1a(name);
    let mut successes = 0u32;
    let mut rejects = 0u32;
    let mut case_index = 0u64;
    while successes < config.cases {
        let seed = base ^ case_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        case_index += 1;
        let mut rng = TestRng::seed_from_u64(seed);
        match case(&mut rng) {
            Ok(()) => successes += 1,
            Err(TestCaseError::Reject(reason)) => {
                rejects += 1;
                assert!(
                    rejects <= config.cases.saturating_mul(16).max(1024),
                    "proptest `{name}`: too many rejected cases ({rejects}); last reason: {reason}"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest `{name}` failed at case seed {seed:#x}: {msg}")
            }
        }
    }
}

/// Declares property tests. Supported grammar (a strict subset of the
/// upstream macro):
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))] // optional
///     #[test]
///     fn my_prop(x in 0usize..10, v in collection::vec(0.0f64..1.0, 4)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::run_proptest(config, stringify!($name), |__proptest_rng| {
                $(
                    let $arg = $crate::Strategy::new_value(&($strat), __proptest_rng)?;
                )+
                let mut __proptest_case =
                    move || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    };
                __proptest_case()
            });
        }
    )*};
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l == *__r,
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    __l,
                    __r
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(*__l == *__r, $($fmt)*);
            }
        }
    };
}

/// Rejects the current case (does not count as a failure) unless
/// `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(format!(
                "assumption failed: {}",
                stringify!($cond)
            )));
        }
    };
}

/// The glob-imported prelude, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::bool;
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy,
        TestCaseError, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_vecs(x in 1usize..5, v in collection::vec(0.0f64..1.0, 2..6)) {
            prop_assert!((1..5).contains(&x));
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&e| (0.0..1.0).contains(&e)));
        }

        #[test]
        fn combinators_compose(pair in (0usize..4).prop_flat_map(|n| {
            collection::vec(0.0f64..1.0, n + 1).prop_map(move |v| (n, v))
        })) {
            let (n, v) = pair;
            prop_assert_eq!(v.len(), n + 1);
        }

        #[test]
        fn filter_map_applies(x in (0u64..100).prop_filter_map("even only", |x| {
            if x % 2 == 0 { Some(x) } else { None }
        })) {
            prop_assert!(x % 2 == 0);
        }

        #[test]
        fn assume_rejects_without_failing(x in 0usize..10) {
            prop_assume!(x != 3);
            prop_assert!(x != 3);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case seed")]
    fn failures_panic_with_seed() {
        crate::run_proptest(ProptestConfig::with_cases(4), "always_fails", |_| {
            Err(TestCaseError::fail("nope"))
        });
    }

    #[test]
    fn deterministic_across_runs() {
        let mut first = Vec::new();
        let mut second = Vec::new();
        for out in [&mut first, &mut second] {
            crate::run_proptest(ProptestConfig::with_cases(8), "det", |rng| {
                out.push(Strategy::new_value(&(0u64..1_000_000), rng)?);
                Ok(())
            });
        }
        assert_eq!(first, second);
    }
}
