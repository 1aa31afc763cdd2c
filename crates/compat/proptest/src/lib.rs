//! Vendored, offline stand-in for the [`proptest`](https://proptest-rs.github.io/proptest/)
//! crate.
//!
//! The build environment has no network access, so the real proptest cannot
//! be fetched. This crate implements the subset the workspace's property
//! suite uses with identical syntax:
//!
//! * the [`proptest!`] macro with an optional `#![proptest_config(...)]`
//!   header and `arg in strategy` parameter lists,
//! * range strategies over `f64` (`0.5..2.0f64`) and over `u32`, `u64`
//!   and `usize` (`0u32..8`, `1usize..=8`),
//! * [`collection::vec`] for `Vec` strategies, sized by a fixed length or
//!   a half-open range,
//! * [`prop_assert!`] and [`prop_assert_eq!`].
//!
//! Unlike the real proptest, generation is **deterministic** (seeded from
//! the test name) and failing cases are not shrunk — failures report the
//! exact generated arguments instead. Determinism is a feature for a
//! reproduction repository: CI failures are always reproducible locally.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use std::ops::{Range, RangeInclusive};

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` generated cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A failed property assertion, carrying the rendered failure message.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Deterministic pseudo-random generator (xorshift64*), seeded per property
/// from the property's name so every run generates the same cases.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator whose stream is a pure function of `name`.
    pub fn from_name(name: &str) -> Self {
        // FNV-1a over the name, never zero (xorshift fixpoint).
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: hash.max(1) }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `u64` in `[0, bound)`; `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        // Modulo bias is irrelevant at property-test scale.
        self.next_u64() % bound
    }
}

/// A source of generated values, the stand-in for proptest's `Strategy`.
pub trait Strategy {
    /// The type of the generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! impl_strategy_int_ranges {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.next_below(span) as i128) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128 + 1) as u64;
                (start as i128 + rng.next_below(span) as i128) as $t
            }
        }
    )*};
}

impl_strategy_int_ranges!(u32, u64, usize);

/// Strategies over collections.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A concrete collection-length range.
    ///
    /// Like the real proptest's `SizeRange`, this is a concrete type with
    /// `From` conversions rather than a generic `Strategy<Value = usize>`
    /// bound: an unsuffixed literal range (`2..100`) then has exactly one
    /// conversion candidate, so inference resolves it to `usize` instead of
    /// falling back to `i32`.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        start: usize,
        /// Exclusive upper bound.
        end: usize,
    }

    impl From<usize> for SizeRange {
        fn from(len: usize) -> Self {
            SizeRange {
                start: len,
                end: len + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(range: Range<usize>) -> Self {
            SizeRange {
                start: range.start,
                end: range.end,
            }
        }
    }

    /// Strategy producing `Vec`s whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub struct VecStrategy<E> {
        element: E,
        size: SizeRange,
    }

    /// `proptest::collection::vec(element, 2..100)` — a `Vec` strategy.
    pub fn vec<E>(element: E, size: impl Into<SizeRange>) -> VecStrategy<E>
    where
        E: Strategy,
    {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<E: Strategy> Strategy for VecStrategy<E> {
        type Value = Vec<E::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<E::Value> {
            let len = (self.size.start..self.size.end).generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property-test module needs in scope.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
}

/// Defines property tests.
///
/// Matches the real proptest surface syntax: an optional
/// `#![proptest_config(expr)]` header followed by `#[test]` functions whose
/// parameters are written `name in strategy`. Each function body runs once
/// per generated case; [`prop_assert!`]-family failures abort the case with
/// the generated arguments in the panic message.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { @config($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { @config($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]: expands one test function at a
/// time, threading the configuration expression through the recursion.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (
        @config($config:expr)
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strategy:expr),* $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::TestRng::from_name(stringify!($name));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)*
                let case_args = {
                    let mut rendered = String::new();
                    $(rendered.push_str(&format!(
                        "  {} = {:?}\n", stringify!($arg), &$arg
                    ));)*
                    rendered
                };
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(err) = outcome {
                    panic!(
                        "property '{}' failed at case {}/{}: {}\nwith arguments:\n{}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        err,
                        case_args
                    );
                }
            }
        }
        $crate::__proptest_fns! { @config($config) $($rest)* }
    };
    ( @config($config:expr) ) => {};
}

/// Asserts a condition inside a [`proptest!`] body, failing the case (with
/// its generated arguments) instead of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        // Bind to a bool first so clippy's `neg_cmp_op_on_partial_ord` does
        // not fire on negated float comparisons at every call site.
        let holds: bool = $cond;
        if !holds {
            return ::std::result::Result::Err($crate::TestCaseError(format!($($fmt)*)));
        }
    };
}

/// Equality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{} == {}` (left: {:?}, right: {:?})",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::{Strategy, TestRng};

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::from_name("property");
        let mut b = TestRng::from_name("property");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::from_name("other");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = TestRng::from_name("bounds");
        for _ in 0..1000 {
            let f = (0.25..4.0f64).generate(&mut rng);
            assert!((0.25..4.0).contains(&f));
            let u = (3u32..17).generate(&mut rng);
            assert!((3..17).contains(&u));
            let s = (1usize..=8).generate(&mut rng);
            assert!((1..=8).contains(&s));
        }
    }

    #[test]
    fn vec_strategy_respects_length_range() {
        let mut rng = TestRng::from_name("vec");
        for _ in 0..100 {
            let v = crate::collection::vec(0.0..1.0f64, 2..100).generate(&mut rng);
            assert!((2..100).contains(&v.len()));
            assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_itself_works(x in 1.0e-3..1.0f64, n in 1usize..=4) {
            prop_assert!(x > 0.0);
            prop_assert_eq!(n * 2, n + n);
            prop_assert!(n != 0);
        }
    }
}
