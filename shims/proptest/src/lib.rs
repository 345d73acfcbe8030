//! Std-only stand-in for the subset of the [`proptest`] crate API this
//! workspace uses, so the repository builds and tests without network
//! access.
//!
//! The workspace consumes it under the dependency name `proptest` (see the
//! root `Cargo.toml`), so property tests read exactly like the real crate:
//! the [`proptest!`] macro, [`prop_assert!`]/[`prop_assert_eq!`],
//! [`prop_oneof!`], `collection::vec`, `option::of`, `bool::ANY`, integer
//! range strategies, tuple strategies and `prop_map`.
//!
//! Differences from the real crate, deliberate for a zero-dependency shim:
//!
//! * **No shrinking.** A failing case reports the case number and message
//!   and panics immediately. Reproduction is still exact because the
//!   generator is seeded deterministically from the test name.
//! * **No persistence files.** Every run replays the same deterministic
//!   case sequence.
//!
//! [`proptest`]: https://crates.io/crates/proptest

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;
pub mod test_runner;

/// Strategies for collections.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// An inclusive-exclusive (or inclusive-inclusive) length range for
    /// [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        /// Inclusive upper bound.
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec length range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec length range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// A strategy producing `Vec`s whose elements come from `element` and
    /// whose length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.usize_in(self.size.lo, self.size.hi);
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Boolean strategies.
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The uniform boolean strategy.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Generates `true` and `false` with equal probability.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn new_value(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// `Option` strategies.
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Wraps `inner`'s values in `Some` most of the time, `None` otherwise
    /// (the real crate defaults to 90% `Some`; this shim uses 75%).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    #[derive(Debug, Clone, Copy)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64().is_multiple_of(4) {
                None
            } else {
                Some(self.inner.new_value(rng))
            }
        }
    }
}

/// The glob-import surface: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Runs one test-case body, converting a failed `prop_assert*` into an
/// error. Used by the [`proptest!`] expansion; not public API.
#[doc(hidden)]
pub fn __run_case(
    body: impl FnOnce() -> Result<(), test_runner::TestCaseError>,
) -> Result<(), test_runner::TestCaseError> {
    body()
}

/// The macro behind `proptest! { ... }`: expands each `fn name(arg in
/// strategy, ...) { body }` into a `#[test]` that draws `cases` inputs from
/// a deterministic generator and runs the body on each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)]
     $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut rng = $crate::test_runner::TestRng::from_name(stringify!($name));
                for case in 0..config.cases {
                    $(let $arg = $crate::strategy::Strategy::new_value(&($strategy), &mut rng);)*
                    let outcome = $crate::__run_case(move || {
                        $body
                        ::std::result::Result::Ok(())
                    });
                    if let ::std::result::Result::Err(e) = outcome {
                        ::std::panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name), case + 1, config.cases, e
                        );
                    }
                }
            }
        )*
    };
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block)*) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::ProptestConfig::default())]
            $($(#[$meta])* fn $name($($arg in $strategy),*) $body)*
        }
    };
}

/// Asserts a condition inside a [`proptest!`] body, failing the case (not
/// aborting the process) when it does not hold.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)*),
            ));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: {:?} != {:?}", left, right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "{}: {:?} != {:?}", ::std::format!($($fmt)*), left, right
        );
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "assertion failed: both sides equal {:?}",
            left
        );
    }};
}

/// Picks uniformly among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(::std::vec![
            $($crate::strategy::boxed($strategy)),+
        ])
    };
}
