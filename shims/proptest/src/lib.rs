//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest API this workspace uses:
//! the [`proptest!`] macro, `prop_assert*`/`prop_assume!`, range and
//! tuple strategies, `collection::vec`, `any::<T>()`, `num::u64::ANY`,
//! `.prop_map`, and the explicit [`test_runner::TestRunner`] driver.
//!
//! No shrinking: a failing case reports the generated input and fails the
//! test immediately. Generation is deterministic — every run draws from a
//! fixed-seed [`rand::rngs::StdRng`], so failures reproduce exactly.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod num;
pub mod strategy;
pub mod test_runner;

/// The glob-imported surface, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Fails the surrounding property (returns `TestCaseError` from the
/// enclosing `Result`-valued test body).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)*),
            ));
        }
    };
}

/// Equality assertion variant of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)*);
    }};
}

/// Inequality assertion variant of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left != *right, "assertion failed: `{:?}` == `{:?}`", left, right);
    }};
}

/// Skips the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a zero-argument fn running `body` over generated inputs. As in
/// real proptest, the fn carries only the caller's attributes, so each
/// property is written `#[test] fn name(...)`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { @cfg($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            @cfg($crate::test_runner::Config::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (@cfg($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $config;
            let mut runner = $crate::test_runner::TestRunner::new(config);
            runner
                .run(&($($strategy,)+), |($($pat,)+)| {
                    $body
                    ::core::result::Result::Ok(())
                })
                .unwrap();
        }
        $crate::__proptest_fns! { @cfg($config) $($rest)* }
    };
    (@cfg($config:expr)) => {};
}
