//! Offline stand-in for [`proptest`](https://crates.io/crates/proptest).
//!
//! The build environment cannot fetch external crates, so this shim
//! implements the API subset the workspace's property tests use: the
//! [`proptest!`] macro, range/tuple/`vec`/`prop_map` strategies,
//! [`arbitrary::any`], `prop_assert*` / `prop_assume` and
//! [`test_runner::ProptestConfig`].
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case reports its case number and the
//!   derived seed instead of a minimized input. Cases are generated
//!   deterministically from the test's module path and name, so failures
//!   reproduce exactly on re-run.
//! * **No persistence** (`proptest-regressions` files are not written).

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    //! One-stop imports for property tests, mirroring
    //! `proptest::prelude`.
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Fail the current test case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fail the current test case unless the operands compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

/// Fail the current test case if the operands compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, $($fmt)+);
    }};
}

/// Discard the current test case (it counts as neither pass nor fail)
/// unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Define property tests.
///
/// Mirrors the real crate's form: an optional
/// `#![proptest_config(ProptestConfig::with_cases(n))]` header followed
/// by `fn name(arg in strategy, ...) { body }` items. Each function keeps
/// the attributes written on it (so it needs its own `#[test]`, as with
/// the real crate) and runs `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let __test_path = concat!(module_path!(), "::", stringify!($name));
            let mut __accepted: u32 = 0;
            let mut __rejected: u64 = 0;
            let mut __case: u64 = 0;
            while __accepted < __config.cases {
                __case += 1;
                let mut __rng = $crate::test_runner::case_rng(__test_path, __case);
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                let __outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                match __outcome {
                    ::core::result::Result::Ok(()) => __accepted += 1,
                    ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::Reject(_),
                    ) => {
                        __rejected += 1;
                        assert!(
                            __rejected <= 1024 * (1 + __config.cases as u64),
                            "{__test_path}: too many prop_assume rejections \
                             ({__rejected}) — strategy rarely satisfies the assumption",
                        );
                    }
                    ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::Fail(msg),
                    ) => {
                        panic!(
                            "property {__test_path} failed at case #{__case} \
                             (re-run reproduces it deterministically): {msg}"
                        );
                    }
                }
            }
        }
    )*};
}
