//! Minimal, API-compatible subset of `proptest` so the workspace's
//! property tests build and run without network access.
//!
//! Scope: deterministic random generation driven by a per-test seed,
//! the `proptest!` / `prop_assert*` / `prop_oneof!` macros, strategy
//! combinators (`prop_map`, `prop_recursive`, tuples, collections,
//! ranges, regex-shaped strings). Deliberately absent: shrinking,
//! failure persistence, and forked execution — a failing case panics
//! with the generated inputs in the message instead.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod num;
pub mod strategy;
pub mod string;
pub mod test_runner;

pub use arbitrary::any;
pub use strategy::{BoxedStrategy, Just, Strategy, Union};

/// Free-function generation entry point used by the `proptest!`
/// expansion (avoids requiring the trait in scope at the call site).
pub fn generate<S: Strategy>(strategy: &S, rng: &mut test_runner::TestRng) -> S::Value {
    strategy.gen_value(rng)
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};

    pub mod prop {
        pub use crate::collection;
        pub use crate::num;
        pub use crate::strategy;
        pub use crate::string;
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (config = $config:expr;
     $(
         $(#[$meta:meta])*
         fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $config;
                let __strategies = ($(&$strat,)+);
                for __case in 0..__config.cases {
                    let mut __rng = $crate::test_runner::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                    );
                    $crate::__proptest_bind!(__strategies, __rng, $($pat),+);
                    let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    match __outcome {
                        ::std::result::Result::Ok(()) => {}
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {
                            continue;
                        }
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(__msg)) => {
                            panic!(
                                "proptest case {} of test `{}` failed: {}",
                                __case,
                                stringify!($name),
                                __msg
                            );
                        }
                    }
                }
            }
        )*
    };
}

/// Destructure the tuple of strategy references positionally, binding
/// each generated value to its pattern.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($strategies:ident, $rng:ident, $p0:pat) => {
        let $p0 = $crate::generate($strategies.0, &mut $rng);
    };
    ($strategies:ident, $rng:ident, $p0:pat, $p1:pat) => {
        let $p0 = $crate::generate($strategies.0, &mut $rng);
        let $p1 = $crate::generate($strategies.1, &mut $rng);
    };
    ($strategies:ident, $rng:ident, $p0:pat, $p1:pat, $p2:pat) => {
        let $p0 = $crate::generate($strategies.0, &mut $rng);
        let $p1 = $crate::generate($strategies.1, &mut $rng);
        let $p2 = $crate::generate($strategies.2, &mut $rng);
    };
    ($strategies:ident, $rng:ident, $p0:pat, $p1:pat, $p2:pat, $p3:pat) => {
        let $p0 = $crate::generate($strategies.0, &mut $rng);
        let $p1 = $crate::generate($strategies.1, &mut $rng);
        let $p2 = $crate::generate($strategies.2, &mut $rng);
        let $p3 = $crate::generate($strategies.3, &mut $rng);
    };
    ($strategies:ident, $rng:ident, $p0:pat, $p1:pat, $p2:pat, $p3:pat, $p4:pat) => {
        let $p0 = $crate::generate($strategies.0, &mut $rng);
        let $p1 = $crate::generate($strategies.1, &mut $rng);
        let $p2 = $crate::generate($strategies.2, &mut $rng);
        let $p3 = $crate::generate($strategies.3, &mut $rng);
        let $p4 = $crate::generate($strategies.4, &mut $rng);
    };
    ($strategies:ident, $rng:ident, $p0:pat, $p1:pat, $p2:pat, $p3:pat, $p4:pat, $p5:pat) => {
        let $p0 = $crate::generate($strategies.0, &mut $rng);
        let $p1 = $crate::generate($strategies.1, &mut $rng);
        let $p2 = $crate::generate($strategies.2, &mut $rng);
        let $p3 = $crate::generate($strategies.3, &mut $rng);
        let $p4 = $crate::generate($strategies.4, &mut $rng);
        let $p5 = $crate::generate($strategies.5, &mut $rng);
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)*),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`\n{}",
            __l,
            __r,
            format!($($fmt)*)
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            __l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `(left != right)`\n  both: `{:?}`\n{}",
            __l,
            format!($($fmt)*)
        );
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}
