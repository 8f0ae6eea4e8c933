//! The workspace's property-test harness: the slice of the
//! [proptest](https://docs.rs/proptest/1) 1.x API that the PICO suites
//! are written against, so they compile unchanged with no registry
//! access.
//!
//! What it is: random-case generation. Each `proptest!` test draws
//! `cases` inputs from its strategies over
//! [`pico_model::rng::SplitMix64`], seeded from the test's own path, so
//! a run is reproducible and a failure names the case index and the
//! `Debug` form of the inputs that produced it.
//!
//! What it is not: there is **no shrinking** (the reported inputs are
//! the ones drawn, not a minimal counter-example), no failure
//! persistence (pin a counter-example as an explicit `#[test]` that
//! calls the property's body), and no strategy beyond the ones below.
//!
//! ```
//! use proptest::prelude::*;
//!
//! proptest! {
//!     #![proptest_config(ProptestConfig::with_cases(32))]
//!
//!     /// Doc comments and attributes pass through.
//!     fn sum_commutes(a in 0usize..100, pair in (0u64..10, any::<bool>())) {
//!         prop_assume!(a != 7);
//!         prop_assert_eq!(a + pair.0 as usize, pair.0 as usize + a);
//!     }
//! }
//! sum_commutes();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use pico_model::rng::SplitMix64;

/// A recipe for drawing random values of one type.
pub trait Strategy {
    /// The type drawn.
    type Value: Debug;

    /// One draw.
    fn sample(&self, rng: &mut SplitMix64) -> Self::Value;

    /// The strategy drawing `f(v)` for each `v` this one draws.
    fn prop_map<T: Debug, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { source: self, f }
    }

    /// This strategy behind a pointer, so differently typed strategies
    /// of one `Value` can share a collection.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased [`Strategy`].
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut SplitMix64) -> T {
        (**self).sample(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S: Strategy, T: Debug, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;

    fn sample(&self, rng: &mut SplitMix64) -> T {
        (self.f)(self.source.sample(rng))
    }
}

/// The strategy that always draws a clone of its value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Debug + Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _: &mut SplitMix64) -> T {
        self.0.clone()
    }
}

/// See [`any`].
#[derive(Debug)]
pub struct Any<T>(PhantomData<T>);

/// The strategy drawing any value of `T` (only `bool` so far).
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any(PhantomData)
}

impl Strategy for Any<bool> {
    type Value = bool;

    fn sample(&self, rng: &mut SplitMix64) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// Uniform integer ranges, half-open and inclusive. The modulo bias is
/// below 2⁻³² for every span under 2³².
macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut SplitMix64) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                self.start + (rng.next_u64() % (self.end - self.start) as u64) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut SplitMix64) -> $t {
                assert!(self.start() <= self.end(), "cannot sample empty range");
                let bits = rng.next_u64();
                match ((self.end() - self.start()) as u64).checked_add(1) {
                    Some(span) => self.start() + (bits % span) as $t,
                    None => bits as $t,
                }
            }
        }
    )*};
}
int_ranges!(u8, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut SplitMix64) -> f64 {
        rng.range_f64(self.clone())
    }
}

/// A tuple of strategies draws a tuple of values, left to right.
macro_rules! tuples {
    ($(($($s:ident $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut SplitMix64) -> Self::Value {
                ($(self.$i.sample(rng),)+)
            }
        }
    )*};
}
tuples! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

/// A weighted choice among strategies; built by [`prop_oneof!`].
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> Union<T> {
    /// A union picking each arm with probability proportional to its
    /// weight.
    ///
    /// # Panics
    ///
    /// Panics if the weights sum to zero.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total = arms.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(total > 0, "prop_oneof! needs a positive total weight");
        Union { arms, total }
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut SplitMix64) -> T {
        let mut pick = rng.next_u64() % self.total;
        for (weight, arm) in &self.arms {
            if pick < u64::from(*weight) {
                return arm.sample(rng);
            }
            pick -= u64::from(*weight);
        }
        unreachable!("pick is below the total weight")
    }
}

/// Strategies for collections.
pub mod collection {
    use super::{Range, SplitMix64, Strategy};

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// The strategy drawing a `Vec` whose length is uniform in `len`
    /// and whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut SplitMix64) -> Self::Value {
            let len = self.len.sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Why one case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The inputs do not satisfy a `prop_assume!`; draw another case.
    Reject(String),
    /// A `prop_assert!` failed.
    Fail(String),
}

/// Per-block settings, set with `#![proptest_config(..)]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Cases that must pass.
    pub cases: u32,
}

impl ProptestConfig {
    /// The configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Rejected draws tolerated per test before it fails as vacuous.
const MAX_REJECTS: u32 = 1024;

/// Runs one `proptest!` test: draws from `strategy` until
/// `config.cases` cases pass `test`, seeded from `name` (FNV-1a).
///
/// # Panics
///
/// Panics — failing the enclosing `#[test]` — on the first case that
/// fails or panics, naming the case index and `describe(inputs)`, or
/// when more than `MAX_REJECTS` (1024) draws are rejected.
pub fn run<S: Strategy>(
    config: &ProptestConfig,
    name: &str,
    strategy: &S,
    describe: impl Fn(&S::Value) -> String,
    test: impl Fn(S::Value) -> Result<(), TestCaseError>,
) {
    let seed = name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    let mut rng = SplitMix64::seed_from_u64(seed);
    let (mut passed, mut rejected, mut case) = (0, 0, 0u32);
    while passed < config.cases {
        // The test consumes its inputs; a failure re-draws them from
        // the saved generator state to describe them.
        let before = rng.clone();
        let inputs = strategy.sample(&mut rng);
        let redraw = || describe(&strategy.sample(&mut before.clone()));
        match catch_unwind(AssertUnwindSafe(|| test(inputs))) {
            Ok(Ok(())) => passed += 1,
            Ok(Err(TestCaseError::Reject(why))) => {
                rejected += 1;
                assert!(
                    rejected <= MAX_REJECTS,
                    "{name}: {rejected} draws rejected ({passed} passed), last by `{why}`"
                );
            }
            Ok(Err(TestCaseError::Fail(why))) => {
                panic!("{name}: case {case} failed: {why}\ninputs:\n{}", redraw())
            }
            Err(panic) => {
                eprintln!("{name}: case {case} panicked\ninputs:\n{}", redraw());
                resume_unwind(panic)
            }
        }
        case += 1;
    }
}

/// Declares property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a function (a `#[test]` when so attributed) that draws its
/// arguments and runs the body once per case via [`run`]. The body may
/// use `prop_assert!`, `prop_assert_eq!`, `prop_assume!` and `?` on
/// `Result<_, TestCaseError>`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@fns ($config) $($rest)*);
    };
    (@fns ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::run(
                &$config,
                concat!(module_path!(), "::", stringify!($name)),
                &($($strategy,)+),
                |&($(ref $arg,)+)| format!(
                    concat!($("  ", stringify!($arg), " = {:?}\n"),+),
                    $($arg),+
                ),
                |($($arg,)+)| -> ::core::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::core::result::Result::Ok(())
                },
            );
        }
    )*};
    ($(#[$meta:meta])* fn $($rest:tt)*) => {
        $crate::proptest!(
            @fns (<$crate::ProptestConfig as ::core::default::Default>::default())
            $(#[$meta])* fn $($rest)*
        );
    };
}

/// Picks one of several strategies of the same `Value` per draw:
/// `prop_oneof![a, b]` uniformly, `prop_oneof![3 => a, 1 => b]` by
/// weight.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$(($weight, $crate::Strategy::boxed($strategy))),+])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$((1, $crate::Strategy::boxed($strategy))),+])
    };
}

/// Fails the current case (with an optional formatted message) unless
/// the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the two values are equal, showing
/// both.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "assertion failed: `{} == {}`", stringify!($left), stringify!($right))
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)+),
            left,
            right
        );
    }};
}

/// Discards the current case — it counts neither as passed nor as
/// failed — unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_owned(),
            ));
        }
    };
}

/// Everything a property suite imports: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{run, SplitMix64};

    #[test]
    fn draws_respect_their_strategies() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let strategy = (
            3usize..9,
            2u8..=2,
            0.5f64..0.75,
            crate::collection::vec(prop_oneof![4 => Just(1u64), 1 => 10u64..12], 1..4),
        );
        let mut saw = [false; 3];
        for _ in 0..2000 {
            let (a, b, c, v) = strategy.sample(&mut rng);
            assert!((3..9).contains(&a) && b == 2 && (0.5..0.75).contains(&c));
            assert!((1..4).contains(&v.len()));
            for x in v {
                saw[[1, 10, 11]
                    .iter()
                    .position(|k| *k == x)
                    .expect("an arm's value")] = true;
            }
        }
        assert_eq!(saw, [true; 3]);
        assert_eq!(
            (0u64..=u64::MAX).sample(&mut SplitMix64::seed_from_u64(0)),
            0xE220_A839_7B1D_CDAF
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        fn assumed_cases_are_redrawn_not_counted(n in 0usize..4, flip in any::<bool>()) {
            prop_assume!(n != 0);
            prop_assert!(n < 4, "n = {n}, flip = {flip}");
        }

        fn fails_past_ten(n in 0usize..1000) {
            prop_assert!(n < 10);
        }
    }

    #[test]
    fn passing_block_runs_and_same_name_means_same_cases() {
        assumed_cases_are_redrawn_not_counted();
        let draws = |name: &str| {
            let seen = std::cell::RefCell::new(Vec::new());
            run(
                &ProptestConfig::with_cases(5),
                name,
                &(0u64..1000,),
                |v| format!("{v:?}"),
                |(v,)| {
                    seen.borrow_mut().push(v);
                    Ok(())
                },
            );
            seen.into_inner()
        };
        assert_eq!(draws("a::b"), draws("a::b"));
        assert_ne!(draws("a::b"), draws("a::c"));
    }

    #[test]
    fn a_failure_names_the_case_and_its_inputs() {
        let panic = std::panic::catch_unwind(fails_past_ten).expect_err("must fail");
        let text = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(text.contains("fails_past_ten: case "), "{text}");
        assert!(text.contains(" failed: assertion failed: n < 10"), "{text}");
        assert!(text.contains("  n = "), "{text}");
    }

    #[test]
    #[should_panic(expected = "draws rejected")]
    fn an_unsatisfiable_assumption_is_an_error() {
        run(
            &ProptestConfig::default(),
            "vacuous",
            &(Just(0u8),),
            |v| format!("{v:?}"),
            |_| Err(TestCaseError::Reject("never".to_owned())),
        );
    }
}
