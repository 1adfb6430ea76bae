//! Minimal stand-in for `proptest`, used when the real crate cannot be
//! fetched (offline build environments). Supports the surface this
//! workspace uses: the [`proptest!`] macro with `name in strategy`
//! arguments and an optional `#![proptest_config(..)]`, range/tuple
//! strategies, `prop::collection::{vec, btree_set}`, `any::<T>()` and the
//! `prop_assert*` macros.
//!
//! Failing cases are reported with their case index and seed but are **not
//! shrunk** — rerun with the printed seed to reproduce.

#![forbid(unsafe_code)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Test-runner configuration (subset of upstream's).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property is checked against.
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// The RNG handed to strategies.
pub struct TestRng {
    rng: SmallRng,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

/// A generator of random values (upstream's `Strategy`, minus shrinking).
pub trait Strategy {
    type Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.rng().gen_range(self.start..self.end)
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                // Sample the half-open range then occasionally return the
                // endpoint; exact endpoint weight does not matter here.
                if start == end || rng.rng().gen_bool(1.0 / 64.0) {
                    end
                } else {
                    rng.rng().gen_range(start..end)
                }
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A: 0);
impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);

/// Types with a canonical "any value" strategy (upstream's `Arbitrary`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy produced by [`any`].
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — any value of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: std::marker::PhantomData,
    }
}

/// Size specification for collection strategies: an exact size or a
/// half-open range.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { lo: n, hi: n + 1 }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        Self {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl SizeRange {
    fn sample(&self, rng: &mut TestRng) -> usize {
        if self.hi - self.lo <= 1 {
            self.lo
        } else {
            rng.rng().gen_range(self.lo..self.hi)
        }
    }
}

/// The `prop::` namespace (`use proptest::prelude::*` exposes it).
pub mod prop {
    pub mod collection {
        use super::super::{SizeRange, Strategy, TestRng};

        /// `Vec` strategy with element strategy `element` and a size drawn
        /// from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let n = self.size.sample(rng);
                (0..n).map(|_| self.element.sample(rng)).collect()
            }
        }

        /// `BTreeSet` strategy; sampling stops early if the element domain
        /// is too small to reach the requested size.
        pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
        where
            S: Strategy,
            S::Value: Ord,
        {
            BTreeSetStrategy {
                element,
                size: size.into(),
            }
        }

        pub struct BTreeSetStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S> Strategy for BTreeSetStrategy<S>
        where
            S: Strategy,
            S::Value: Ord,
        {
            type Value = std::collections::BTreeSet<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let want = self.size.sample(rng);
                let mut out = std::collections::BTreeSet::new();
                let mut misses = 0usize;
                while out.len() < want && misses < 1000 {
                    if !out.insert(self.element.sample(rng)) {
                        misses += 1;
                    }
                }
                out
            }
        }
    }
}

/// Everything the `proptest!` macro body needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary,
        ProptestConfig, Strategy,
    };
}

/// FNV-1a, used to derive a per-test base seed from the test name so every
/// property sees a distinct but reproducible stream.
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*)
    };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*)
    };
}

/// The `proptest!` block: an optional `#![proptest_config(..)]` followed by
/// `#[test] fn name(arg in strategy, ..) { .. }` items. Each becomes a
/// normal `#[test]` that samples its strategies `cases` times.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr); ) => {};
    (($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let base = $crate::fnv1a(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..cfg.cases as u64 {
                let seed = base.wrapping_add(case);
                let mut __rng = $crate::TestRng::new(seed);
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                    $body
                }));
                if let Err(payload) = outcome {
                    eprintln!(
                        "proptest case {case} of {} failed (seed {seed:#x})",
                        stringify!($name)
                    );
                    ::std::panic::resume_unwind(payload);
                }
            }
        }
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(a in 1usize..10, b in -2.0f64..2.0) {
            prop_assert!((1..10).contains(&a));
            prop_assert!((-2.0..2.0).contains(&b));
        }

        #[test]
        fn vec_of_tuples(v in prop::collection::vec((0u32..5, 0u32..5), 0..20)) {
            prop_assert!(v.len() < 20);
            for (x, y) in v {
                prop_assert!(x < 5 && y < 5);
            }
        }

        #[test]
        fn btree_set_size(s in prop::collection::btree_set((0u8..10, 0u8..10), 3..10)) {
            prop_assert!(s.len() >= 3 && s.len() < 10, "len {}", s.len());
        }

        #[test]
        fn any_bool_takes_both_values(flags in prop::collection::vec(any::<bool>(), 64)) {
            prop_assert_eq!(flags.len(), 64);
        }
    }

    #[test]
    fn exact_size_vec() {
        let mut rng = crate::TestRng::new(1);
        let strat = prop::collection::vec(-2.0f32..2.0, 144);
        assert_eq!(crate::Strategy::sample(&strat, &mut rng).len(), 144);
    }

    #[test]
    fn deterministic_per_seed() {
        let strat = 0u64..1000;
        let a = crate::Strategy::sample(&strat, &mut crate::TestRng::new(9));
        let b = crate::Strategy::sample(&strat, &mut crate::TestRng::new(9));
        assert_eq!(a, b);
    }
}
