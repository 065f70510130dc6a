//! Minimal stand-in for `proptest` (offline build).
//!
//! Implements the subset this workspace's property tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`, range/`Just`/pattern/tuple/vec
//! strategies, weighted `prop_oneof!`, `any::<T>()` via [`Arbitrary`](arbitrary::Arbitrary), and
//! the `proptest!`/`prop_assert*` macros. Each property runs a fixed number
//! of deterministically seeded cases (no shrinking; the failing case's seed
//! and inputs are reported through the panic message).

use std::fmt::Write as _;

/// Number of cases each property runs.
pub const CASES: u64 = 96;

/// The deterministic generator driving all strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded generator.
    pub fn new(seed: u64) -> TestRng {
        TestRng {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03,
        }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`; 0 when `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() as usize) % n
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use super::TestRng;
    use std::marker::PhantomData;
    use std::ops::Range;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// Generated value type.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    /// Strategy yielding a constant.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `prop_map` combinator.
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            let v = self.start + rng.next_f64() * (self.end - self.start);
            if v >= self.end {
                self.start
            } else {
                v
            }
        }
    }

    macro_rules! impl_int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let v = (rng.next_u64() as u128) % span;
                    (self.start as i128 + v as i128) as $t
                }
            }
        )*};
    }

    impl_int_strategy!(usize, u64, u32, isize, i64, i32);

    /// String-pattern strategy: `&'static str` is interpreted as the tiny
    /// regex subset proptest users lean on — literal characters, `[a-z]`
    /// classes and `{m,n}` repetitions.
    impl Strategy for &'static str {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            sample_pattern(self, rng)
        }
    }

    /// One parsed pattern atom.
    enum Atom {
        Lit(char),
        Class(char, char),
    }

    fn sample_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let mut chars = pattern.chars().peekable();
        while let Some(c) = chars.next() {
            let atom = match c {
                '[' => {
                    let lo = chars.next().expect("pattern: class start");
                    assert_eq!(chars.next(), Some('-'), "pattern: class must be [a-z]");
                    let hi = chars.next().expect("pattern: class end");
                    assert_eq!(chars.next(), Some(']'), "pattern: unterminated class");
                    Atom::Class(lo, hi)
                }
                '\\' => Atom::Lit(chars.next().expect("pattern: dangling escape")),
                c => Atom::Lit(c),
            };
            // Optional {m,n} repetition.
            let (min, max) = if chars.peek() == Some(&'{') {
                chars.next();
                let spec: String = chars.by_ref().take_while(|&c| c != '}').collect();
                let (m, n) = spec.split_once(',').expect("pattern: {m,n} repetition");
                (
                    m.trim().parse::<usize>().expect("pattern: bad {m,n}"),
                    n.trim().parse::<usize>().expect("pattern: bad {m,n}"),
                )
            } else {
                (1, 1)
            };
            let count = min + rng.below(max - min + 1);
            for _ in 0..count {
                match atom {
                    Atom::Lit(l) => out.push(l),
                    Atom::Class(lo, hi) => {
                        let span = hi as u32 - lo as u32 + 1;
                        let c = char::from_u32(lo as u32 + rng.below(span as usize) as u32)
                            .expect("pattern: class range");
                        out.push(c);
                    }
                }
            }
        }
        out
    }

    impl<A: Strategy, B: Strategy> Strategy for (A, B) {
        type Value = (A::Value, B::Value);
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (self.0.sample(rng), self.1.sample(rng))
        }
    }

    impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
        type Value = (A::Value, B::Value, C::Value);
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
        }
    }

    /// Weighted choice between boxed strategies (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
    }

    impl<T> Union<T> {
        /// Build from `(weight, strategy)` arms.
        pub fn new(arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> Union<T> {
            assert!(!arms.is_empty(), "prop_oneof!: no arms");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let total: u32 = self.arms.iter().map(|(w, _)| *w).sum();
            let mut draw = rng.below(total.max(1) as usize) as u32;
            for (w, s) in &self.arms {
                if draw < *w {
                    return s.sample(rng);
                }
                draw -= w;
            }
            self.arms.last().expect("non-empty").1.sample(rng)
        }
    }

    /// Box a strategy for use in a [`Union`].
    pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(s)
    }

    /// Marker so the unit type can appear where a strategy is expected in
    /// internal plumbing (never sampled).
    pub struct Never<T>(PhantomData<T>);
}

pub mod arbitrary {
    //! `any::<T>()`-style blanket generation.

    use super::TestRng;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draw an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut TestRng) -> u64 {
            rng.next_u64()
        }
    }

    impl Arbitrary for u32 {
        fn arbitrary(rng: &mut TestRng) -> u32 {
            rng.next_u64() as u32
        }
    }

    impl Arbitrary for usize {
        fn arbitrary(rng: &mut TestRng) -> usize {
            rng.next_u64() as usize
        }
    }

    impl Arbitrary for i64 {
        fn arbitrary(rng: &mut TestRng) -> i64 {
            rng.next_u64() as i64
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite, spread over a wide range.
            (rng.next_f64() - 0.5) * 2e9
        }
    }

    /// Draw an arbitrary value of `T` (macro plumbing for `name: T` params).
    pub fn any_value<T: Arbitrary>(rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection`).

    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::Range;

    /// Length specification for [`vec()`]: a fixed size or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        /// Exclusive upper bound.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            SizeRange {
                min: r.start,
                max: r.end,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `prop::collection::vec(element, size)` — `size` is a fixed length or
    /// a `start..end` range.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.max.saturating_sub(self.size.min).max(1);
            let len = self.size.min + rng.below(span);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Run `f` for [`CASES`] deterministic seeds derived from the test name.
pub fn run_cases(name: &str, mut f: impl FnMut(&mut TestRng)) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    for case in 0..CASES {
        let seed = h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = TestRng::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng)));
        if let Err(payload) = result {
            let mut msg = String::new();
            let _ = write!(
                msg,
                "property '{name}' failed at case {case} (seed {seed:#x})"
            );
            if let Some(s) = payload.downcast_ref::<String>() {
                let _ = write!(msg, ": {s}");
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                let _ = write!(msg, ": {s}");
            }
            panic!("{msg}");
        }
    }
}

/// Everything a property test file needs.
pub mod prelude {
    pub use crate::arbitrary::Arbitrary;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Mirror of proptest's `prelude::prop` module path.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Define property tests: each `fn name(binding in strategy, plain: Type)`
/// becomes a `#[test]` running [`CASES`] seeded cases.
#[macro_export]
macro_rules! proptest {
    () => {};
    // Accepted and ignored: the shim always runs `CASES` cases.
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest! { $($rest)* }
    };
    ($(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            $crate::run_cases(stringify!($name), |__proptest_rng| {
                $crate::__proptest_bind!(__proptest_rng, $($params)*);
                $body
            });
        }
        $crate::proptest! { $($rest)* }
    };
}

/// Internal: bind each parameter of a `proptest!` fn from its strategy.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $p:ident in $s:expr, $($rest:tt)*) => {
        let $p = $crate::strategy::Strategy::sample(&($s), $rng);
        $crate::__proptest_bind!($rng, $($rest)*);
    };
    ($rng:ident, $p:ident in $s:expr) => {
        let $p = $crate::strategy::Strategy::sample(&($s), $rng);
    };
    ($rng:ident, $p:ident : $ty:ty, $($rest:tt)*) => {
        let $p: $ty = $crate::arbitrary::any_value::<$ty>($rng);
        $crate::__proptest_bind!($rng, $($rest)*);
    };
    ($rng:ident, $p:ident : $ty:ty) => {
        let $p: $ty = $crate::arbitrary::any_value::<$ty>($rng);
    };
}

/// Weighted (`w => strategy`) or uniform choice between strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($w:expr => $s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($w as u32, $crate::strategy::boxed($s))),+
        ])
    };
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::boxed($s))),+
        ])
    };
}

/// Assert within a property (plain assert; the harness reports the case).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assert within a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assert within a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn pattern_strategy_shapes() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..100 {
            let s = Strategy::sample(&"w[a-z]{0,7}", &mut rng);
            assert!(s.starts_with('w'));
            assert!(s.len() <= 8);
            let c = Strategy::sample(&"[a-c]", &mut rng);
            assert!(["a", "b", "c"].contains(&c.as_str()));
        }
    }

    #[test]
    fn union_respects_weights_roughly() {
        let mut rng = crate::TestRng::new(2);
        let u = prop_oneof![
            3 => (0.0f64..1.0).prop_map(Some),
            1 => Just(None),
        ];
        let n = 4000;
        let somes = (0..n)
            .filter(|_| Strategy::sample(&u, &mut rng).is_some())
            .count();
        let frac = somes as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.05, "frac={frac}");
    }

    proptest! {
        #[test]
        fn macro_binds_strategies(xs in prop::collection::vec(0usize..10, 0..5), seed: u64) {
            prop_assert!(xs.len() < 5);
            prop_assert!(xs.iter().all(|&x| x < 10));
            let _ = seed;
        }

        #[test]
        fn tuple_and_map(pair in (0.0f64..1.0, "[a-b]")) {
            let (x, s) = pair;
            prop_assert!((0.0..1.0).contains(&x));
            prop_assert!(s == "a" || s == "b");
        }
    }
}
