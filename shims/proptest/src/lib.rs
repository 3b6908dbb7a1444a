//! A minimal, self-contained stand-in for the subset of `proptest` this
//! workspace uses. The build environment cannot reach crates.io, so the
//! workspace vendors this shim instead of the real crate.
//!
//! Semantics: each `proptest!` test runs its body against
//! `ProptestConfig::cases` pseudo-random inputs drawn from the given
//! strategies. Generation is seeded from the test's module path + name,
//! so failures are reproducible run-to-run and machine-to-machine.
//! There is **no shrinking**: a failing case panics with the generated
//! values left in the assertion message (strategies here are cheap to
//! re-run by hand). Supported surface: range/tuple/array/`&str`
//! (character-class regex) strategies, `Just`, `any::<T>()`,
//! `collection::vec`, `prop_map`, `prop_recursive`, `prop_oneof!`,
//! `prop_assert!`/`prop_assert_eq!`/`prop_assert_ne!`, and
//! `#![proptest_config(...)]`.

#![forbid(unsafe_code)]

pub mod test_runner {
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    /// Run-count configuration (subset of `proptest`'s).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    /// The deterministic generator handed to strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng(SmallRng);

    impl TestRng {
        /// Seeds from a stable string (the test's full path), so every
        /// test gets its own reproducible stream.
        pub fn for_test(name: &str) -> TestRng {
            let mut seed = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                seed ^= b as u64;
                seed = seed.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng(SmallRng::seed_from_u64(seed))
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }

        /// Uniform draw from `[0, n)`.
        pub fn below(&mut self, n: usize) -> usize {
            use rand::Rng;
            assert!(n > 0);
            self.0.gen_range(0..n)
        }

        pub(crate) fn small(&mut self) -> &mut SmallRng {
            &mut self.0
        }
    }
}

pub mod strategy {
    use std::sync::Arc;

    use crate::test_runner::TestRng;

    /// A generator of values (subset of `proptest::strategy::Strategy`;
    /// no shrinking, so `Clone` stands in for strategy trees).
    pub trait Strategy: Clone {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            F: Fn(Self::Value) -> U + Clone,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            S2: Strategy,
            F: Fn(Self::Value) -> S2 + Clone,
        {
            FlatMap { inner: self, f }
        }

        fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
        where
            F: Fn(&Self::Value) -> bool + Clone,
        {
            Filter {
                inner: self,
                f,
                whence,
            }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: 'static,
        {
            let inner = self;
            BoxedStrategy(Arc::new(move |rng| inner.generate(rng)))
        }

        /// Recursive strategies: `depth` levels of `recurse` applied on
        /// top of `self` as the leaf; each inner reference flips between
        /// recursing further and bottoming out at a leaf.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let mut cur = self.clone().boxed();
            for _ in 0..depth {
                let mixed = Union::new(vec![self.clone().boxed(), cur]).boxed();
                cur = recurse(mixed).boxed();
            }
            // Let the top level be a bare leaf sometimes too.
            Union::new(vec![self.boxed(), cur]).boxed()
        }
    }

    /// A type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T>(Arc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Arc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, U, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U + Clone,
    {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    #[derive(Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2 + Clone,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    #[derive(Clone)]
    pub struct Filter<S, F> {
        inner: S,
        f: F,
        whence: &'static str,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool + Clone,
    {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1_000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!(
                "prop_filter `{}` rejected 1000 candidates in a row",
                self.whence
            )
        }
    }

    /// Uniform (or weighted) choice among boxed strategies.
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u32,
    }

    // Manual impl: `BoxedStrategy` clones via `Arc` regardless of `T`,
    // so `T: Clone` must not be required (derive would add it).
    impl<T> Clone for Union<T> {
        fn clone(&self) -> Union<T> {
            Union {
                arms: self.arms.clone(),
                total: self.total,
            }
        }
    }

    impl<T> Union<T> {
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
            Union::new_weighted(arms.into_iter().map(|a| (1, a)).collect())
        }

        pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            let total = arms.iter().map(|(w, _)| *w).sum();
            assert!(total > 0, "prop_oneof! weights sum to zero");
            Union { arms, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.below(self.total as usize) as u32;
            for (w, arm) in &self.arms {
                if pick < *w {
                    return arm.generate(rng);
                }
                pick -= w;
            }
            unreachable!("weight bookkeeping")
        }
    }

    // --- primitive strategies -------------------------------------------

    impl<T> Strategy for std::ops::Range<T>
    where
        T: rand::SampleUniform + Clone,
    {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            use rand::Rng;
            rng.small().gen_range(self.clone())
        }
    }

    impl<T> Strategy for std::ops::RangeInclusive<T>
    where
        T: rand::SampleUniform + Clone,
    {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            use rand::Rng;
            rng.small().gen_range(self.clone())
        }
    }

    /// `&str` strategies are single-character-class regexes like
    /// `"[a-z0-9*,-]{0,200}"` — the only regex shape the workspace uses.
    /// Anything else is rejected loudly rather than silently mis-sampled.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (chars, lo, hi) = parse_char_class_regex(self)
                .unwrap_or_else(|| panic!("proptest shim: unsupported regex strategy {self:?}"));
            let len = lo + rng.below(hi - lo + 1);
            (0..len).map(|_| chars[rng.below(chars.len())]).collect()
        }
    }

    /// Parses `[class]{m,n}` into (members, m, n). Supports `a-z` ranges,
    /// literal `-` at the ends, and backslash escapes.
    fn parse_char_class_regex(pat: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pat.strip_prefix('[')?;
        let close = rest.find(']')?;
        let class: Vec<char> = rest[..close].chars().collect();
        let counts = rest[close + 1..].strip_prefix('{')?.strip_suffix('}')?;
        let (lo, hi) = counts.split_once(',')?;
        let (lo, hi) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
        if lo > hi {
            return None;
        }
        let mut members = Vec::new();
        let mut i = 0;
        while i < class.len() {
            let c = class[i];
            if c == '\\' && i + 1 < class.len() {
                members.push(match class[i + 1] {
                    'n' => '\n',
                    't' => '\t',
                    other => other,
                });
                i += 2;
            } else if i + 2 < class.len() && class[i + 1] == '-' {
                let (a, b) = (c, class[i + 2]);
                if a > b {
                    return None;
                }
                members.extend(a..=b);
                i += 3;
            } else {
                members.push(c);
                i += 1;
            }
        }
        if members.is_empty() {
            return None;
        }
        Some((members, lo, hi))
    }

    macro_rules! impl_tuple_strategy {
        ($($s:ident/$v:ident),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($s,)+) = self;
                    ($($s.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(S1 / v1);
    impl_tuple_strategy!(S1 / v1, S2 / v2);
    impl_tuple_strategy!(S1 / v1, S2 / v2, S3 / v3);
    impl_tuple_strategy!(S1 / v1, S2 / v2, S3 / v3, S4 / v4);
    impl_tuple_strategy!(S1 / v1, S2 / v2, S3 / v3, S4 / v4, S5 / v5);
    impl_tuple_strategy!(S1 / v1, S2 / v2, S3 / v3, S4 / v4, S5 / v5, S6 / v6);

    impl<S: Strategy, const N: usize> Strategy for [S; N] {
        type Value = [S::Value; N];
        fn generate(&self, rng: &mut TestRng) -> [S::Value; N] {
            std::array::from_fn(|i| self[i].generate(rng))
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary_value(rng: &mut TestRng) -> f64 {
            use rand::Rng;
            // Finite, sign-symmetric, wide dynamic range.
            let mag: f64 = rng.small().gen();
            let scale = 10f64.powi(rng.small().gen_range(-3i32..6));
            if rng.next_u64() & 1 == 1 {
                mag * scale
            } else {
                -mag * scale
            }
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Lengths accepted by [`vec()`]: an exact `usize` or a range.
    pub trait IntoSizeRange {
        /// Inclusive (lo, hi).
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    #[derive(Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        lo: usize,
        hi: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.lo + rng.below(self.hi - self.lo + 1);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// `proptest::collection::vec`: a vector whose length is drawn from
    /// `size` and whose elements come from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (lo, hi) = size.bounds();
        VecStrategy { elem, lo, hi }
    }
}

/// Defines `#[test]` functions that run their body against many
/// generated inputs. Mirrors `proptest::proptest!` (without shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! {
            ($crate::test_runner::ProptestConfig::default()); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr);) => {};
    (($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            let __strategies = ($($strat,)+);
            let mut __rng = $crate::test_runner::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for __case in 0..__config.cases {
                let ($($pat,)+) =
                    $crate::strategy::Strategy::generate(&__strategies, &mut __rng);
                $body
            }
        }
        $crate::__proptest_tests! { ($cfg); $($rest)* }
    };
}

/// `assert!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `assert_eq!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `assert_ne!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Uniform (or `weight => strategy` weighted) choice among strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_tuples_and_vecs_generate_in_bounds() {
        let mut rng = TestRng::for_test("shim::basic");
        let s = (
            1usize..10,
            (-5i32..5, crate::collection::vec(any::<u8>(), 3..6)),
        );
        for _ in 0..200 {
            let (a, (b, v)) = s.generate(&mut rng);
            assert!((1..10).contains(&a));
            assert!((-5..5).contains(&b));
            assert!((3..6).contains(&v.len()));
        }
    }

    #[test]
    fn oneof_and_map_cover_all_arms() {
        let mut rng = TestRng::for_test("shim::oneof");
        let s = prop_oneof![(0i32..1).prop_map(|_| "lo"), (0i32..1).prop_map(|_| "hi"),];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(s.generate(&mut rng));
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum T {
            #[allow(dead_code)] // payload exercises prop_map, never read back
            Leaf(i32),
            Node(Box<T>, Box<T>),
        }
        fn depth(t: &T) -> usize {
            match t {
                T::Leaf(_) => 1,
                T::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let leaf = (0i32..10).prop_map(T::Leaf);
        let s = leaf.prop_recursive(4, 32, 2, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| T::Node(Box::new(a), Box::new(b)))
        });
        let mut rng = TestRng::for_test("shim::recursive");
        let mut max_depth = 0;
        for _ in 0..300 {
            max_depth = max_depth.max(depth(&s.generate(&mut rng)));
        }
        assert!(max_depth > 1, "recursion never fired");
        assert!(max_depth <= 9, "depth bound exceeded: {max_depth}");
    }

    #[test]
    fn char_class_regex_strings() {
        let mut rng = TestRng::for_test("shim::regex");
        let s = "[a-c0-1 \\n-]{2,5}";
        for _ in 0..100 {
            let v = Strategy::generate(&s, &mut rng);
            assert!((2..=5).contains(&v.chars().count()), "{v:?}");
            assert!(
                v.chars().all(|c| "abc01 \n-".contains(c)),
                "unexpected char in {v:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_itself_works(x in 0u64..100, (a, b) in (0i32..10, 0i32..10)) {
            prop_assert!(x < 100);
            prop_assert_eq!(a + b, b + a, "commutativity {} {}", a, b);
        }
    }
}
