//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no crates.io access, so this path crate
//! implements the API subset the workspace's property tests use: the
//! [`Strategy`] trait with `prop_map`/`prop_flat_map`, `any`, `Just`,
//! integer-range and tuple strategies, `collection::vec`, `option::of`, a
//! small regex-pattern string strategy, and the `proptest!`, `prop_oneof!`,
//! `prop_assert!`, and `prop_assert_eq!` macros.
//!
//! Differences from real proptest: cases are drawn from a deterministic
//! per-test stream (seeded by the test name), there is **no shrinking** —
//! a failing case panics with the generated inputs in the assertion
//! message — and regex support covers only char classes, `.`, literals,
//! and `{n,m}` repetition, which is what the tests here use.

#![forbid(unsafe_code)]

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Deterministic splitmix64 stream that drives all generation.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a stream from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next raw word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.next_u64() % n
    }
}

/// Builds the per-test RNG used by the [`proptest!`] macro expansion.
pub fn test_rng(test_name: &str) -> TestRng {
    let mut h = DefaultHasher::new();
    test_name.hash(&mut h);
    TestRng::new(h.finish() ^ 0x9E37_79B9_7F4A_7C15)
}

/// Run configuration (only the case count is honoured).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A value generator.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` returns.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }
}

impl<V> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

/// Boxes a strategy (used by [`prop_oneof!`]).
pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

/// See [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Clone, Debug)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always yields a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among boxed alternatives (built by [`prop_oneof!`]).
pub struct Union<V> {
    alts: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> Union<V> {
    /// Builds a union; panics if `alts` is empty.
    pub fn new(alts: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(!alts.is_empty(), "prop_oneof! needs at least one alternative");
        Union { alts }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.alts.len() as u64) as usize;
        self.alts[i].generate(rng)
    }
}

/// Types with a full-domain default strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// The `any::<T>()` strategy.
#[derive(Clone, Debug, Default)]
pub struct Any<T>(PhantomData<T>);

/// Full-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (start as i128 + v as i128) as $t
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (0 S0)
    (0 S0, 1 S1)
    (0 S0, 1 S1, 2 S2)
    (0 S0, 1 S1, 2 S2, 3 S3)
    (0 S0, 1 S1, 2 S2, 3 S3, 4 S4)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds on generated collection sizes.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }
    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }
    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    /// Strategy for vectors of `element` with a size in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo + 1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies.
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy yielding `None` a quarter of the time, `Some` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    #[derive(Clone, Debug)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Regex-subset string strategy (for `&str` patterns)
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct PatternAtom {
    /// Candidate characters.
    chars: Vec<char>,
    /// Inclusive repetition bounds.
    lo: usize,
    hi: usize,
}

/// Characters matched by `.` in this shim (printable ASCII, whitespace, and
/// a couple of multi-byte characters so UTF-8 handling gets exercised).
fn dot_chars() -> Vec<char> {
    let mut cs: Vec<char> = (' '..='~').collect();
    cs.extend(['\n', '\t', 'é', 'λ', '\u{2028}']);
    cs
}

fn parse_class(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Vec<char> {
    let mut out = Vec::new();
    loop {
        let c = chars.next().expect("unterminated char class in pattern");
        match c {
            ']' => break,
            '\\' => {
                let e = chars.next().expect("dangling escape in char class");
                out.push(match e {
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    other => other,
                });
            }
            _ => {
                if chars.peek() == Some(&'-') {
                    let mut look = chars.clone();
                    look.next(); // consume '-'
                    match look.peek() {
                        Some(&']') | None => out.push(c),
                        Some(&hi) => {
                            chars.next();
                            chars.next();
                            for v in c..=hi {
                                out.push(v);
                            }
                        }
                    }
                } else {
                    out.push(c);
                }
            }
        }
    }
    assert!(!out.is_empty(), "empty char class in pattern");
    out
}

fn parse_repeat(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> (usize, usize) {
    if chars.peek() != Some(&'{') {
        return (1, 1);
    }
    chars.next();
    let mut spec = String::new();
    for c in chars.by_ref() {
        if c == '}' {
            break;
        }
        spec.push(c);
    }
    match spec.split_once(',') {
        Some((lo, hi)) => (
            lo.trim().parse().expect("bad repetition bound"),
            hi.trim().parse().expect("bad repetition bound"),
        ),
        None => {
            let n = spec.trim().parse().expect("bad repetition count");
            (n, n)
        }
    }
}

fn parse_pattern(pattern: &str) -> Vec<PatternAtom> {
    let mut atoms = Vec::new();
    let mut chars = pattern.chars().peekable();
    while let Some(c) = chars.next() {
        let set = match c {
            '.' => dot_chars(),
            '[' => parse_class(&mut chars),
            '\\' => {
                let e = chars.next().expect("dangling escape in pattern");
                vec![match e {
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    other => other,
                }]
            }
            other => vec![other],
        };
        let (lo, hi) = parse_repeat(&mut chars);
        atoms.push(PatternAtom { chars: set, lo, hi });
    }
    atoms
}

impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let atoms = parse_pattern(self);
        let mut out = String::new();
        for atom in &atoms {
            let span = (atom.hi - atom.lo + 1) as u64;
            let n = atom.lo + rng.below(span) as usize;
            for _ in 0..n {
                let i = rng.below(atom.chars.len() as u64) as usize;
                out.push(atom.chars[i]);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
macro_rules! __proptest_fns {
    (config = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
            for _case in 0..config.cases {
                $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)*
                $body
            }
        }
    )*};
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$( $crate::boxed($strat) ),+])
    };
}

/// Asserts inside a property test (no shrinking: panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// The common imports.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Any, Arbitrary, Just,
        ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_and_tuples() {
        let mut rng = crate::test_rng("ranges_and_tuples");
        for _ in 0..200 {
            let v = (1u32..5).generate(&mut rng);
            assert!((1..5).contains(&v));
            let (a, b) = ((0u8..3), any::<bool>()).generate(&mut rng);
            assert!(a < 3);
            let _: bool = b;
        }
    }

    #[test]
    fn vec_sizes_respected() {
        let mut rng = crate::test_rng("vec_sizes");
        for _ in 0..100 {
            let v = crate::collection::vec(any::<u8>(), 2..=5).generate(&mut rng);
            assert!((2..=5).contains(&v.len()));
            let w = crate::collection::vec(any::<u8>(), 4).generate(&mut rng);
            assert_eq!(w.len(), 4);
        }
    }

    #[test]
    fn pattern_strategy_matches_shape() {
        let mut rng = crate::test_rng("patterns");
        for _ in 0..100 {
            let s = "[a-z][a-z0-9_]{0,10}".generate(&mut rng);
            assert!(!s.is_empty() && s.len() <= 11, "{s:?}");
            assert!(s.chars().next().unwrap().is_ascii_lowercase());
            let t = "[ -~\\n]{0,40}".generate(&mut rng);
            assert!(t.chars().all(|c| (' '..='~').contains(&c) || c == '\n'));
        }
    }

    #[test]
    fn oneof_map_flatmap_compose() {
        let mut rng = crate::test_rng("compose");
        let strat = prop_oneof![
            (0u8..4).prop_map(|v| v as u32),
            Just(9u32),
            (1u8..3).prop_flat_map(|n| 0u32..(n as u32 + 1)),
        ];
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!(v < 4 || v == 9 || v < 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_form_runs((a, b) in (0u8..10, 0u8..10), flag in any::<bool>()) {
            prop_assert!(a < 10 && b < 10);
            if flag {
                prop_assert_eq!(a as u16 + b as u16, b as u16 + a as u16);
            }
        }
    }
}
