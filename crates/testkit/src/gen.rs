//! Generators: seeded random construction plus shrinking.
//!
//! A [`Gen`] produces values from a [`SimRng`] and, given a failing value,
//! proposes a list of *simpler* candidate values ([`Gen::shrink`]). The
//! runner tries candidates in order and greedily descends into the first
//! one that still fails, so candidate lists should be ordered from most
//! aggressive (smallest) to least.
//!
//! Combinators shrink where an inverse is known: integers shrink toward
//! their lower bound (or zero) by halving, vectors shrink by removing
//! chunks and by shrinking individual elements, tuples shrink per
//! component, [`choice`] shrinks toward earlier alternatives. [`map`] and
//! [`from_fn`] cannot shrink — when shrinking matters for a composite
//! type, implement [`Gen`] directly (see the workspace's ported property
//! suites for examples) and reuse the [`shrink_u64`]/[`shrink_i64_toward`]
//! helpers.

use maple_sim::rng::SimRng;
use std::fmt::Debug;
use std::ops::Range;

/// A value generator with shrinking.
pub trait Gen {
    /// The generated type.
    type Value: Debug + Clone;

    /// Produces one value from the seeded RNG.
    fn generate(&self, rng: &mut SimRng) -> Self::Value;

    /// Proposes simpler variants of a failing value, most aggressive
    /// first. The default proposes nothing (no shrinking).
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

impl<G: Gen + ?Sized> Gen for &G {
    type Value = G::Value;
    fn generate(&self, rng: &mut SimRng) -> Self::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

impl<G: Gen + ?Sized> Gen for Box<G> {
    type Value = G::Value;
    fn generate(&self, rng: &mut SimRng) -> Self::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

/// Halving ladder from `v` toward `lo`, most aggressive first.
#[must_use]
pub fn shrink_u64_toward(v: u64, lo: u64) -> Vec<u64> {
    if v <= lo {
        return Vec::new();
    }
    let mut out = vec![lo];
    let mut delta = (v - lo) / 2;
    while delta > 0 {
        let cand = v - delta;
        if cand != lo && out.last() != Some(&cand) {
            out.push(cand);
        }
        delta /= 2;
    }
    out.dedup();
    out
}

/// Halving ladder from `v` toward zero.
#[must_use]
pub fn shrink_u64(v: u64) -> Vec<u64> {
    shrink_u64_toward(v, 0)
}

/// Halving ladder from `v` toward `target` (for signed values, usually 0).
#[must_use]
pub fn shrink_i64_toward(v: i64, target: i64) -> Vec<i64> {
    if v == target {
        return Vec::new();
    }
    let mut out = vec![target];
    let mut delta = (v - target) / 2;
    while delta != 0 {
        let cand = v - delta;
        if cand != target && out.last() != Some(&cand) {
            out.push(cand);
        }
        delta /= 2;
    }
    out.dedup();
    out
}

/// Uniform integer in a half-open range, shrinking toward the lower bound.
#[derive(Debug, Clone)]
pub struct UintGen {
    lo: u64,
    hi: u64,
}

impl Gen for UintGen {
    type Value = u64;
    fn generate(&self, rng: &mut SimRng) -> u64 {
        rng.range(self.lo, self.hi)
    }
    fn shrink(&self, value: &u64) -> Vec<u64> {
        shrink_u64_toward(*value, self.lo)
    }
}

/// Uniform `u64` in `[range.start, range.end)`, shrinking toward the
/// lower bound.
///
/// # Panics
///
/// Panics if the range is empty.
#[must_use]
pub fn u64_in(range: Range<u64>) -> UintGen {
    assert!(range.start < range.end, "u64_in requires a non-empty range");
    UintGen {
        lo: range.start,
        hi: range.end,
    }
}

/// Uniform `u64` over the full domain.
#[must_use]
pub fn u64_any() -> impl Gen<Value = u64> {
    struct AnyU64;
    impl Gen for AnyU64 {
        type Value = u64;
        fn generate(&self, rng: &mut SimRng) -> u64 {
            rng.next_u64()
        }
        fn shrink(&self, value: &u64) -> Vec<u64> {
            shrink_u64(*value)
        }
    }
    AnyU64
}

macro_rules! narrow_uint_gen {
    ($fname:ident, $ty:ty, $doc:literal) => {
        #[doc = $doc]
        ///
        /// # Panics
        ///
        /// Panics if the range is empty.
        #[must_use]
        pub fn $fname(range: Range<$ty>) -> impl Gen<Value = $ty> {
            struct Narrow(UintGen);
            impl Gen for Narrow {
                type Value = $ty;
                fn generate(&self, rng: &mut SimRng) -> $ty {
                    self.0.generate(rng) as $ty
                }
                fn shrink(&self, value: &$ty) -> Vec<$ty> {
                    self.0
                        .shrink(&(*value as u64))
                        .into_iter()
                        .map(|v| v as $ty)
                        .collect()
                }
            }
            assert!(range.start < range.end, "empty range");
            Narrow(UintGen {
                lo: range.start as u64,
                hi: range.end as u64,
            })
        }
    };
}

narrow_uint_gen!(
    u8_in,
    u8,
    "Uniform `u8` in a half-open range, shrinking toward the lower bound."
);
narrow_uint_gen!(
    u32_in,
    u32,
    "Uniform `u32` in a half-open range, shrinking toward the lower bound."
);
narrow_uint_gen!(
    usize_in,
    usize,
    "Uniform `usize` in a half-open range, shrinking toward the lower bound."
);

/// Uniform `i64` in `[range.start, range.end)`, shrinking toward zero
/// when the range contains it (toward the bound closest to zero
/// otherwise).
///
/// # Panics
///
/// Panics if the range is empty.
#[must_use]
pub fn i64_in(range: Range<i64>) -> impl Gen<Value = i64> {
    struct IntGen {
        lo: i64,
        hi: i64,
    }
    impl Gen for IntGen {
        type Value = i64;
        fn generate(&self, rng: &mut SimRng) -> i64 {
            let width = self.hi.wrapping_sub(self.lo) as u64;
            self.lo.wrapping_add(rng.below(width) as i64)
        }
        fn shrink(&self, value: &i64) -> Vec<i64> {
            let target = 0i64.clamp(self.lo, self.hi - 1);
            shrink_i64_toward(*value, target)
        }
    }
    assert!(range.start < range.end, "i64_in requires a non-empty range");
    IntGen {
        lo: range.start,
        hi: range.end,
    }
}

/// Fair coin, shrinking `true` to `false`.
#[must_use]
pub fn bools() -> impl Gen<Value = bool> {
    struct BoolGen;
    impl Gen for BoolGen {
        type Value = bool;
        fn generate(&self, rng: &mut SimRng) -> bool {
            rng.below(2) == 1
        }
        fn shrink(&self, value: &bool) -> Vec<bool> {
            if *value {
                vec![false]
            } else {
                Vec::new()
            }
        }
    }
    BoolGen
}

/// The constant generator: always `value`, never shrinks.
#[must_use]
pub fn just<T: Debug + Clone>(value: T) -> impl Gen<Value = T> {
    struct Just<T>(T);
    impl<T: Debug + Clone> Gen for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut SimRng) -> T {
            self.0.clone()
        }
    }
    Just(value)
}

/// Uniform pick from a fixed list, shrinking toward earlier entries
/// (order the list simplest-first).
///
/// # Panics
///
/// Panics if `items` is empty.
#[must_use]
pub fn choice<T: Debug + Clone + PartialEq>(items: Vec<T>) -> impl Gen<Value = T> {
    struct Choice<T>(Vec<T>);
    impl<T: Debug + Clone + PartialEq> Gen for Choice<T> {
        type Value = T;
        fn generate(&self, rng: &mut SimRng) -> T {
            self.0[rng.below(self.0.len() as u64) as usize].clone()
        }
        fn shrink(&self, value: &T) -> Vec<T> {
            match self.0.iter().position(|x| x == value) {
                Some(pos) => self.0[..pos].to_vec(),
                None => Vec::new(),
            }
        }
    }
    assert!(!items.is_empty(), "choice requires at least one item");
    Choice(items)
}

/// A generator from a plain closure; no shrinking.
#[must_use]
pub fn from_fn<T, F>(f: F) -> impl Gen<Value = T>
where
    T: Debug + Clone,
    F: Fn(&mut SimRng) -> T,
{
    struct FromFn<F>(F);
    impl<T: Debug + Clone, F: Fn(&mut SimRng) -> T> Gen for FromFn<F> {
        type Value = T;
        fn generate(&self, rng: &mut SimRng) -> T {
            (self.0)(rng)
        }
    }
    FromFn(f)
}

/// Applies `f` to generated values. The mapping is not invertible, so the
/// result does not shrink — implement [`Gen`] directly when shrinking of
/// the mapped type matters.
#[must_use]
pub fn map<G, T, F>(inner: G, f: F) -> impl Gen<Value = T>
where
    G: Gen,
    T: Debug + Clone,
    F: Fn(G::Value) -> T,
{
    struct Map<G, F>(G, F);
    impl<G: Gen, T: Debug + Clone, F: Fn(G::Value) -> T> Gen for Map<G, F> {
        type Value = T;
        fn generate(&self, rng: &mut SimRng) -> T {
            (self.1)(self.0.generate(rng))
        }
    }
    Map(inner, f)
}

/// Boxes a generator for use in heterogeneous lists ([`one_of`]).
#[must_use]
pub fn boxed<G>(g: G) -> Box<dyn Gen<Value = G::Value>>
where
    G: Gen + 'static,
{
    Box::new(g)
}

/// Picks uniformly among alternative generators of the same value type.
/// Shrink candidates are pooled from every arm (a candidate only
/// survives if the property still fails on it, so arms may propose
/// values they could not have produced).
///
/// # Panics
///
/// Panics if `arms` is empty.
#[must_use]
pub fn one_of<T: Debug + Clone>(arms: Vec<Box<dyn Gen<Value = T>>>) -> impl Gen<Value = T> {
    struct OneOf<T>(Vec<Box<dyn Gen<Value = T>>>);
    impl<T: Debug + Clone> Gen for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut SimRng) -> T {
            let arm = rng.below(self.0.len() as u64) as usize;
            self.0[arm].generate(rng)
        }
        fn shrink(&self, value: &T) -> Vec<T> {
            self.0.iter().flat_map(|arm| arm.shrink(value)).collect()
        }
    }
    assert!(!arms.is_empty(), "one_of requires at least one arm");
    OneOf(arms)
}

/// Vector generator: length uniform in `[min_len, max_len]`, elements
/// from `elem`. Shrinks by removing chunks (halves down to single
/// elements, from several positions) and by shrinking individual
/// elements in place.
#[derive(Debug, Clone)]
pub struct VecGen<G> {
    elem: G,
    min_len: usize,
    max_len: usize,
}

/// Builds a [`VecGen`]; bounds are inclusive.
///
/// # Panics
///
/// Panics if `min_len > max_len`.
#[must_use]
pub fn vec_of<G: Gen>(elem: G, min_len: usize, max_len: usize) -> VecGen<G> {
    assert!(min_len <= max_len, "vec_of requires min_len <= max_len");
    VecGen {
        elem,
        min_len,
        max_len,
    }
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut SimRng) -> Vec<G::Value> {
        let span = (self.max_len - self.min_len) as u64 + 1;
        let len = self.min_len + rng.below(span) as usize;
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let n = value.len();
        let mut out = Vec::new();
        // Structural shrinks: drop chunks, biggest first.
        let mut chunk = n.saturating_sub(self.min_len);
        while chunk > 0 {
            let positions = [0, (n - chunk) / 2, n - chunk];
            let mut last = usize::MAX;
            for &start in &positions {
                if start == last {
                    continue;
                }
                last = start;
                let mut cand = Vec::with_capacity(n - chunk);
                cand.extend_from_slice(&value[..start]);
                cand.extend_from_slice(&value[start + chunk..]);
                out.push(cand);
            }
            chunk /= 2;
        }
        // Element shrinks: a few candidates per position.
        for i in 0..n {
            for ev in self.elem.shrink(&value[i]).into_iter().take(3) {
                let mut cand = value.clone();
                cand[i] = ev;
                out.push(cand);
            }
        }
        out
    }
}

macro_rules! tuple_gen {
    ($($g:ident : $v:ident : $idx:tt),+) => {
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);

            fn generate(&self, rng: &mut SimRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut next = value.clone();
                        next.$idx = cand;
                        out.push(next);
                    }
                )+
                out
            }
        }
    };
}

tuple_gen!(A: a: 0, B: b: 1);
tuple_gen!(A: a: 0, B: b: 1, C: c: 2);
tuple_gen!(A: a: 0, B: b: 1, C: c: 2, D: d: 3);
tuple_gen!(A: a: 0, B: b: 1, C: c: 2, D: d: 3, E: e: 4);
tuple_gen!(A: a: 0, B: b: 1, C: c: 2, D: d: 3, E: e: 4, F: f: 5);

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed(0xC0FFEE)
    }

    #[test]
    fn uint_respects_bounds_and_shrinks_toward_lo() {
        let g = u64_in(5..20);
        let mut r = rng();
        for _ in 0..500 {
            let v = g.generate(&mut r);
            assert!((5..20).contains(&v));
        }
        let cands = g.shrink(&19);
        assert!(cands.contains(&5), "lower bound proposed first");
        assert!(cands.iter().all(|&c| (5..19).contains(&c)));
        assert!(g.shrink(&5).is_empty(), "minimum does not shrink");
    }

    #[test]
    fn i64_shrinks_toward_zero() {
        let g = i64_in(-64..64);
        assert!(g.shrink(&-37).contains(&0));
        assert!(g.shrink(&0).is_empty());
        let positive = i64_in(10..20);
        assert!(positive.shrink(&19).contains(&10));
    }

    #[test]
    fn vec_len_bounds_hold() {
        let g = vec_of(u64_in(0..10), 2, 6);
        let mut r = rng();
        for _ in 0..300 {
            let v = g.generate(&mut r);
            assert!((2..=6).contains(&v.len()));
        }
    }

    #[test]
    fn vec_shrink_never_violates_min_len() {
        let g = vec_of(u64_in(0..10), 2, 8);
        let v = vec![9, 9, 9, 9, 9, 9];
        for cand in g.shrink(&v) {
            assert!(cand.len() >= 2, "candidate too short: {cand:?}");
        }
        // And chunk removal really is proposed.
        assert!(g.shrink(&v).iter().any(|c| c.len() < v.len()));
    }

    #[test]
    fn choice_shrinks_to_earlier_entries() {
        let g = choice(vec!["a", "b", "c"]);
        assert_eq!(g.shrink(&"c"), vec!["a", "b"]);
        assert!(g.shrink(&"a").is_empty());
    }

    #[test]
    fn tuple_shrinks_componentwise() {
        let g = (u64_in(0..100), bools());
        let cands = g.shrink(&(50, true));
        assert!(cands.contains(&(0, true)));
        assert!(cands.contains(&(50, false)));
    }

    #[test]
    fn one_of_pools_arm_shrinks() {
        let g = one_of(vec![boxed(u64_in(0..10)), boxed(u64_in(0..100))]);
        let cands = g.shrink(&50);
        assert!(cands.contains(&0));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = vec_of(u64_any(), 0, 32);
        let a = g.generate(&mut SimRng::seed(77));
        let b = g.generate(&mut SimRng::seed(77));
        assert_eq!(a, b);
    }
}
