//! Deterministic hashing: a fast hasher for the simulator's hot-path
//! maps and a stable content digest for committed gate output.
//!
//! The standard library's `RandomState` (SipHash-1-3) resists hash
//! flooding, which a simulator keyed by its own transaction ids and
//! physical frame numbers has no need for — yet it runs on every
//! simulated memory access. [`FxHasher`] is the multiply-rotate hash
//! rustc uses for its own tables: one rotate, xor and multiply per word.
//!
//! No simulator code iterates these maps in an order-sensitive way
//! (`RandomState` already varied the order between processes), so the
//! swap changes host speed only.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier from rustc's `FxHasher` (an odd constant with good bit
/// dispersion).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate word hasher (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`]; build one with
/// `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// A streaming content digest over explicitly-fed, typed fields.
///
/// The `metrics digest` lines of the serve and scale gates are committed
/// goldens, so a digest must be stable across runs, platforms and worker
/// counts, which rules out `std::hash` (`RandomState` is seeded per
/// process). Fields go in a fixed order; variable-length ones are
/// length-prefixed so adjacent fields never alias (`("ab","c")` vs
/// `("a","bc")`). FNV-1a mixes each byte; a splitmix64 finalizer spreads
/// near-identical inputs far apart.
///
/// ```
/// use maple_sim::hash::Digest;
/// let mut d = Digest::new(1); // schema version 1
/// d.str("spmv").str("riscv-s").u64(2);
/// let key = d.finish();
/// assert_ne!(key, Digest::new(2).str("spmv").str("riscv-s").u64(2).finish());
/// ```
#[derive(Debug, Clone)]
pub struct Digest {
    state: u64,
}

impl Digest {
    /// Starts a digest under the given schema version.
    #[must_use]
    pub fn new(schema: u64) -> Self {
        let mut d = Digest { state: FNV_OFFSET };
        d.u64(schema);
        d
    }

    /// Feeds raw bytes (no length prefix — use [`Digest::str`] for
    /// variable-length fields).
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds a `u64` as eight little-endian bytes.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Feeds a `usize` (widened to `u64` so 32- and 64-bit hosts agree).
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Feeds an `f64` by its IEEE-754 bit pattern (bit-exact, including
    /// negative zero and NaN payloads).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Feeds a string, length-prefixed so field boundaries are
    /// unambiguous.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.usize(s.len());
        self.bytes(s.as_bytes())
    }

    /// The final key: the FNV state scrambled through splitmix64.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut state = self.state;
        crate::rng::splitmix64(&mut state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        assert_eq!(hash(42u64), hash(42u64));
        assert_ne!(hash(1u64), hash(2u64));
        assert_ne!(hash((1u16, 2u64)), hash((2u16, 1u64)));
    }

    #[test]
    fn map_round_trips_sequential_keys() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for k in 0..10_000u64 {
            m.insert(k, k * 3);
        }
        assert!((0..10_000u64).all(|k| m[&k] == k * 3));
    }

    #[test]
    fn digest_is_deterministic() {
        let key = |schema| Digest::new(schema).str("spmv").u64(2).f64(0.5).finish();
        assert_eq!(key(1), key(1));
        assert_ne!(key(1), key(2), "schema version participates");
    }

    #[test]
    fn length_prefix_prevents_field_aliasing() {
        let a = Digest::new(0).str("ab").str("c").finish();
        let b = Digest::new(0).str("a").str("bc").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn single_bit_field_changes_move_the_key() {
        let base = Digest::new(0).u64(300).finish();
        let bumped = Digest::new(0).u64(301).finish();
        assert_ne!(base, bumped);
        // The scramble spreads the difference across the word.
        assert!((base ^ bumped).count_ones() > 8);
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // First output of the canonical splitmix64 with seed 0.
        assert_eq!(crate::rng::splitmix64(&mut 0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn f64_is_bit_exact() {
        let a = Digest::new(0).f64(0.0).finish();
        let b = Digest::new(0).f64(-0.0).finish();
        assert_ne!(a, b, "negative zero is a distinct descriptor");
    }
}
