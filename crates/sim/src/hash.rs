//! A fast, deterministic hasher for the simulator's hot-path maps.
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
}
