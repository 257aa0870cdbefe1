//! In-tree content digest: an FNV-1a accumulator with a splitmix64
//! finalizer.
//!
//! The `metrics digest` lines of the serve and scale gates are committed
//! goldens, so a digest must be (a) a pure function of what it is fed and
//! (b) stable across runs, platforms and worker counts — which rules out
//! `std::hash` (`RandomState` is seeded per process) and any derive-based
//! hashing of types we do not own. A [`Digest`] is fed explicit, typed
//! fields in a fixed order; variable-length fields are length-prefixed so
//! adjacent fields can never alias (`("ab","c")` vs `("a","bc")`).
//!
//! FNV-1a mixes each byte cheaply; the splitmix64 finalizer scrambles the
//! final state so that near-identical inputs (e.g. one counter bumped by
//! one) land far apart in key space.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The splitmix64 output scramble (also used by `maple-sim`'s PRNG
/// seeding); a bijection on `u64`, so it loses no key entropy.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A streaming content digest over explicitly-fed, typed fields.
///
/// ```
/// use maple_fleet::digest::Digest;
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
    /// Starts a digest under the given schema version. Bumping the schema
    /// invalidates every key derived under the old one.
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
        splitmix64(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn f64_is_bit_exact() {
        let a = Digest::new(0).f64(0.0).finish();
        let b = Digest::new(0).f64(-0.0).finish();
        assert_ne!(a, b, "negative zero is a distinct descriptor");
    }
}
