//! Deterministic random-number generation for reproducible experiments.
//!
//! Every workload generator and randomized test in the workspace draws from
//! [`SimRng`], which is seeded explicitly so a given experiment configuration
//! always produces the identical instruction stream and dataset.
//!
//! The generator is implemented in-tree (no external crates) so the whole
//! workspace builds and tests hermetically: a splitmix64 seed expander feeds
//! a xoshiro256** core — the same construction `rand`'s `SmallRng` family
//! uses, with well-studied statistical quality and a 2^256-1 period. The
//! output sequence for a given seed is part of the crate's contract (see the
//! golden-sequence regression test below): workload generation must stay
//! bit-identical across refactors, or every recorded experiment changes.

/// One step of the splitmix64 sequence; used to expand a 64-bit seed into
/// the 256-bit xoshiro state (the initialization recommended by the
/// xoshiro authors, which guarantees a non-zero state for every seed).
/// [`crate::hash::Digest`] finalizes with the same scramble.
#[inline]
#[must_use]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small, fast, deterministic RNG wrapper.
///
/// # Example
///
/// ```
/// use maple_sim::rng::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    #[must_use]
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit value (xoshiro256** scrambler).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`, bias-free (rejection sampling on the
    /// largest multiple of `bound` that fits in 64 bits).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a positive bound");
        // Accept v in [0, 2^64 - 2^64 mod bound): an exact multiple of
        // `bound`, so `v % bound` is uniform. Rejection is rare for any
        // bound far from 2^64.
        let reject = (u64::MAX % bound + 1) % bound;
        let zone = u64::MAX - reject;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range() requires lo < hi");
        lo + self.below(hi - lo)
    }

    /// Uniform `f64` in `[0, 1)` (53 high bits of the output, the standard
    /// mantissa-filling construction).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// The output sequence is a compatibility contract: workload
    /// generation (datasets, traffic, test inputs) must be bit-identical
    /// across refactors so recorded experiments and printed failure seeds
    /// stay reproducible. If this test ever fails, the RNG changed — do
    /// not update the constants without bumping every recorded result.
    #[test]
    fn golden_sequences_are_pinned() {
        let golden: [(u64, [u64; 16]); 3] = [
            (0, GOLDEN_SEED_0),
            (42, GOLDEN_SEED_42),
            (0xDEAD_BEEF, GOLDEN_SEED_DEADBEEF),
        ];
        for (seed, expect) in golden {
            let mut r = SimRng::seed(seed);
            let got: Vec<u64> = (0..16).map(|_| r.next_u64()).collect();
            assert_eq!(got, expect, "sequence drifted for seed {seed}");
        }
    }

    /// First 16 outputs for seed 0.
    const GOLDEN_SEED_0: [u64; 16] = [
        0x99EC_5F36_CB75_F2B4,
        0xBF6E_1F78_4956_452A,
        0x1A5F_849D_4933_E6E0,
        0x6AA5_94F1_262D_2D2C,
        0xBBA5_AD4A_1F84_2E59,
        0xFFEF_8375_D9EB_CACA,
        0x6C16_0DEE_D2F5_4C98,
        0x8920_AD64_8FC3_0A3F,
        0xDB03_2C0B_A753_9731,
        0xEB3A_475A_3E74_9A3D,
        0x1D42_993F_A43F_2A54,
        0x1136_1BF5_26A1_4BB5,
        0x1B4F_07A5_AB3D_8E9C,
        0xA7A3_257F_6986_DB7F,
        0x7EFD_AA95_605D_FC9C,
        0x4BDE_97C0_A78E_AAB8,
    ];

    /// First 16 outputs for seed 42.
    const GOLDEN_SEED_42: [u64; 16] = [
        0x1578_0B2E_0C2E_C716,
        0x6104_D986_6D11_3A7E,
        0xAE17_5332_39E4_99A1,
        0xECB8_AD47_03B3_60A1,
        0xFDE6_DC7F_E2EC_5E64,
        0xC50D_A531_0179_5238,
        0xB821_5485_5A65_DDB2,
        0xD99A_2743_EBE6_0087,
        0xC2E9_6E72_6E97_647E,
        0x9556_615F_775F_BC3D,
        0xAEB5_3B34_0C10_3971,
        0x4A69_DB98_73AF_8965,
        0xCD0F_EDA9_3006_C6B6,
        0x5248_0865_A4B4_2742,
        0xB60D_EC3B_F2D8_87CD,
        0xE0B5_5A68_B966_77FA,
    ];

    /// First 16 outputs for seed 0xDEAD_BEEF.
    const GOLDEN_SEED_DEADBEEF: [u64; 16] = [
        0xC555_5444_A74D_7E83,
        0x65C3_0D37_B4B1_6E38,
        0x54F7_7320_0A4E_FA23,
        0x429A_ED75_FB95_8AF7,
        0xFB0E_1DD6_9C25_5B2E,
        0x9D6D_02EC_5881_4A27,
        0xF419_9B9D_A2E4_B2A3,
        0x54BC_5B2C_11A4_540A,
        0xE85B_77DF_60AF_CA9B,
        0xA8B8_BA7E_A743_19BE,
        0x6345_0B50_B593_06C6,
        0x7200_F11C_574C_1433,
        0xAFF6_2560_4F16_B53B,
        0x0341_C563_213F_E478,
        0xA4B9_B941_5211_D8D4,
        0x80F7_CFC2_60A8_6FA9,
    ];

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 32);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::seed(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        // 10k draws over 8 buckets: every bucket within ±25% of the mean.
        let mut r = SimRng::seed(9);
        let mut counts = [0u32; 8];
        for _ in 0..10_000 {
            counts[r.below(8) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((937..=1562).contains(&c), "bucket {i} skewed: {c}");
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = SimRng::seed(4);
        for _ in 0..1000 {
            let v = r.range(5, 15);
            assert!((5..15).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn below_zero_panics() {
        SimRng::seed(0).below(0);
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = SimRng::seed(5);
        for _ in 0..1000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed(6);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(8);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0 + 1e-9));
    }

    #[test]
    fn seed_zero_has_nonzero_state() {
        // xoshiro256** is degenerate on the all-zero state; splitmix64
        // expansion must never produce it.
        let r = SimRng::seed(0);
        assert_ne!(r.s, [0; 4]);
        let mut r = r;
        let distinct: std::collections::BTreeSet<u64> = (0..64).map(|_| r.next_u64()).collect();
        assert!(distinct.len() > 60, "seed 0 stream looks stuck");
    }
}
