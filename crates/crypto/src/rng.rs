//! Fast deterministic PRNGs for the simulation hot path.
//!
//! The simulator originally derived every pseudo-random decision (loss
//! rolls) from a fresh SHA-256 compression via
//! [`crate::digest64`]. That is cryptographically gold-plated for what is
//! purely a *statistical* need, and it dominated the per-message cost of
//! the simulator. These generators keep the property that actually
//! matters — bit-exact determinism per seed — at a few arithmetic
//! instructions per draw instead of a hash compression.
//!
//! Seeding still goes through SHA-256 (`Xoshiro256StarStar::from_parts`):
//! one hash at construction buys domain-separated, well-mixed initial
//! states, so independent streams (each sender's loss sampling) never
//! correlate even for adjacent integer seeds.

use crate::sha256::Digest;

/// SplitMix64 (Steele, Lea, Flood 2014): the standard 64-bit state mixer.
///
/// The state expander for [`Xoshiro256StarStar`], and a cheap stream for
/// tests that need one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator starting from a raw 64-bit state.
    pub fn new(state: u64) -> SplitMix64 {
        SplitMix64 { state }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** 1.0 (Blackman, Vigna 2018): the all-purpose fast PRNG.
///
/// 256 bits of state, period 2^256 − 1, ~1 ns per draw. Used for each
/// sender's transmission-loss stream (`btr_net::Network`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seed from a full SHA-256 digest: the 32 digest bytes become the
    /// 256-bit state directly (big-endian words).
    pub(crate) fn from_digest(d: &Digest) -> Xoshiro256StarStar {
        let w = |i: usize| {
            u64::from_be_bytes([
                d.0[i],
                d.0[i + 1],
                d.0[i + 2],
                d.0[i + 3],
                d.0[i + 4],
                d.0[i + 5],
                d.0[i + 6],
                d.0[i + 7],
            ])
        };
        let mut s = [w(0), w(8), w(16), w(24)];
        if s == [0, 0, 0, 0] {
            // The all-zero state is the one invalid xoshiro state; a
            // SHA-256 output of all zeroes will not happen, but guard it.
            let mut sm = SplitMix64::new(0x5851_F42D_4C95_7F2D);
            s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        }
        Xoshiro256StarStar { s }
    }

    /// Seed by hashing the given parts (one SHA-256 at construction).
    pub fn from_parts(parts: &[&[u8]]) -> Xoshiro256StarStar {
        Self::from_digest(&crate::sha256_concat(parts))
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
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

    /// A uniform draw in `0..bound` (`bound > 0`); the modulo bias is
    /// below 2^-44 for the bounds the simulator uses (≤ 10^6).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference sequence for seed 1234567 (from the published
        // SplitMix64 algorithm).
        let mut r = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                6_457_827_717_110_365_317,
                3_203_168_211_198_807_973,
                9_817_491_932_198_370_423
            ]
        );
    }

    #[test]
    fn xoshiro_reference_vector() {
        // Reference: state {1,2,3,4} per the published xoshiro256**.
        let mut r = Xoshiro256StarStar { s: [1, 2, 3, 4] };
        let got: Vec<u64> = (0..5).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                11520,
                0,
                1_509_978_240,
                1_215_971_899_390_074_240,
                1_216_172_134_540_287_360
            ]
        );
    }

    #[test]
    fn seeding_is_deterministic_and_domain_separated() {
        let a1 = Xoshiro256StarStar::from_parts(&[b"loss", &7u64.to_be_bytes()]);
        let a2 = Xoshiro256StarStar::from_parts(&[b"loss", &7u64.to_be_bytes()]);
        assert_eq!(a1, a2);
        let b = Xoshiro256StarStar::from_parts(&[b"loss", &8u64.to_be_bytes()]);
        assert_ne!(a1, b);
        let c = Xoshiro256StarStar::from_parts(&[b"node", &7u64.to_be_bytes()]);
        assert_ne!(a1, c);
    }

    #[test]
    fn next_below_is_in_range() {
        let mut r = Xoshiro256StarStar::from_parts(&[b"range-test"]);
        for _ in 0..10_000 {
            assert!(r.next_below(1_000_000) < 1_000_000);
        }
    }

    #[test]
    fn streams_look_uniform_enough() {
        // Coarse sanity: over 100k draws of 0..1_000_000, the low decile
        // should hold roughly 10% of the mass.
        let mut r = Xoshiro256StarStar::from_parts(&[b"uniformity"]);
        let n = 100_000;
        let low = (0..n).filter(|_| r.next_below(1_000_000) < 100_000).count();
        let frac = low as f64 / n as f64;
        assert!((0.09..0.11).contains(&frac), "low-decile fraction {frac}");
    }
}
