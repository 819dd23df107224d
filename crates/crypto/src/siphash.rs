//! SipHash-2-4 with 128-bit output, implemented from scratch.
//!
//! SipHash (Aumasson & Bernstein, "SipHash: a fast short-input PRF") is a
//! keyed pseudo-random function designed for exactly the role the
//! simulator's authenticators play: short messages, a secret 128-bit key,
//! and an adversary who never sees the key. It is *not* a collision-
//! resistant hash and carries no public-verifiability story — which is
//! fine here, because the keystore substitution already reduces
//! verification to a shared-key MAC check (see DESIGN.md
//! "Substitutions"). Against the simulated adversary a 128-bit SipHash
//! tag gives the same can't-forge-other-nodes property as HMAC-SHA-256
//! at a small fraction of the per-message cost: two rounds per 8-byte
//! word plus four finalization rounds, versus at least two full SHA-256
//! compressions.
//!
//! The streaming interface mirrors `HmacState` so the
//! signing layer can absorb multi-part canonical encodings without
//! concatenating them first.

const C_ROUNDS: usize = 2;
const D_ROUNDS: usize = 4;

#[inline(always)]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

#[inline(always)]
fn rounds(v: &mut [u64; 4], n: usize) {
    for _ in 0..n {
        sipround(v);
    }
}

/// A secret 128-bit SipHash key.
///
/// Holds the four initialization words precomputed for the 128-bit
/// output variant, so starting a MAC is four register copies — the
/// key-schedule analogue of the HMAC midstate cache.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SipKey {
    /// Initial state (key XOR constants, 128-bit variant's `v1 ^= 0xee`
    /// already applied).
    v0: [u64; 4],
}

impl std::fmt::Debug for SipKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("SipKey(..)")
    }
}

impl SipKey {
    /// Derive a SipHash key from 16 key bytes.
    pub fn new(key: &[u8; 16]) -> SipKey {
        let k0 = u64::from_le_bytes(key[0..8].try_into().expect("8 bytes"));
        let k1 = u64::from_le_bytes(key[8..16].try_into().expect("8 bytes"));
        let mut v = [
            k0 ^ 0x736f_6d65_7073_6575,
            k1 ^ 0x646f_7261_6e64_6f6d,
            k0 ^ 0x6c79_6765_6e65_7261,
            k1 ^ 0x7465_6462_7974_6573,
        ];
        // 128-bit output variant.
        v[1] ^= 0xee;
        SipKey { v0: v }
    }

    /// Begin a streaming MAC over message parts fed via
    /// [`SipState::update`].
    #[inline]
    pub fn begin(&self) -> SipState {
        SipState {
            v: self.v0,
            buf: [0u8; 8],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Compute the 128-bit tag over a list of message parts (equivalent
    /// to the tag over their concatenation).
    pub fn mac_parts(&self, parts: &[&[u8]]) -> [u8; 16] {
        let mut st = self.begin();
        for p in parts {
            st.update(p);
        }
        st.finish()
    }

    /// Compute the 128-bit tag over a single message slice.
    pub fn mac(&self, msg: &[u8]) -> [u8; 16] {
        self.mac_parts(&[msg])
    }
}

/// An in-progress streaming SipHash-2-4-128 computation.
#[derive(Clone)]
pub struct SipState {
    v: [u64; 4],
    /// Bytes buffered until a full 8-byte word is available.
    buf: [u8; 8],
    buf_len: usize,
    /// Total message length in bytes (the low byte is folded into the
    /// final word, per the spec).
    total_len: u64,
}

impl std::fmt::Debug for SipState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SipState(..)")
    }
}

impl SipState {
    #[inline(always)]
    fn compress_word(&mut self, m: u64) {
        self.v[3] ^= m;
        rounds(&mut self.v, C_ROUNDS);
        self.v[0] ^= m;
    }

    /// Absorb more message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        // Fill the partial word first.
        if self.buf_len > 0 {
            let need = 8 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 8 {
                let m = u64::from_le_bytes(self.buf);
                self.compress_word(m);
                self.buf_len = 0;
            }
        }
        // Whole words straight from the input.
        while data.len() >= 8 {
            let (word, rest) = data.split_at(8);
            let m = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            self.compress_word(m);
            data = rest;
        }
        // Stash the tail.
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finish and produce the 128-bit tag.
    #[inline]
    pub fn finalize(mut self) -> [u8; 16] {
        self.finish()
    }

    /// The body of [`SipState::finalize`], by reference; the state is
    /// spent afterwards. [`SipKey::mac_parts`] calls this directly: moving
    /// the state into an out-of-line `finalize(self)` passes the address
    /// of a copy, and whether the optimizer could drop that 56-byte copy
    /// turned on which codegen unit `update` landed in — 3–4 % of a
    /// SipHash-signed delivery, moved by edits nowhere near this file.
    fn finish(&mut self) -> [u8; 16] {
        // Final word: message length (mod 256) in the top byte, the
        // remaining 0..=7 tail bytes little-endian below it.
        let mut last = [0u8; 8];
        last[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        last[7] = self.total_len as u8;
        // A 7-byte tail would collide with the length byte; the spec's
        // layout guarantees it cannot: buf_len < 8 and byte 7 is always
        // the length.
        debug_assert!(self.buf_len < 8);
        let m = u64::from_le_bytes(last);
        self.compress_word(m);

        self.v[2] ^= 0xee;
        rounds(&mut self.v, D_ROUNDS);
        let lo = self.v[0] ^ self.v[1] ^ self.v[2] ^ self.v[3];
        self.v[1] ^= 0xdd;
        rounds(&mut self.v, D_ROUNDS);
        let hi = self.v[0] ^ self.v[1] ^ self.v[2] ^ self.v[3];

        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&lo.to_le_bytes());
        out[8..].copy_from_slice(&hi.to_le_bytes());
        out
    }
}

/// One-shot SipHash-2-4 with the classic 64-bit output.
///
/// Kept alongside the 128-bit variant because the two share every moving
/// part except initialization and finalization constants: the reference
/// 64-bit test vectors therefore cross-check the word-absorption path
/// that the 128-bit vectors alone would leave uncovered.
pub fn siphash24_64(key: &[u8; 16], msg: &[u8]) -> u64 {
    let k0 = u64::from_le_bytes(key[0..8].try_into().expect("8 bytes"));
    let k1 = u64::from_le_bytes(key[8..16].try_into().expect("8 bytes"));
    let mut v = [
        k0 ^ 0x736f_6d65_7073_6575,
        k1 ^ 0x646f_7261_6e64_6f6d,
        k0 ^ 0x6c79_6765_6e65_7261,
        k1 ^ 0x7465_6462_7974_6573,
    ];
    let mut chunks = msg.chunks_exact(8);
    for word in &mut chunks {
        let m = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        v[3] ^= m;
        rounds(&mut v, C_ROUNDS);
        v[0] ^= m;
    }
    let tail = chunks.remainder();
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    last[7] = msg.len() as u8;
    let m = u64::from_le_bytes(last);
    v[3] ^= m;
    rounds(&mut v, C_ROUNDS);
    v[0] ^= m;

    v[2] ^= 0xff;
    rounds(&mut v, D_ROUNDS);
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference key 000102…0f and messages 00, 0001, 000102, …
    fn ref_key() -> [u8; 16] {
        let mut k = [0u8; 16];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    fn ref_msg(len: usize) -> Vec<u8> {
        (0..len as u8).collect()
    }

    fn hex(tag: &[u8]) -> String {
        tag.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Official `vectors_sip128` entries from the SipHash reference
    /// implementation (key 000102…0f, message 00 01 02 …).
    #[test]
    fn reference_vectors_128() {
        let key = SipKey::new(&ref_key());
        let cases: &[(usize, &str)] = &[
            (0, "a3817f04ba25a8e66df67214c7550293"),
            (1, "da87c1d86b99af44347659119b22fc45"),
            (2, "8177228da4a45dc7fca38bdef60affe4"),
        ];
        for (len, expect) in cases {
            let tag = key.mac(&ref_msg(*len));
            assert_eq!(hex(&tag), *expect, "length {len}");
        }
    }

    /// Official `vectors_sip64` entries: these exercise the whole-word
    /// absorption path (len 8, 9) the short 128-bit vectors above skip.
    #[test]
    fn reference_vectors_64() {
        let cases: &[(usize, u64)] = &[
            (0, 0x726f_db47_dd0e_0e31),
            (1, 0x74f8_39c5_93dc_67fd),
            (8, 0x93f5_f579_9a93_2462),
        ];
        for (len, expect) in cases {
            let got = siphash24_64(&ref_key(), &ref_msg(*len));
            assert_eq!(got, *expect, "length {len}");
        }
    }

    #[test]
    fn mac_parts_equals_concat() {
        let k = SipKey::new(&ref_key());
        assert_eq!(
            k.mac_parts(&[b"ab", b"cdefghij", b""]),
            k.mac(b"abcdefghij")
        );
    }

    #[test]
    fn debug_hides_key() {
        let k = SipKey::new(&ref_key());
        assert_eq!(format!("{k:?}"), "SipKey(..)");
        assert_eq!(format!("{:?}", k.begin()), "SipState(..)");
    }

    proptest! {
        /// Streaming with arbitrary split points matches one-shot.
        #[test]
        fn prop_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..128),
                                           split in 0usize..128) {
            let split = split.min(data.len());
            let k = SipKey::new(&ref_key());
            let mut st = k.begin();
            st.update(&data[..split]);
            st.update(&data[split..]);
            prop_assert_eq!(st.finalize(), k.mac(&data));
        }

        /// Different keys give different tags for the same message.
        #[test]
        fn prop_key_separation(k1 in proptest::collection::vec(any::<u8>(), 16..=16),
                               k2 in proptest::collection::vec(any::<u8>(), 16..=16),
                               msg in proptest::collection::vec(any::<u8>(), 0..64)) {
            prop_assume!(k1 != k2);
            let k1: [u8; 16] = k1.try_into().expect("16 bytes");
            let k2: [u8; 16] = k2.try_into().expect("16 bytes");
            prop_assert_ne!(SipKey::new(&k1).mac(&msg), SipKey::new(&k2).mac(&msg));
        }

        /// Distinct short messages essentially never collide.
        #[test]
        fn prop_no_trivial_collisions(a in proptest::collection::vec(any::<u8>(), 0..32),
                                      b in proptest::collection::vec(any::<u8>(), 0..32)) {
            prop_assume!(a != b);
            let k = SipKey::new(&ref_key());
            prop_assert_ne!(k.mac(&a), k.mac(&b));
        }
    }
}
