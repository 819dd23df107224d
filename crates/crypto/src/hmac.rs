//! HMAC-SHA-256 (RFC 2104).
//!
//! Used as the authenticator primitive behind [`crate::sign`]. Keys longer
//! than the block size are hashed first, per the RFC.

use crate::sha256::{finish_after_block, midstate, Digest, Sha256};

const BLOCK: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// A secret HMAC key.
///
/// Holds the bare SHA-256 *midstates* after the inner and outer padded
/// key blocks, so every MAC computation (the simulator signs and verifies
/// one per message) skips the two key-block compressions and the pad
/// XORs that a from-scratch HMAC pays, and [`HmacKey::mac`] clones no
/// hasher. Equal midstates compute equal MACs.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct HmacKey {
    /// SHA-256 chaining state after absorbing `key ⊕ ipad`.
    inner0: [u32; 8],
    /// SHA-256 chaining state after absorbing `key ⊕ opad`.
    outer0: [u32; 8],
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("HmacKey(..)")
    }
}

impl HmacKey {
    /// Derive an HMAC key from arbitrary key bytes.
    pub(crate) fn new(key: &[u8]) -> Self {
        let mut padded = [0u8; BLOCK];
        if key.len() > BLOCK {
            let d = crate::sha256(key);
            padded[..32].copy_from_slice(&d.0);
        } else {
            padded[..key.len()].copy_from_slice(key);
        }
        HmacKey {
            inner0: midstate(&padded.map(|b| b ^ IPAD)),
            outer0: midstate(&padded.map(|b| b ^ OPAD)),
        }
    }

    /// Compute `HMAC(key, msg)` over one contiguous message: `msg`'s
    /// whole blocks are compressed in place from the inner midstate, and
    /// each hash finishes on one padding block built on the stack (the
    /// outer hash is exactly that block: the inner digest, padded).
    pub(crate) fn mac(&self, msg: &[u8]) -> Digest {
        let inner = finish_after_block(self.inner0, msg);
        finish_after_block(self.outer0, &inner.0)
    }

    /// Begin a streaming MAC computation over message parts fed via
    /// [`HmacState::update`]. Equivalent to [`HmacKey::mac`] over the
    /// concatenation, with no intermediate buffer.
    pub(crate) fn begin(&self) -> HmacState {
        HmacState {
            inner: Sha256::after_block(self.inner0, BLOCK as u64),
            outer: Sha256::after_block(self.outer0, BLOCK as u64),
        }
    }

    /// Compute `HMAC(key, msg)` over a list of message parts: one part
    /// through [`HmacKey::mac`], more through the streaming path.
    pub(crate) fn mac_parts(&self, parts: &[&[u8]]) -> Digest {
        if let [msg] = parts {
            return self.mac(msg);
        }
        let mut st = self.begin();
        for p in parts {
            st.update(p);
        }
        st.finalize()
    }
}

/// An in-progress streaming HMAC computation (see [`HmacKey::begin`]).
#[derive(Clone)]
pub(crate) struct HmacState {
    inner: Sha256,
    outer: Sha256,
}

impl std::fmt::Debug for HmacState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HmacState(..)")
    }
}

impl HmacState {
    /// Absorb more message bytes.
    pub(crate) fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finish and produce the MAC.
    pub(crate) fn finalize(self) -> Digest {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest.0);
        outer.finalize()
    }
}

/// One-shot HMAC-SHA-256: the RFC 4231 reference path.
#[cfg(test)]
fn hmac_sha256(key: &[u8], msg: &[u8]) -> Digest {
    HmacKey::new(key).mac(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// RFC 4231 test vectors for HMAC-SHA-256, on each SHA-256 backend.
    #[test]
    fn rfc4231_vectors() {
        let cases: &[(&[u8], &[u8], &str)] = &[
            // Test case 1.
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            // Test case 2.
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            // Test case 3: 20-byte 0xaa key, 50 bytes of 0xdd.
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            // Test case 6: key larger than block size.
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ];
        crate::sha256::for_each_backend(|backend| {
            for (key, msg, hex) in cases {
                assert_eq!(hmac_sha256(key, msg).to_hex(), *hex, "{backend}");
            }
        });
    }

    #[test]
    fn mac_parts_equals_concat() {
        let k = HmacKey::new(b"key");
        assert_eq!(k.mac_parts(&[b"ab", b"cd"]), k.mac(b"abcd"));
    }

    /// `HMAC(key, msg)` the streaming way, `msg` fed in two parts.
    fn streamed(k: &HmacKey, msg: &[u8], split: usize) -> Digest {
        let mut st = k.begin();
        st.update(&msg[..split]);
        st.update(&msg[split..]);
        st.finalize()
    }

    #[test]
    fn streaming_equals_one_shot() {
        let k = HmacKey::new(b"stream-key");
        let mut st = k.begin();
        st.update(b"what do ya want ");
        st.update(b"");
        st.update(b"for nothing?");
        assert_eq!(st.finalize(), k.mac(b"what do ya want for nothing?"));
    }

    #[test]
    fn debug_hides_key() {
        assert_eq!(format!("{:?}", HmacKey::new(b"secret")), "HmacKey(..)");
    }

    proptest! {
        /// Different keys give different MACs for the same message.
        #[test]
        fn prop_key_separation(k1 in proptest::collection::vec(any::<u8>(), 1..48),
                               k2 in proptest::collection::vec(any::<u8>(), 1..48),
                               msg in proptest::collection::vec(any::<u8>(), 0..64)) {
            prop_assume!(k1 != k2);
            prop_assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
        }

        /// The contiguous MAC, on bare midstates, is the streaming MAC on
        /// either SHA-256 backend, at every length around the one- and
        /// two-block padding boundaries and past them.
        #[test]
        fn prop_contiguous_mac_is_the_streaming_mac(
            key in proptest::collection::vec(any::<u8>(), 0..100),
            msg in proptest::collection::vec(any::<u8>(), 0..300),
            cut in any::<usize>(),
        ) {
            let k = HmacKey::new(&key);
            let split = cut % (msg.len() + 1);
            let mut same = true;
            crate::sha256::for_each_backend(|_| {
                same &= k.mac(&msg) == streamed(&k, &msg, split);
                for len in [55, 56, 63, 64, 119, 120].into_iter().filter(|&l| l <= msg.len()) {
                    same &= k.mac(&msg[..len]) == streamed(&k, &msg[..len], len / 2);
                }
            });
            prop_assert!(same);
        }

        /// MAC is deterministic.
        #[test]
        fn prop_deterministic(key in proptest::collection::vec(any::<u8>(), 0..80),
                              msg in proptest::collection::vec(any::<u8>(), 0..128)) {
            prop_assert_eq!(hmac_sha256(&key, &msg), hmac_sha256(&key, &msg));
        }
    }
}
