//! HMAC-SHA-256 (RFC 2104).
//!
//! Used as the authenticator primitive behind [`crate::sign`]. Keys longer
//! than the block size are hashed first, per the RFC.

use crate::sha256::{Digest, Sha256};

const BLOCK: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// A secret HMAC key.
///
/// Holds the *midstates* of SHA-256 after absorbing the inner and outer
/// padded key blocks, so every MAC computation (the simulator signs and
/// verifies one per message) skips the two key-block compressions and the
/// pad XORs that a from-scratch HMAC pays. Equal midstates compute equal
/// MACs.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct HmacKey {
    /// SHA-256 state after absorbing `key ⊕ ipad`.
    inner0: Sha256,
    /// SHA-256 state after absorbing `key ⊕ opad`.
    outer0: Sha256,
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
        let mut ipad = [0u8; BLOCK];
        let mut opad = [0u8; BLOCK];
        for (i, b) in padded.iter().enumerate() {
            ipad[i] = b ^ IPAD;
            opad[i] = b ^ OPAD;
        }
        let mut inner0 = Sha256::new();
        inner0.update(&ipad);
        let mut outer0 = Sha256::new();
        outer0.update(&opad);
        HmacKey { inner0, outer0 }
    }

    /// Begin a streaming MAC computation over message parts fed via
    /// [`HmacState::update`]. Equivalent to [`HmacKey::mac`] over the
    /// concatenation, with no intermediate buffer.
    pub(crate) fn begin(&self) -> HmacState {
        HmacState {
            inner: self.inner0.clone(),
            outer: self.outer0.clone(),
        }
    }

    /// Compute `HMAC(key, msg)` over a list of message parts.
    pub(crate) fn mac_parts(&self, parts: &[&[u8]]) -> Digest {
        let mut st = self.begin();
        for p in parts {
            st.update(p);
        }
        st.finalize()
    }

    /// Compute `HMAC(key, msg)` over a single message slice: the
    /// one-shot reference `mac_parts` is tested against.
    #[cfg(test)]
    fn mac(&self, msg: &[u8]) -> Digest {
        self.mac_parts(&[msg])
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

        /// MAC is deterministic.
        #[test]
        fn prop_deterministic(key in proptest::collection::vec(any::<u8>(), 0..80),
                              msg in proptest::collection::vec(any::<u8>(), 0..128)) {
            prop_assert_eq!(hmac_sha256(&key, &msg), hmac_sha256(&key, &msg));
        }
    }
}
