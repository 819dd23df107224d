//! Cryptographic substrate for BTR evidence.
//!
//! The paper requires that fault evidence be *independently verifiable*:
//! "it is necessary to generate evidence of detected faults that other
//! nodes can verify independently" (Section 4.2). That, in turn, requires
//! message authentication. This crate provides everything the rest of the
//! system needs, implemented from scratch:
//!
//! * [`mod@sha256`] — a FIPS 180-4 SHA-256 implementation; its compression
//!   function runs on the x86-64 SHA extensions where the CPU has them and
//!   on portable scalar rounds elsewhere, bit-identically.
//! * [`mod@hmac`] — HMAC-SHA-256 (RFC 2104).
//! * [`mod@siphash`] — SipHash-2-4 with 128-bit tags, the cheap
//!   authenticator suite for statistical experiments.
//! * [`Signer`] / [`KeyStore`] — per-node authenticators behind a
//!   pluggable [`AuthSuite`] (HMAC-SHA-256 default, SipHash-2-4-128
//!   alternative). Real deployments would use asymmetric signatures; we
//!   substitute keyed MACs with a pre-installed verification keystore
//!   (see DESIGN.md). Within the simulation the substitution is sound
//!   because only the owner of a key can produce a valid tag, and every
//!   correct node can verify every other node's tags. [`SigBatch`]
//!   stages a message's whole evidence set for one verification pass.
//!
//! The crate holds one `unsafe` block, the only one in any library crate
//! of the workspace: the call in `sha256::compress_blocks` that enters
//! the SHA-NI kernel. The kernel itself is safe Rust, but it is compiled
//! with `#[target_feature]`, and calling such a function from code
//! compiled without the feature is `unsafe` because only the caller can
//! promise the CPU has it; the promise there is `is_x86_feature_detected!`.
//! Everything else is denied `unsafe` (`deny`, not `forbid`, only so that
//! one `#[allow]` can exist).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod hmac;
pub mod rng;
pub mod sha256;
pub mod sign;
pub mod siphash;
pub use rng::{SplitMix64, Xoshiro256StarStar};
use sha256::Sha256;
pub use sha256::{sha256, Digest};
pub use sign::{mac_count, AuthSuite, KeyStore, NodeKey, SigBatch, SigError, Signature, Signer};
pub use siphash::{SipKey, SipState};

/// Convenience: hash a sequence of byte slices as one message.
///
/// Equivalent to concatenating the slices and hashing, but without the
/// intermediate allocation. Used pervasively for evidence digests.
pub(crate) fn sha256_concat(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// A deterministic 64-bit digest derived from a full SHA-256 digest.
///
/// Task outputs in the simulated workload are 64-bit values; deriving them
/// from SHA-256 keeps re-execution checks honest while staying cheap to
/// store and compare.
pub fn digest64(parts: &[&[u8]]) -> u64 {
    let d = sha256_concat(parts);
    u64::from_be_bytes([
        d.0[0], d.0[1], d.0[2], d.0[3], d.0[4], d.0[5], d.0[6], d.0[7],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest64_is_prefix_of_sha256() {
        let d = sha256(b"hello");
        let x = digest64(&[b"hello"]);
        assert_eq!(x.to_be_bytes(), d.0[..8]);
    }

    #[test]
    fn sha256_concat_matches_single_shot() {
        let a = sha256(b"hello world");
        let b = sha256_concat(&[b"hello", b" ", b"world"]);
        assert_eq!(a, b);
    }
}
