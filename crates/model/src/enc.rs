//! Canonical byte layouts for signing.
//!
//! Signatures must cover a *canonical* byte representation: if two nodes
//! encoded the same logical message differently, signature verification
//! would diverge. This module holds the one tiny, explicit encoding used
//! for everything that is ever signed. (We deliberately do not sign
//! `serde_json` output — field order and float formatting would make
//! canonicalisation fragile.)
//!
//! Integers are big-endian; a byte string, domain tags included, is its
//! `u64` length followed by its bytes. Every signed or identified record
//! has a fixed layout of a known size: [`append`] reserves its bytes at
//! the end of a buffer in one step and a [`Fixed`] writes its fields
//! straight into them; [`array`] does the same on the stack. What varies
//! in length (an output's witnesses, a proof's inputs) is a count
//! followed by fixed-size items, so every length is arithmetic and none
//! is counted or patched after the bytes are written.

use btr_crypto::Signature;

/// Bytes a length-prefixed string of `len` bytes takes.
pub(crate) const fn prefixed(len: usize) -> usize {
    8 + len
}

/// Bytes a signature takes: its key id, then its tag as a string.
pub(crate) const SIG_LEN: usize = 4 + prefixed(32);

/// Writes one fixed-size record's fields, in order, into its `N` bytes.
pub(crate) struct Fixed<'a, const N: usize> {
    bytes: &'a mut [u8; N],
    at: usize,
}

/// Append an `N`-byte record laid out by `lay_out` to `buf`.
#[inline]
pub(crate) fn append<const N: usize>(buf: &mut Vec<u8>, lay_out: impl FnOnce(&mut Fixed<'_, N>)) {
    let at = buf.len();
    buf.resize(at + N, 0);
    let bytes: &mut [u8; N] = (&mut buf[at..]).try_into().expect("N bytes were added");
    Fixed::lay_out(bytes, lay_out);
}

/// An `N`-byte record laid out by `lay_out` on the stack.
#[inline]
pub(crate) fn array<const N: usize>(lay_out: impl FnOnce(&mut Fixed<'_, N>)) -> [u8; N] {
    let mut bytes = [0; N];
    Fixed::lay_out(&mut bytes, lay_out);
    bytes
}

impl<const N: usize> Fixed<'_, N> {
    #[inline]
    fn lay_out(bytes: &mut [u8; N], lay_out: impl FnOnce(&mut Fixed<'_, N>)) {
        let mut f = Fixed { bytes, at: 0 };
        lay_out(&mut f);
        debug_assert_eq!(f.at, N, "a fixed layout left bytes unwritten");
    }

    /// Append bytes as they are.
    #[inline]
    pub(crate) fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.bytes[self.at..self.at + v.len()].copy_from_slice(v);
        self.at += v.len();
        self
    }

    /// Append a `u8`.
    #[inline]
    pub(crate) fn u8(&mut self, v: u8) -> &mut Self {
        self.raw(&[v])
    }

    /// Append a `u32` (big-endian).
    #[inline]
    pub(crate) fn u32(&mut self, v: u32) -> &mut Self {
        self.raw(&v.to_be_bytes())
    }

    /// Append a `u64` (big-endian).
    #[inline]
    pub(crate) fn u64(&mut self, v: u64) -> &mut Self {
        self.raw(&v.to_be_bytes())
    }

    /// Append a length-prefixed byte string.
    #[inline]
    pub(crate) fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64).raw(v)
    }

    /// Append a signature: its key id, then its tag as a string.
    #[inline]
    pub(crate) fn sig(&mut self, s: &Signature) -> &mut Self {
        self.u32(s.key).bytes(&s.tag.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_big_endian_and_strings_length_prefixed() {
        let got = array::<{ 1 + 4 + 8 + prefixed(2) }>(|f| {
            f.u8(7).u32(0x0102_0304).u64(5).bytes(b"xy");
        });
        let mut want = vec![7, 1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 5];
        want.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 2, b'x', b'y']);
        assert_eq!(got.as_slice(), want.as_slice());
        // Appended after what a buffer holds, the same bytes.
        let mut buf = vec![9, 9];
        append::<{ 1 + 4 + 8 + prefixed(2) }>(&mut buf, |f| {
            f.u8(7).u32(0x0102_0304).u64(5).bytes(b"xy");
        });
        assert_eq!(buf[..2], [9, 9]);
        assert_eq!(&buf[2..], want.as_slice());
    }

    #[test]
    fn deterministic_and_prefix_free() {
        let lay_out = || {
            array::<{ 4 + 8 + prefixed(2) }>(|f| {
                f.u32(1).u64(2).bytes(b"xy");
            })
        };
        assert_eq!(lay_out(), lay_out());
    }

    #[test]
    fn domain_separation() {
        let a = array::<{ prefixed(8) }>(|f| {
            f.bytes(b"domain-a");
        });
        let b = array::<{ prefixed(8) }>(|f| {
            f.bytes(b"domain-b");
        });
        assert_ne!(a, b);
    }

    #[test]
    fn length_prefix_prevents_ambiguity() {
        // ("a", "bc") must differ from ("ab", "c").
        let a = array::<{ prefixed(1) + prefixed(2) }>(|f| {
            f.bytes(b"a").bytes(b"bc");
        });
        let b = array::<{ prefixed(2) + prefixed(1) }>(|f| {
            f.bytes(b"ab").bytes(b"c");
        });
        assert_ne!(a, b);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unwritten")]
    fn a_short_layout_is_caught() {
        array::<9>(|f| {
            f.u64(1);
        });
    }
}
