//! Canonical byte encoding for signing.
//!
//! Signatures must cover a *canonical* byte representation: if two nodes
//! encoded the same logical message differently, signature verification
//! would diverge. This module provides a tiny, explicit, versioned
//! encoding used for everything that is ever signed. (We deliberately do
//! not sign `serde_json` output — field order and float formatting would
//! make canonicalisation fragile.)
//!
//! An [`Enc`] can write to three kinds of output, so the same encoding
//! routine serves the cold path (owned buffer), the simulator's hot path
//! (a caller-owned scratch buffer, no allocation), and size queries
//! (counting only, no bytes materialised at all):
//!
//! * [`Enc::new`] — owned `Vec<u8>`, read with [`Enc::as_slice`] (or,
//!   in tests, taken with `Enc::finish`).
//! * [`Enc::over`] — borrowed scratch buffer, cleared and refilled.
//! * [`Enc::count`] — byte counting via [`Enc::len`].

/// What an owned encoding reserves up front: the signed bytes of a path
/// declaration or a crash suspicion fit; a timing declaration's, which
/// embed an output's id, grow the buffer once.
const OWNED_CAPACITY: usize = 64;

enum Out<'a> {
    Owned(Vec<u8>),
    Borrowed(&'a mut Vec<u8>),
    Count(usize),
}

/// Incrementally builds (or sizes) a canonical byte string.
pub(crate) struct Enc<'a> {
    out: Out<'a>,
}

impl std::fmt::Debug for Enc<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Enc({} bytes)", self.len())
    }
}

impl Enc<'static> {
    /// Start an owned encoding with a domain-separation tag. The buffer
    /// starts at [`OWNED_CAPACITY`] bytes, room for a declaration's
    /// signed bytes, so signing one allocates once.
    pub(crate) fn new(domain: &str) -> Enc<'static> {
        let mut e = Enc {
            out: Out::Owned(Vec::with_capacity(OWNED_CAPACITY)),
        };
        e.bytes(domain.as_bytes());
        e
    }

    /// Start a counting encoding: no bytes are written, but [`Enc::len`]
    /// reports exactly what [`Enc::new`] would have produced.
    pub(crate) fn count(domain: &str) -> Enc<'static> {
        let mut e = Enc { out: Out::Count(0) };
        e.bytes(domain.as_bytes());
        e
    }
}

impl<'a> Enc<'a> {
    /// Start an encoding into a caller-owned scratch buffer (cleared
    /// first). The buffer keeps its capacity across uses, so a reused
    /// scratch makes encoding allocation-free in steady state.
    pub(crate) fn over(buf: &'a mut Vec<u8>, domain: &str) -> Enc<'a> {
        buf.clear();
        Self::append(buf, domain)
    }

    /// Start an encoding *appended* to a caller-owned buffer, without
    /// clearing it first. This is the batched-verification staging path:
    /// many messages' canonical bytes share one scratch buffer (see
    /// `btr_crypto::SigBatch`), each encoding starting where the previous
    /// one ended.
    pub(crate) fn append(buf: &'a mut Vec<u8>, domain: &str) -> Enc<'a> {
        let mut e = Enc {
            out: Out::Borrowed(buf),
        };
        e.bytes(domain.as_bytes());
        e
    }

    #[inline]
    fn raw(&mut self, v: &[u8]) {
        match &mut self.out {
            Out::Owned(b) => b.extend_from_slice(v),
            Out::Borrowed(b) => b.extend_from_slice(v),
            Out::Count(n) => *n += v.len(),
        }
    }

    /// Append a `u8`.
    #[inline]
    pub(crate) fn u8(&mut self, v: u8) -> &mut Self {
        self.raw(&[v]);
        self
    }

    /// Append a `u32` (big-endian).
    #[inline]
    pub(crate) fn u32(&mut self, v: u32) -> &mut Self {
        self.raw(&v.to_be_bytes());
        self
    }

    /// Append a `u64` (big-endian).
    #[inline]
    pub(crate) fn u64(&mut self, v: u64) -> &mut Self {
        self.raw(&v.to_be_bytes());
        self
    }

    /// Append a length-prefixed byte string.
    #[inline]
    pub(crate) fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64);
        self.raw(v);
        self
    }

    /// Append a length-prefixed nested encoding whose length is known
    /// only once `body` has written it: the prefix is reserved, `body`
    /// runs, and the prefix is patched. Byte-identical to
    /// `self.bytes(&inner)` for an `inner` built by the same calls, in
    /// one pass and with no intermediate vector.
    pub(crate) fn nested(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        let at = self.len();
        self.u64(0);
        body(self);
        let inner = (self.len() - at - 8) as u64;
        match &mut self.out {
            Out::Owned(b) => b[at..at + 8].copy_from_slice(&inner.to_be_bytes()),
            Out::Borrowed(b) => b[at..at + 8].copy_from_slice(&inner.to_be_bytes()),
            Out::Count(_) => {}
        }
        self
    }

    /// Bytes written (or counted) so far.
    pub(crate) fn len(&self) -> usize {
        match &self.out {
            Out::Owned(b) => b.len(),
            Out::Borrowed(b) => b.len(),
            Out::Count(n) => *n,
        }
    }

    /// Finish and return the canonical bytes.
    ///
    /// # Panics
    /// Panics for counting or borrowed encoders — those callers read the
    /// scratch buffer or [`Enc::len`] instead.
    #[cfg(test)]
    pub(crate) fn finish(self) -> Vec<u8> {
        match self.out {
            Out::Owned(b) => b,
            Out::Borrowed(_) => panic!("finish() on a borrowed Enc; read the scratch buffer"),
            Out::Count(_) => panic!("finish() on a counting Enc; use len()"),
        }
    }

    /// View the bytes so far.
    ///
    /// # Panics
    /// Panics for counting encoders, which materialise no bytes.
    pub(crate) fn as_slice(&self) -> &[u8] {
        match &self.out {
            Out::Owned(b) => b,
            Out::Borrowed(b) => b,
            Out::Count(_) => panic!("as_slice() on a counting Enc"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_prefix_free() {
        let mut a = Enc::new("tag");
        a.u32(1).u64(2).bytes(b"xy");
        let mut b = Enc::new("tag");
        b.u32(1).u64(2).bytes(b"xy");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn length_prefix_prevents_ambiguity() {
        // ("a", "bc") must differ from ("ab", "c").
        let mut a = Enc::new("t");
        a.bytes(b"a").bytes(b"bc");
        let mut b = Enc::new("t");
        b.bytes(b"ab").bytes(b"c");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn domain_separation() {
        let a = Enc::new("domain-a").finish();
        let b = Enc::new("domain-b").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn borrowed_matches_owned() {
        let mut owned = Enc::new("t");
        owned.u8(7).u32(8).u64(9).bytes(b"abc");
        let expected = owned.finish();

        let mut scratch = Vec::new();
        {
            let mut e = Enc::over(&mut scratch, "t");
            e.u8(7).u32(8).u64(9).bytes(b"abc");
            assert_eq!(e.len(), expected.len());
        }
        assert_eq!(scratch, expected);

        // Reuse keeps capacity and clears content.
        let cap = scratch.capacity();
        {
            let mut e = Enc::over(&mut scratch, "t");
            e.u8(1);
        }
        assert!(scratch.capacity() >= cap.min(scratch.len()));
        assert_ne!(scratch, expected);
    }

    #[test]
    fn append_stacks_encodings_without_clearing() {
        let mut one = Enc::new("t");
        one.u32(1);
        let first = one.finish();
        let mut two = Enc::new("t");
        two.u64(2);
        let second = two.finish();

        let mut buf = Vec::new();
        {
            let mut e = Enc::append(&mut buf, "t");
            e.u32(1);
        }
        let split = buf.len();
        {
            let mut e = Enc::append(&mut buf, "t");
            e.u64(2);
        }
        assert_eq!(&buf[..split], &first[..]);
        assert_eq!(&buf[split..], &second[..]);
    }

    #[test]
    fn nested_matches_bytes_of_the_inner_encoding() {
        let mut inner = Enc::new("inner");
        inner.u32(5).bytes(b"payload");
        let mut reference = Enc::new("outer");
        reference.u8(1).bytes(&inner.finish()).u8(2);
        let expected = reference.finish();

        let body = |e: &mut Enc<'_>| {
            e.bytes(b"inner").u32(5).bytes(b"payload");
        };
        let mut owned = Enc::new("outer");
        owned.u8(1).nested(body).u8(2);
        assert_eq!(owned.finish(), expected);
        // Appended after existing content, the patch lands at the right
        // offset; counting sizes it the same.
        let mut buf = vec![7u8; 5];
        Enc::append(&mut buf, "outer").u8(1).nested(body).u8(2);
        assert_eq!(&buf[5..], &expected[..]);
        let mut counter = Enc::count("outer");
        counter.u8(1).nested(body).u8(2);
        assert_eq!(counter.len(), expected.len());
    }

    #[test]
    fn count_matches_owned() {
        let mut owned = Enc::new("count-me");
        owned.u8(1).u32(2).u64(3).bytes(&[0u8; 17]);
        let mut counter = Enc::count("count-me");
        counter.u8(1).u32(2).u64(3).bytes(&[0u8; 17]);
        assert_eq!(counter.len(), owned.finish().len());
    }
}
