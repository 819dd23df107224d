//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The implementation is a straightforward, well-tested translation of the
//! specification: 512-bit blocks, 64-round compression, Merkle–Damgård
//! padding with a 64-bit length field. It is not constant-time (the
//! simulation does not need side-channel resistance), but it is exact:
//! the test suite checks the official NIST vectors and a differential
//! property against incremental hashing.
//!
//! The compression function exists twice: the portable scalar rounds, and
//! the same rounds on the x86-64 SHA extensions where the CPU has them
//! (about 6x faster per block). The CPU decides, once per process; there
//! is no flag. Everything above `compress_blocks` — buffering, padding,
//! the digest — is shared, the two are held equal by differential tests,
//! and [`backend`] names the one in use.

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as a chain genesis value.
    pub(crate) const ZERO: Digest = Digest([0u8; 32]);

    /// Render the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
            s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
        }
        s
    }

    /// A short 8-hex-character prefix: the reference `fmt_short` is
    /// tested against.
    #[cfg(test)]
    pub(crate) fn short(&self) -> String {
        self.to_hex()[..8].to_string()
    }

    /// Write the short 8-hex-character prefix straight into a formatter.
    ///
    /// Equivalent to writing the first 8 hex characters, without a `String`:
    /// `Debug` on digests and signatures runs once per message in
    /// trace-enabled simulations, so it must not heap-allocate.
    pub(crate) fn fmt_short(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in &self.0[..4] {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }

    /// Constant-time equality.
    ///
    /// The derived `==` short-circuits at the first differing byte, which
    /// leaks how much of a forged tag prefix was correct — the classic
    /// byte-at-a-time MAC-forgery side channel. All tag comparisons (both
    /// authenticator suites, single and batched verification) go through
    /// this one accumulate-then-test loop instead.
    #[inline]
    pub(crate) fn ct_eq(&self, other: &Digest) -> bool {
        let mut acc = 0u8;
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            acc |= a ^ b;
        }
        acc == 0
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Digest(")?;
        self.fmt_short(f)?;
        f.write_str(")")
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Which `compress` implementation hashes whole blocks.
///
/// Both produce the same state for the same input (FIPS 180-4 leaves no
/// freedom), so the choice changes wall time and nothing else: no tag,
/// digest or golden depends on it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// The portable 64-round loop; the only path off x86-64 or without
    /// the SHA extensions, and the oracle the other path is tested
    /// against.
    Scalar,
    /// `sha256rnds2` / `sha256msg1` / `sha256msg2` (x86-64 SHA extensions).
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Backend {
    /// What this CPU supports. `is_x86_feature_detected!` caches its
    /// CPUID probe in a process-wide static, so the choice is made once
    /// per process and costs a load and a mask per call afterwards.
    #[inline]
    fn detect() -> Backend {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
        {
            return Backend::ShaNi;
        }
        Backend::Scalar
    }

    /// The backend `compress_blocks` uses: the detected one, unless a
    /// test on this thread pinned another (see [`with_backend`]).
    #[inline]
    fn active() -> Backend {
        #[cfg(test)]
        if let Some(forced) = FORCED.with(|f| f.get()) {
            return forced;
        }
        Backend::detect()
    }

    fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Backend::ShaNi => "sha-ni",
        }
    }
}

/// The name of the `compress` implementation this process hashes with:
/// `"sha-ni"` on an x86-64 CPU with the SHA extensions, `"scalar"`
/// everywhere else. Benchmarks print it beside their wall clocks, where
/// the difference is about 2x on HMAC-bound runs.
pub fn backend() -> &'static str {
    Backend::detect().name()
}

#[cfg(test)]
thread_local! {
    /// Test seam: the backend this thread's hashers are pinned to.
    static FORCED: std::cell::Cell<Option<Backend>> = const { std::cell::Cell::new(None) };
}

/// Run `f` with every hasher on this thread pinned to `backend`, which
/// must be one this CPU can run. Tests run on their own threads, so
/// pinning one does not disturb another.
#[cfg(test)]
fn with_backend<R>(backend: Backend, f: impl FnOnce() -> R) -> R {
    assert!(backend == Backend::Scalar || backend == Backend::detect());
    let prev = FORCED.with(|c| c.replace(Some(backend)));
    let out = f();
    FORCED.with(|c| c.set(prev));
    out
}

/// Run `f` once per backend this CPU can execute, passing its name: the
/// scalar path always, the SHA-NI path when the extension is present —
/// and a skip note when it is not. Crate-private, so the HMAC tests can
/// run their vectors against each backend too.
#[cfg(test)]
pub(crate) fn for_each_backend(mut f: impl FnMut(&'static str)) {
    with_backend(Backend::Scalar, || f(Backend::Scalar.name()));
    let detected = Backend::detect();
    if detected == Backend::Scalar {
        eprintln!("skipped sha-ni: this CPU lacks the SHA extensions");
    } else {
        with_backend(detected, || f(detected.name()));
    }
}

/// Fold `blocks` (a whole number of 64-byte blocks) into `state`.
#[inline]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    match Backend::active() {
        Backend::Scalar => compress_blocks_scalar(state, blocks),
        #[cfg(target_arch = "x86_64")]
        Backend::ShaNi => {
            // SAFETY: `compress_blocks_shani` is a safe function whose one
            // demand on its caller is that the CPU has the sha, sse2, ssse3
            // and sse4.1 features it is compiled with. A `Backend::ShaNi`
            // value reaches here only from `Backend::detect`, after
            // `is_x86_feature_detected!` confirmed all four on this CPU, or
            // from the test seam, which asserts it equals `detect`'s result.
            #[allow(unsafe_code)]
            unsafe {
                compress_blocks_shani(state, blocks)
            };
        }
    }
}

/// The portable compression function, one block at a time.
fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (wi, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The compression function on the x86-64 SHA extensions.
///
/// `sha256rnds2` runs two rounds on a state split across two registers
/// as (A, B, E, F) and (C, D, G, H), high lane first; `sha256msg1` and
/// `sha256msg2` produce four schedule words per pair of calls. Sixteen
/// groups of four rounds make a block; the four live schedule vectors
/// rotate through `m`. All blocks of a call are folded in with the state
/// held in registers throughout.
///
/// Safe Rust: every intrinsic used takes and returns values, and words
/// enter and leave through `_mm_set_epi32` / `_mm_extract_epi32`, so no
/// pointer is formed. Only the *call* needs the feature check.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks_shani(state: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::*;

    let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);

    for block in blocks.chunks_exact(64) {
        let word = |i: usize| {
            i32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ])
        };
        let (abef_in, cdgh_in) = (abef, cdgh);
        // m[j] holds W[4j..4j+4] of the current window, low lane first.
        let mut m = [_mm_setzero_si128(); 4];
        // One group of four rounds. A macro, not a loop: with `$i` a
        // literal every index and branch below folds at compile time and
        // `m` lives in registers; the same body in a `for` stays rolled,
        // with `m` on the stack.
        macro_rules! four_rounds {
            ($i:literal) => {{
                const CUR: usize = $i % 4;
                const PREV: usize = ($i + 3) % 4;
                const NEXT: usize = ($i + 1) % 4;
                if $i < 4 {
                    m[CUR] = _mm_set_epi32(
                        word(4 * $i + 3),
                        word(4 * $i + 2),
                        word(4 * $i + 1),
                        word(4 * $i),
                    );
                }
                let k = _mm_set_epi32(
                    K[4 * $i + 3] as i32,
                    K[4 * $i + 2] as i32,
                    K[4 * $i + 1] as i32,
                    K[4 * $i] as i32,
                );
                let wk = _mm_add_epi32(m[CUR], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                if 3 <= $i && $i < 15 {
                    // Finish the next four schedule words: W[t-7] comes
                    // from the seam of the two newest vectors.
                    let w_t7 = _mm_alignr_epi8(m[CUR], m[PREV], 4);
                    m[NEXT] = _mm_sha256msg2_epu32(_mm_add_epi32(m[NEXT], w_t7), m[CUR]);
                }
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
                // Start the vector three groups ahead: W[t-16] +
                // s0(W[t-15]). (The lint reads group 15's copy of this
                // branch as a store nothing loads; it is never taken.)
                #[allow(unused_assignments)]
                if 1 <= $i && $i < 13 {
                    m[PREV] = _mm_sha256msg1_epu32(m[PREV], m[CUR]);
                }
            }};
        }
        four_rounds!(0);
        four_rounds!(1);
        four_rounds!(2);
        four_rounds!(3);
        four_rounds!(4);
        four_rounds!(5);
        four_rounds!(6);
        four_rounds!(7);
        four_rounds!(8);
        four_rounds!(9);
        four_rounds!(10);
        four_rounds!(11);
        four_rounds!(12);
        four_rounds!(13);
        four_rounds!(14);
        four_rounds!(15);
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    *state = [
        _mm_extract_epi32(abef, 3),
        _mm_extract_epi32(abef, 2),
        _mm_extract_epi32(cdgh, 3),
        _mm_extract_epi32(cdgh, 2),
        _mm_extract_epi32(abef, 1),
        _mm_extract_epi32(abef, 0),
        _mm_extract_epi32(cdgh, 1),
        _mm_extract_epi32(cdgh, 0),
    ]
    .map(|w| w as u32);
}

/// Incremental SHA-256 hasher. Two equal hashers finish equal on equal
/// input (what makes HMAC keys comparable without computing a MAC).
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub(crate) fn new() -> Self {
        Sha256::after_block(H0, 0)
    }

    /// A hasher that has absorbed `absorbed` bytes (a whole number of
    /// blocks) into `state`.
    pub(crate) fn after_block(state: [u32; 8], absorbed: u64) -> Self {
        debug_assert_eq!(absorbed % 64, 0);
        Sha256 {
            state,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: absorbed,
        }
    }

    /// Absorb more message bytes.
    pub(crate) fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        // Fill the partial block first.
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress_blocks(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        // Whole blocks straight from the input, in one call.
        let (blocks, tail) = data.split_at(data.len() & !63);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        // Stash the tail.
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// Finish and produce the digest.
    pub(crate) fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length,
        // written in place. `buf_len` < 64 always, so the marker fits;
        // the length needs a second block when fewer than 8 bytes remain.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            compress_blocks(&mut self.state, &self.buf);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &self.buf);
        digest(&self.state)
    }
}

/// The digest a final chaining state stands for.
fn digest(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// The chaining state after hashing the one 64-byte `block`: an HMAC
/// key's midstate for its padded key.
pub(crate) fn midstate(block: &[u8; 64]) -> [u32; 8] {
    let mut state = H0;
    compress_blocks(&mut state, block);
    state
}

/// The SHA-256 of a message whose first block `state` has absorbed and
/// whose rest is `msg`, which is contiguous: its whole blocks are
/// compressed where they lie, and its tail, the padding and the length go
/// into one block built on the stack (two when the tail leaves no room
/// for the length). No hasher, and no copy of `msg` into one.
pub(crate) fn finish_after_block(mut state: [u32; 8], msg: &[u8]) -> Digest {
    let (blocks, tail) = msg.split_at(msg.len() & !63);
    if !blocks.is_empty() {
        compress_blocks(&mut state, blocks);
    }
    let mut block = [0u8; 64];
    block[..tail.len()].copy_from_slice(tail);
    block[tail.len()] = 0x80;
    if tail.len() >= 56 {
        compress_blocks(&mut state, &block);
        block = [0u8; 64];
    }
    let bit_len = (msg.len() as u64 + 64).wrapping_mul(8);
    block[56..].copy_from_slice(&bit_len.to_be_bytes());
    compress_blocks(&mut state, &block);
    digest(&state)
}

/// One-shot SHA-256 of a byte slice.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// NIST / well-known vectors, on each backend.
    #[test]
    fn nist_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"The quick brown fox jumps over the lazy dog",
                "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
            ),
        ];
        for_each_backend(|backend| {
            for (msg, hex) in cases {
                assert_eq!(sha256(msg).to_hex(), *hex, "{backend}: msg = {msg:?}");
            }
        });
    }

    #[test]
    fn million_a() {
        for_each_backend(|backend| {
            let mut h = Sha256::new();
            let chunk = [b'a'; 1000];
            for _ in 0..1000 {
                h.update(&chunk);
            }
            assert_eq!(
                h.finalize().to_hex(),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{backend}"
            );
        });
    }

    /// Every length from empty to four blocks and a byte, one-shot and
    /// split across the buffered path: the backends must agree digest for
    /// digest (the scalar run, always first, is the oracle).
    #[test]
    fn backends_agree_on_every_length_to_257() {
        let data: Vec<u8> = (0..257u32).map(|i| (i * 131 + 7) as u8).collect();
        let mut runs: Vec<(&str, Vec<Digest>)> = Vec::new();
        for_each_backend(|backend| {
            let digests = (0..=data.len())
                .map(|n| {
                    let one_shot = sha256(&data[..n]);
                    let mut split = Sha256::new();
                    split.update(&data[..n / 3]);
                    split.update(&data[n / 3..n]);
                    assert_eq!(split.finalize(), one_shot, "{backend}: length {n}, split");
                    one_shot
                })
                .collect();
            runs.push((backend, digests));
        });
        let (oracle_name, oracle) = &runs[0];
        assert_eq!(*oracle_name, "scalar");
        for (backend, digests) in &runs[1..] {
            for (n, (got, want)) in digests.iter().zip(oracle).enumerate() {
                assert_eq!(got, want, "{backend} differs from scalar at length {n}");
            }
        }
    }

    /// The two `compress` implementations, driven directly: random
    /// chaining states (not only ones reachable from `H0`) and one to
    /// three random blocks per call.
    #[test]
    fn shani_compress_matches_scalar_on_random_states_and_blocks() {
        let shani = Backend::detect();
        if shani == Backend::Scalar {
            eprintln!("skipped: this CPU lacks the SHA extensions");
            return;
        }
        let mut rng = crate::SplitMix64::new(0x5a17_ed5e_ed00_0256);
        for case in 0..10_000 {
            let mut state = [0u32; 8];
            for pair in state.chunks_exact_mut(2) {
                let r = rng.next_u64();
                pair[0] = r as u32;
                pair[1] = (r >> 32) as u32;
            }
            let mut blocks = vec![0u8; 64 * (1 + case % 3)];
            for bytes in blocks.chunks_exact_mut(8) {
                bytes.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
            let mut want = state;
            compress_blocks_scalar(&mut want, &blocks);
            let mut got = state;
            with_backend(shani, || compress_blocks(&mut got, &blocks));
            assert_eq!(got, want, "case {case}: state {state:08x?}");
        }
    }

    #[test]
    fn backend_name_is_one_of_the_two() {
        // CI greps this line to log which path the suite exercised.
        eprintln!("sha256 backend: {}", backend());
        assert!(["sha-ni", "scalar"].contains(&backend()));
    }

    #[test]
    fn exact_block_boundaries() {
        // 55, 56, 63, 64, 65 bytes hit all padding branch cases.
        for n in [0usize, 1, 55, 56, 57, 63, 64, 65, 127, 128, 129] {
            let data = vec![0xabu8; n];
            let one_shot = sha256(&data);
            let mut inc = Sha256::new();
            for b in &data {
                inc.update(std::slice::from_ref(b));
            }
            assert_eq!(one_shot, inc.finalize(), "length {n}");
        }
    }

    #[test]
    fn hex_round_trips_arbitrary_digests() {
        for i in 0..32u8 {
            let mut raw = [0u8; 32];
            raw[i as usize] = 0x80 | i;
            raw[31 - i as usize] ^= i.wrapping_mul(37);
            let d = Digest(raw);
            let hex = d.to_hex();
            assert_eq!(hex.len(), 64);
            assert_eq!(d.short(), hex[..8].to_string());
        }
        assert_eq!(Digest::ZERO.to_hex(), "0".repeat(64));
    }

    #[test]
    fn display_and_debug() {
        let d = sha256(b"x");
        assert_eq!(format!("{d}").len(), 64);
        assert!(format!("{d:?}").starts_with("Digest("));
        // The allocation-free short form matches the allocating one.
        assert_eq!(format!("{d:?}"), format!("Digest({})", d.short()));
    }

    #[test]
    fn ct_eq_matches_derived_eq() {
        let a = sha256(b"a");
        let b = sha256(b"b");
        assert!(a.ct_eq(&a));
        assert!(!a.ct_eq(&b));
        // Differences only in the last byte must still be caught.
        let mut c = a;
        c.0[31] ^= 1;
        assert!(!a.ct_eq(&c));
        assert_eq!(a.ct_eq(&b), a == b);
    }

    proptest! {
        /// Incremental hashing with arbitrary split points matches one-shot.
        #[test]
        fn prop_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512),
                                           split in 0usize..512) {
            let split = split.min(data.len());
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), sha256(&data));
        }

        /// Distinct short messages essentially never collide.
        #[test]
        fn prop_no_trivial_collisions(a in proptest::collection::vec(any::<u8>(), 0..64),
                                      b in proptest::collection::vec(any::<u8>(), 0..64)) {
            prop_assume!(a != b);
            prop_assert_ne!(sha256(&a), sha256(&b));
        }
    }
}
