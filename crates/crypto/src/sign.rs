//! Per-node authenticators ("signatures") and the verification keystore.
//!
//! The paper's evidence mechanism needs messages whose origin any correct
//! node can verify, so a compromised node cannot forge statements by other
//! nodes (Section 4.2: compromised nodes "can try to confuse the detector
//! ... by making false statements about the actions of other nodes").
//!
//! We substitute keyed MACs for asymmetric signatures: every node `i`
//! holds a secret key `k_i`, and every node holds a [`KeyStore`] with the
//! *verification* material for all nodes. Inside the simulation this
//! gives exactly the unforgeability property the protocol needs, because
//! the simulator never leaks `k_i` to any behaviour other than node `i`'s.
//! See DESIGN.md ("Substitutions") for the full argument.
//!
//! Two [`AuthSuite`]s implement the MAC behind the same `Signer`/
//! `KeyStore` API:
//!
//! * [`AuthSuite::HmacSha256`] — the default: HMAC-SHA-256 with cached
//!   midstates. This is the suite whose behaviour every pre-existing
//!   golden pins, and the oracle the SipHash suite's verdicts are held
//!   to.
//! * [`AuthSuite::SipHash24`] — SipHash-2-4 with a 128-bit tag: the same
//!   can't-forge-other-nodes property against the simulated adversary at
//!   a small fraction of the cost, for statistical experiments that do
//!   not need the cryptographic-strength argument (see DESIGN.md).
//!
//! Tags of both suites travel in the fixed 32-byte [`Signature::tag`]
//! field (SipHash tags are zero-padded), so the two suites are
//! wire-compatible: message sizes, and therefore link timings, are
//! bit-identical across suites and only the CPU cost differs. Tag
//! equality goes through `Digest::ct_eq` — one constant-time comparison
//! shared by both suites and by single and batched verification.

use crate::hmac::HmacKey;
use crate::sha256::Digest;
use crate::siphash::SipKey;
use std::cell::Cell;

thread_local! {
    /// MAC computations made on this thread (see [`mac_count`]).
    static MACS: Cell<u64> = const { Cell::new(0) };
}

/// MAC tags computed on the calling thread so far, signing and verifying
/// alike, either suite. A plain per-thread tally beside the one place
/// tags are computed: a caller reads it before and after a piece of work
/// to learn how many MACs that work cost (a simulated run is
/// single-threaded, so its difference is exact). Nothing can reset it.
pub fn mac_count() -> u64 {
    MACS.with(Cell::get)
}

/// Identifier of a signing principal (one per node).
///
/// This deliberately mirrors `btr_model::NodeId` but is kept separate so the
/// crypto crate stays at the bottom of the dependency graph.
pub(crate) type KeyId = u32;

/// Which MAC construction backs the `Signer`/`KeyStore` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AuthSuite {
    /// HMAC-SHA-256 (RFC 2104) with cached midstates. The default and
    /// the pinned baseline.
    #[default]
    HmacSha256,
    /// SipHash-2-4 with a 128-bit tag and per-node 128-bit keys.
    SipHash24,
}

impl AuthSuite {
    /// Every suite, in a stable order (sweeps iterate this).
    pub const ALL: [AuthSuite; 2] = [AuthSuite::HmacSha256, AuthSuite::SipHash24];

    /// Canonical long name (used in benchmark reports).
    pub(crate) fn name(self) -> &'static str {
        match self {
            AuthSuite::HmacSha256 => "hmac-sha256",
            AuthSuite::SipHash24 => "siphash24",
        }
    }

    /// Short spelling for replay tokens and CLI flags.
    pub fn token(self) -> &'static str {
        match self {
            AuthSuite::HmacSha256 => "hmac",
            AuthSuite::SipHash24 => "sip",
        }
    }

    /// Parse either spelling.
    pub fn parse(s: &str) -> Option<AuthSuite> {
        match s {
            "hmac" | "hmac-sha256" => Some(AuthSuite::HmacSha256),
            "sip" | "siphash24" => Some(AuthSuite::SipHash24),
            _ => None,
        }
    }
}

impl std::fmt::Display for AuthSuite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A message authenticator produced by [`Signer::sign`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Which key produced this signature.
    pub key: KeyId,
    /// The MAC tag. HMAC fills all 32 bytes; SipHash fills the first 16
    /// and zero-pads (the padding is covered by verification, so a
    /// non-canonical tag never verifies).
    pub tag: Digest,
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Allocation-free: trace-enabled runs format one of these per
        // message, which must not cost a heap round trip (Digest::short
        // builds two Strings).
        write!(f, "Sig(k{},", self.key)?;
        self.tag.fmt_short(f)?;
        f.write_str(")")
    }
}

/// Errors from signature verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigError {
    /// The signer id is not present in the keystore.
    UnknownKey(KeyId),
    /// The tag does not verify for the claimed signer and message.
    BadTag(KeyId),
}

impl std::fmt::Display for SigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SigError::UnknownKey(k) => write!(f, "unknown key id {k}"),
            SigError::BadTag(k) => write!(f, "bad signature tag for key {k}"),
        }
    }
}

impl std::error::Error for SigError {}

/// Suite-specific key material (secret and verification material are the
/// same bytes under the MAC substitution; only `verify` is exposed on the
/// store side). Equal material computes equal tags.
#[derive(Clone, PartialEq, Eq)]
enum Material {
    Hmac(HmacKey),
    Sip(SipKey),
}

impl Material {
    fn derive(system_seed: u64, id: KeyId, suite: AuthSuite) -> Material {
        match suite {
            AuthSuite::HmacSha256 => {
                // Unchanged from the original derivation so every pinned
                // HMAC tag stays bit-identical.
                let material = crate::sha256_concat(&[
                    b"btr-node-key",
                    &system_seed.to_be_bytes(),
                    &id.to_be_bytes(),
                ]);
                Material::Hmac(HmacKey::new(&material.0))
            }
            AuthSuite::SipHash24 => {
                // Distinct domain tag: the two suites never share key
                // bytes even for the same (seed, id).
                let material = crate::sha256_concat(&[
                    b"btr-node-key-sip",
                    &system_seed.to_be_bytes(),
                    &id.to_be_bytes(),
                ]);
                let mut key = [0u8; 16];
                key.copy_from_slice(&material.0[..16]);
                Material::Sip(SipKey::new(&key))
            }
        }
    }

    /// Compute the 32-byte tag field for a message given as parts.
    fn tag_parts(&self, parts: &[&[u8]]) -> Digest {
        MACS.with(|n| n.set(n.get() + 1));
        match self {
            Material::Hmac(k) => k.mac_parts(parts),
            Material::Sip(k) => {
                let tag = k.mac_parts(parts);
                let mut out = [0u8; 32];
                out[..16].copy_from_slice(&tag);
                Digest(out)
            }
        }
    }

    /// Compute the tag over one contiguous slice (the batched path).
    fn tag_slice(&self, msg: &[u8]) -> Digest {
        self.tag_parts(&[msg])
    }
}

/// A node's secret key material.
#[derive(Clone)]
pub struct NodeKey {
    id: KeyId,
    material: Material,
}

impl NodeKey {
    /// Deterministically derive a node key from a system-wide seed, for
    /// the default (HMAC-SHA-256) suite.
    ///
    /// Deterministic derivation keeps simulations reproducible; the seed
    /// plays the role of the out-of-band key-provisioning step that a real
    /// CPS deployment performs before the system goes live.
    pub fn derive(system_seed: u64, id: KeyId) -> Self {
        Self::derive_suite(system_seed, id, AuthSuite::default())
    }

    /// Derive a node key for a specific authenticator suite.
    pub fn derive_suite(system_seed: u64, id: KeyId, suite: AuthSuite) -> Self {
        NodeKey {
            id,
            material: Material::derive(system_seed, id, suite),
        }
    }
}

/// Signing handle held by a single node.
#[derive(Clone)]
pub struct Signer {
    key: NodeKey,
}

impl Signer {
    /// Create a signer from a node key.
    pub fn new(key: NodeKey) -> Self {
        Signer { key }
    }

    /// Sign a message (as a list of parts, MAC'd in order).
    pub fn sign_parts(&self, parts: &[&[u8]]) -> Signature {
        Signature {
            key: self.key.id,
            tag: self.key.material.tag_parts(parts),
        }
    }

    /// Sign a single message slice.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        self.sign_parts(&[msg])
    }

    /// The signer's principal id.
    pub fn id(&self) -> KeyId {
        self.key.id
    }
}

/// One staged entry of a [`SigBatch`].
#[derive(Clone, Copy)]
struct BatchItem {
    key: KeyId,
    start: usize,
    end: usize,
    tag: Digest,
    /// The caller already knows this item cannot verify (e.g. the
    /// claimed key id contradicts the record's producer field); it is
    /// carried so per-item results stay index-aligned, but no MAC is
    /// computed for it.
    prefailed: bool,
}

/// A batch of (message, signature) pairs staged for one verification
/// pass.
///
/// All messages share one contiguous scratch buffer: callers append each
/// message's canonical bytes via [`SigBatch::push_with`], then hand the
/// whole batch to [`KeyStore::verify_batch`], which MACs every staged
/// range in a single keyed pass. Compared to per-item
/// `KeyStore::verify`, this amortises the per-message setup — no
/// per-item buffer allocation or clearing, and one cache-friendly sweep
/// over contiguous bytes. The simulator uses it wherever a message
/// carries an evidence *set* (a task output plus its witnesses).
#[derive(Default)]
pub struct SigBatch {
    buf: Vec<u8>,
    items: Vec<BatchItem>,
}

impl SigBatch {
    /// An empty batch. Reuse one batch across messages: `clear` keeps
    /// the buffer capacity, so steady-state staging is allocation-free.
    pub fn new() -> SigBatch {
        SigBatch::default()
    }

    /// Drop all staged items, keeping capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.items.clear();
    }

    /// Stage one pair: `write` appends the message's canonical bytes to
    /// the shared buffer, and `sig` is the tag to verify over them.
    pub fn push_with(&mut self, sig: &Signature, write: impl FnOnce(&mut Vec<u8>)) {
        let start = self.buf.len();
        write(&mut self.buf);
        self.items.push(BatchItem {
            key: sig.key,
            start,
            end: self.buf.len(),
            tag: sig.tag,
            prefailed: false,
        });
    }

    /// Stage an item the caller has already rejected (keeps per-item
    /// results index-aligned with the inputs).
    pub fn push_prefailed(&mut self) {
        self.items.push(BatchItem {
            key: 0,
            start: 0,
            end: 0,
            tag: Digest::ZERO,
            prefailed: true,
        });
    }

    /// Staged item count.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl std::fmt::Debug for SigBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SigBatch({} items, {} bytes)",
            self.items.len(),
            self.buf.len()
        )
    }
}

/// Verification keystore installed on every node.
///
/// Holds verification material for all `n` principals. With the MAC
/// substitution the verification material *is* the key, but the API only
/// exposes `verify`, mirroring what an asymmetric scheme would offer.
#[derive(Clone)]
pub struct KeyStore {
    suite: AuthSuite,
    keys: Vec<Material>,
}

impl KeyStore {
    /// Build a keystore for principals `0..n`, all derived from `seed`,
    /// for the default (HMAC-SHA-256) suite.
    pub fn derive(system_seed: u64, n: usize) -> Self {
        Self::derive_suite(system_seed, n, AuthSuite::default())
    }

    /// Build a keystore for a specific authenticator suite.
    pub fn derive_suite(system_seed: u64, n: usize, suite: AuthSuite) -> Self {
        let keys = (0..n as KeyId)
            .map(|id| Material::derive(system_seed, id, suite))
            .collect();
        KeyStore { suite, keys }
    }

    /// The store's authenticator suite.
    pub fn suite(&self) -> AuthSuite {
        self.suite
    }

    /// True when this store verifies under `signer`'s id with exactly the
    /// key material `signer` signs with: then every tag `signer` makes
    /// verifies here, which a host may take on trust instead of
    /// recomputing it. A comparison of key material, no MAC.
    pub fn holds(&self, signer: &Signer) -> bool {
        self.keys.get(signer.key.id as usize) == Some(&signer.key.material)
    }

    /// Verify `sig` over `parts`.
    pub(crate) fn verify_parts(&self, sig: &Signature, parts: &[&[u8]]) -> Result<(), SigError> {
        let key = self
            .keys
            .get(sig.key as usize)
            .ok_or(SigError::UnknownKey(sig.key))?;
        if key.tag_parts(parts).ct_eq(&sig.tag) {
            Ok(())
        } else {
            Err(SigError::BadTag(sig.key))
        }
    }

    /// Verify `sig` over a single message slice.
    pub fn verify(&self, sig: &Signature, msg: &[u8]) -> Result<(), SigError> {
        self.verify_parts(sig, &[msg])
    }

    /// Verify every staged pair of `batch` in one pass over its shared
    /// buffer, appending one `bool` per item to `ok` (index-aligned with
    /// the staging order). Returns the number of items that verified.
    pub fn verify_batch(&self, batch: &SigBatch, ok: &mut Vec<bool>) -> usize {
        let mut valid = 0;
        for item in &batch.items {
            let good = !item.prefailed
                && match self.keys.get(item.key as usize) {
                    None => false,
                    Some(key) => {
                        let msg = &batch.buf[item.start..item.end];
                        key.tag_slice(msg).ct_eq(&item.tag)
                    }
                };
            ok.push(good);
            valid += usize::from(good);
        }
        valid
    }

    /// Like [`KeyStore::verify_batch`], but failing fast: `Ok` only when
    /// every staged pair verifies.
    pub fn verify_batch_all(&self, batch: &SigBatch) -> Result<(), SigError> {
        for item in &batch.items {
            if item.prefailed {
                return Err(SigError::BadTag(item.key));
            }
            let key = self
                .keys
                .get(item.key as usize)
                .ok_or(SigError::UnknownKey(item.key))?;
            let msg = &batch.buf[item.start..item.end];
            if !key.tag_slice(msg).ct_eq(&item.tag) {
                return Err(SigError::BadTag(item.key));
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for KeyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KeyStore({} keys, {})", self.keys.len(), self.suite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: usize) -> (Vec<Signer>, KeyStore) {
        setup_suite(n, AuthSuite::HmacSha256)
    }

    fn setup_suite(n: usize, suite: AuthSuite) -> (Vec<Signer>, KeyStore) {
        let signers = (0..n as KeyId)
            .map(|i| Signer::new(NodeKey::derive_suite(42, i, suite)))
            .collect();
        (signers, KeyStore::derive_suite(42, n, suite))
    }

    #[test]
    fn sign_verify_round_trip() {
        for suite in AuthSuite::ALL {
            let (signers, store) = setup_suite(4, suite);
            for s in &signers {
                let sig = s.sign(b"measurement 17");
                assert_eq!(store.verify(&sig, b"measurement 17"), Ok(()), "{suite}");
            }
        }
    }

    #[test]
    fn tampered_message_rejected() {
        for suite in AuthSuite::ALL {
            let (signers, store) = setup_suite(2, suite);
            let sig = signers[0].sign(b"open valve");
            assert_eq!(store.verify(&sig, b"close valve"), Err(SigError::BadTag(0)));
        }
    }

    #[test]
    fn wrong_claimed_signer_rejected() {
        for suite in AuthSuite::ALL {
            let (signers, store) = setup_suite(3, suite);
            let mut sig = signers[1].sign(b"hello");
            // A Byzantine node relabels the signature as coming from node 2.
            sig.key = 2;
            assert_eq!(store.verify(&sig, b"hello"), Err(SigError::BadTag(2)));
        }
    }

    #[test]
    fn unknown_key_rejected() {
        let (signers, store) = setup(2);
        let mut sig = signers[0].sign(b"hello");
        sig.key = 99;
        assert_eq!(store.verify(&sig, b"hello"), Err(SigError::UnknownKey(99)));
    }

    #[test]
    fn different_seeds_do_not_cross_verify() {
        for suite in AuthSuite::ALL {
            let signer = Signer::new(NodeKey::derive_suite(1, 0, suite));
            let store = KeyStore::derive_suite(2, 1, suite);
            let sig = signer.sign(b"msg");
            assert!(store.verify(&sig, b"msg").is_err());
        }
    }

    #[test]
    fn parts_equivalent_to_concat() {
        for suite in AuthSuite::ALL {
            let (signers, store) = setup_suite(1, suite);
            let sig = signers[0].sign_parts(&[b"ab", b"cd"]);
            assert_eq!(store.verify(&sig, b"abcd"), Ok(()));
        }
    }

    #[test]
    fn a_store_holds_exactly_the_signers_it_derived_and_spends_no_mac() {
        let macs = mac_count();
        for suite in AuthSuite::ALL {
            let (signers, store) = setup_suite(3, suite);
            assert!(signers.iter().all(|s| store.holds(s)), "{suite}");
            // Another seed, the other suite, an id past the store.
            let other = AuthSuite::ALL.into_iter().find(|&s| s != suite).unwrap();
            assert!(!store.holds(&Signer::new(NodeKey::derive_suite(43, 1, suite))));
            assert!(!store.holds(&Signer::new(NodeKey::derive_suite(42, 1, other))));
            assert!(!store.holds(&Signer::new(NodeKey::derive_suite(42, 3, suite))));
            // Node 2's key under node 1's id.
            let relabelled = Signer::new(NodeKey {
                id: 1,
                ..NodeKey::derive_suite(42, 2, suite)
            });
            assert!(!store.holds(&relabelled));
        }
        assert_eq!(mac_count(), macs);
    }

    #[test]
    fn keystore_len() {
        let store = KeyStore::derive(7, 5);
        assert_eq!(store.keys.len(), 5);
        assert!(KeyStore::derive(7, 0).keys.is_empty());
    }

    #[test]
    fn hmac_tags_are_bit_stable() {
        // The default suite's derivation and tag layout are pinned: this
        // exact tag predates the AuthSuite refactor, so any change to
        // the HMAC derivation chain breaks the golden.
        let s = Signer::new(NodeKey::derive(42, 0));
        let sig = s.sign(b"measurement 17");
        assert_eq!(
            sig.tag.to_hex(),
            "3c827d397eb7b445afb231e415fec1839db0c40f898733b7702d57668c1848fc"
        );
    }

    #[test]
    fn suites_are_selected_and_disjoint() {
        let hmac = Signer::new(NodeKey::derive_suite(42, 0, AuthSuite::HmacSha256));
        let sip = Signer::new(NodeKey::derive_suite(42, 0, AuthSuite::SipHash24));
        let a = hmac.sign(b"msg");
        let b = sip.sign(b"msg");
        assert_ne!(a.tag, b.tag);
        // SipHash tags are 16 bytes, zero-padded into the 32-byte field.
        assert_eq!(&b.tag.0[16..], &[0u8; 16]);
        assert_ne!(&b.tag.0[..16], &[0u8; 16]);
        // A suite's store rejects the other suite's tags.
        let hmac_ks = KeyStore::derive_suite(42, 1, AuthSuite::HmacSha256);
        let sip_ks = KeyStore::derive_suite(42, 1, AuthSuite::SipHash24);
        assert!(hmac_ks.verify(&b, b"msg").is_err());
        assert!(sip_ks.verify(&a, b"msg").is_err());
        assert_eq!(sip_ks.suite(), AuthSuite::SipHash24);
    }

    #[test]
    fn sip_padding_is_canonical() {
        // A tag whose zero padding was tampered with must not verify,
        // even though the 16 tag bytes are right.
        let (signers, store) = setup_suite(1, AuthSuite::SipHash24);
        let mut sig = signers[0].sign(b"msg");
        sig.tag.0[31] = 1;
        assert_eq!(store.verify(&sig, b"msg"), Err(SigError::BadTag(0)));
    }

    #[test]
    fn suite_names_round_trip() {
        for suite in AuthSuite::ALL {
            assert_eq!(AuthSuite::parse(suite.name()), Some(suite));
            assert_eq!(AuthSuite::parse(suite.token()), Some(suite));
        }
        assert_eq!(AuthSuite::parse("rot13"), None);
        assert_eq!(AuthSuite::default(), AuthSuite::HmacSha256);
        assert_eq!(format!("{}", AuthSuite::SipHash24), "siphash24");
    }

    #[test]
    fn batch_matches_single_verification() {
        for suite in AuthSuite::ALL {
            let (signers, store) = setup_suite(4, suite);
            let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 16 + i as usize]).collect();
            let sigs: Vec<Signature> = msgs.iter().zip(&signers).map(|(m, s)| s.sign(m)).collect();

            let mut batch = SigBatch::new();
            for (m, sig) in msgs.iter().zip(&sigs) {
                batch.push_with(sig, |buf| buf.extend_from_slice(m));
            }
            assert_eq!(batch.len(), 4);
            let mut ok = Vec::new();
            assert_eq!(store.verify_batch(&batch, &mut ok), 4, "{suite}");
            assert!(ok.iter().all(|&b| b));
            assert_eq!(store.verify_batch_all(&batch), Ok(()));

            // Corrupt one message: exactly that item fails, positions
            // stay aligned.
            batch.clear();
            assert!(batch.is_empty());
            for (i, (m, sig)) in msgs.iter().zip(&sigs).enumerate() {
                batch.push_with(sig, |buf| {
                    buf.extend_from_slice(m);
                    if i == 2 {
                        buf.push(0xff);
                    }
                });
            }
            ok.clear();
            assert_eq!(store.verify_batch(&batch, &mut ok), 3);
            assert_eq!(ok, vec![true, true, false, true]);
            assert!(store.verify_batch_all(&batch).is_err());
        }
    }

    #[test]
    fn batch_prefailed_items_stay_aligned() {
        let (signers, store) = setup(2);
        let sig = signers[1].sign(b"fine");
        let mut batch = SigBatch::new();
        batch.push_prefailed();
        batch.push_with(&sig, |buf| buf.extend_from_slice(b"fine"));
        let mut ok = Vec::new();
        assert_eq!(store.verify_batch(&batch, &mut ok), 1);
        assert_eq!(ok, vec![false, true]);
        assert!(store.verify_batch_all(&batch).is_err());
        assert_eq!(format!("{batch:?}"), "SigBatch(2 items, 4 bytes)");
    }

    #[test]
    fn batch_rejects_unknown_keys() {
        let (signers, store) = setup(1);
        let mut sig = signers[0].sign(b"x");
        sig.key = 9;
        let mut batch = SigBatch::new();
        batch.push_with(&sig, |buf| buf.extend_from_slice(b"x"));
        let mut ok = Vec::new();
        assert_eq!(store.verify_batch(&batch, &mut ok), 0);
        assert_eq!(store.verify_batch_all(&batch), Err(SigError::UnknownKey(9)));
    }

    #[test]
    fn mac_count_tallies_every_tag_on_this_thread_only() {
        for suite in AuthSuite::ALL {
            let (signers, store) = setup_suite(2, suite);
            let t0 = mac_count();
            let sig = signers[0].sign(b"one");
            assert_eq!(mac_count() - t0, 1, "{suite}: sign");
            store.verify(&sig, b"one").unwrap();
            assert_eq!(mac_count() - t0, 2, "{suite}: verify");
            // A batch spends one MAC per staged item, none on a
            // pre-failed one.
            let mut batch = SigBatch::new();
            batch.push_prefailed();
            batch.push_with(&sig, |buf| buf.extend_from_slice(b"one"));
            batch.push_with(&sig, |buf| buf.extend_from_slice(b"two"));
            store.verify_batch(&batch, &mut Vec::new());
            assert_eq!(mac_count() - t0, 4, "{suite}: batch");
            // Another thread's MACs are that thread's.
            let elsewhere = std::thread::spawn(move || {
                signers[1].sign(b"away");
                mac_count()
            });
            assert_eq!(elsewhere.join().unwrap(), 1);
            assert_eq!(mac_count() - t0, 4, "{suite}: other thread");
        }
    }

    #[test]
    fn signature_debug_is_stable() {
        let s = Signer::new(NodeKey::derive(5, 3));
        let sig = s.sign(b"dbg");
        let rendered = format!("{sig:?}");
        assert_eq!(rendered, format!("Sig(k3,{})", sig.tag.short()));
    }
}
