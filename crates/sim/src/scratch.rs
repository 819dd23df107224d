//! The host's half of authenticating: the buffer signing bytes are laid
//! out in, and a memo of what the keystore would accept — because it
//! already has, or because the host has just computed the tag itself.

use btr_crypto::{Digest, KeyStore, SigError, Signature, Signer};

/// What a host lends, beside the seat, to every [`NodeCtx`] it binds:
/// reusable room for the canonical bytes of whatever is being signed or
/// verified, and the memo that lets a tag be computed once per host:
/// where it is signed, and by nobody who receives it.
///
/// A scratch serves one keystore for its whole life (a world's): what
/// the memo remembers is that keystore's verdicts. A fresh one is empty,
/// and its memo takes no memory until the first multicast: only the
/// copies of a multicast are verified one after another against one
/// keystore, so a host that never sends one has nothing worth
/// remembering.
///
/// [`NodeCtx`]: crate::NodeCtx
#[derive(Default)]
pub struct Scratch {
    pub(crate) buf: Vec<u8>,
    pub(crate) memo: VerifyMemo,
}

impl Scratch {
    /// A multicast went out through this host: from here on remembering
    /// verdicts pays. (Unicast-only worlds never get here.)
    pub(crate) fn saw_multicast(&mut self) {
        self.memo.arm();
    }

    /// `signer` has just made `sig` over the signing bytes in `buf`:
    /// remember the triple if `ks` verifies `sig.key` with `signer`'s very
    /// key (then `ks.verify` would accept it), so that no receiver on
    /// this host computes the tag again.
    pub(crate) fn signed(&mut self, ks: &KeyStore, signer: &Signer, sig: &Signature) {
        self.memo.remember_signed(ks, signer, sig, &self.buf);
    }

    /// Heap bytes the memo holds (its whole footprint: it never grows).
    #[cfg(test)]
    pub(crate) fn memo_bytes(&self) -> usize {
        self.memo.log.capacity() + self.memo.index.capacity() * std::mem::size_of::<u16>()
    }
}

/// Bytes of entry log. With the index, all the memo ever holds.
const LOG_BYTES: usize = 32 * 1024;
/// Index slots: twice the entries a log may hold, so a probe always ends.
const INDEX_SLOTS: usize = 1024;
const MAX_ENTRIES: usize = INDEX_SLOTS / 2;
/// Signing bytes longer than this are not remembered (MAC-checked every
/// time): one oversized record must not flush everything else.
pub(crate) const MAX_MSG: usize = LOG_BYTES / 8;
/// Key id, tag, length.
const HEADER: usize = 4 + 32 + 2;
const EMPTY: u16 = u16::MAX;
// Entry offsets and lengths are kept in sixteen bits.
const _: () = assert!(LOG_BYTES < EMPTY as usize);

/// An exact memo of `(key id, tag, signing bytes)` triples that
/// `KeyStore::verify` accepts: ones it has accepted, and ones signed on
/// this host under a key the keystore holds for that id.
///
/// `KeyStore::verify` is a pure function of the keystore and the triple,
/// so a triple byte-equal to one it accepted is accepted again without
/// computing the MAC. So is a triple the host's own signer just made, if
/// the keystore's material for the signer's id equals the signer's: the
/// keystore would compute the very same tag over the very same bytes.
/// Anything else — one differing byte anywhere, a triple never seen, one
/// that failed, one signed under a key the keystore does not hold — is
/// MAC-checked as if there were no memo. Failures are never remembered.
/// The comparison needs no constant-time care: a remembered tag is the
/// valid tag of the remembered bytes, and both cross the network in the
/// clear.
///
/// Entries (`key id | tag | length | bytes`) are appended to one small
/// log and found through an open-addressed index on two tag bytes; when
/// the log or the index is full both are emptied and filling starts
/// over. A flush costs each multicast still in flight one more MAC,
/// nothing else.
#[derive(Default)]
pub(crate) struct VerifyMemo {
    /// Empty until armed, `LOG_BYTES` of capacity after.
    log: Vec<u8>,
    /// Empty until armed; then per slot an entry's offset in `log`, or
    /// `EMPTY`.
    index: Vec<u16>,
    entries: usize,
}

impl VerifyMemo {
    fn arm(&mut self) {
        if self.index.is_empty() {
            self.log.reserve_exact(LOG_BYTES);
            self.index.resize(INDEX_SLOTS, EMPTY);
        }
    }

    /// `ks.verify(sig, msg)`, from memory when it can be (never, until
    /// armed).
    pub(crate) fn verify(
        &mut self,
        ks: &KeyStore,
        sig: &Signature,
        msg: &[u8],
    ) -> Result<(), SigError> {
        if self.index.is_empty() || msg.len() > MAX_MSG {
            return ks.verify(sig, msg);
        }
        let slot = match self.find(sig, msg) {
            Ok(()) => return Ok(()),
            Err(free) => free,
        };
        ks.verify(sig, msg)?;
        self.remember(slot, sig, msg);
        Ok(())
    }

    /// `signer` made `sig` over `msg`; remember that `ks.verify(sig, msg)`
    /// accepts it if `ks` holds `signer`'s key (nothing, until armed).
    fn remember_signed(&mut self, ks: &KeyStore, signer: &Signer, sig: &Signature, msg: &[u8]) {
        if self.index.is_empty()
            || msg.len() > MAX_MSG
            || sig.key != signer.id()
            || !ks.holds(signer)
        {
            return;
        }
        if let Err(slot) = self.find(sig, msg) {
            self.remember(slot, sig, msg);
        }
    }

    fn first_slot(tag: &Digest) -> usize {
        u16::from_le_bytes([tag.0[0], tag.0[1]]) as usize % INDEX_SLOTS
    }

    /// `Ok` if the triple is held, else the free slot its probe ended on.
    fn find(&self, sig: &Signature, msg: &[u8]) -> Result<(), usize> {
        let mut slot = Self::first_slot(&sig.tag);
        // Ends: at most `MAX_ENTRIES` of the slots are taken.
        loop {
            let at = self.index[slot];
            if at == EMPTY {
                return Err(slot);
            }
            let entry = &self.log[at as usize..];
            let len = u16::from_le_bytes([entry[36], entry[37]]) as usize;
            if entry[..4] == sig.key.to_le_bytes()
                && entry[4..36] == sig.tag.0
                && len == msg.len()
                && entry[HEADER..HEADER + len] == *msg
            {
                return Ok(());
            }
            slot = (slot + 1) % INDEX_SLOTS;
        }
    }

    /// Append an accepted triple; `slot` is where `find` stopped.
    fn remember(&mut self, mut slot: usize, sig: &Signature, msg: &[u8]) {
        if self.entries == MAX_ENTRIES || self.log.len() + HEADER + msg.len() > LOG_BYTES {
            self.log.clear();
            self.index.fill(EMPTY);
            self.entries = 0;
            slot = Self::first_slot(&sig.tag);
        }
        self.index[slot] = self.log.len() as u16;
        self.entries += 1;
        self.log.extend_from_slice(&sig.key.to_le_bytes());
        self.log.extend_from_slice(&sig.tag.0);
        self.log
            .extend_from_slice(&(msg.len() as u16).to_le_bytes());
        self.log.extend_from_slice(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_crypto::{NodeKey, Signer};

    fn armed() -> VerifyMemo {
        let mut memo = VerifyMemo::default();
        memo.arm();
        memo
    }

    #[test]
    fn another_key_id_under_a_remembered_tag_is_mac_checked() {
        // Envelopes and outputs name their signer inside the signed
        // bytes, so the hosts' gates never let this through; the memo
        // does not lean on them.
        let ks = KeyStore::derive(5, 3);
        let sig = Signer::new(NodeKey::derive(5, 1)).sign(b"payload");
        let mut memo = armed();
        assert_eq!(memo.verify(&ks, &sig, b"payload"), Ok(()));
        for key in [0, 2, 9] {
            let other = Signature { key, ..sig };
            let cold = ks.verify(&other, b"payload");
            assert!(cold.is_err());
            let macs = btr_crypto::mac_count();
            assert_eq!(memo.verify(&ks, &other, b"payload"), cold);
            // (An unknown key fails before its MAC, as it does cold.)
            assert_eq!(btr_crypto::mac_count() - macs, u64::from(key < 3));
        }
        let macs = btr_crypto::mac_count();
        assert_eq!(memo.verify(&ks, &sig, b"payload"), Ok(()));
        assert_eq!(memo.verify(&ks, &sig, b"payloae"), Err(SigError::BadTag(1)));
        assert_eq!(btr_crypto::mac_count() - macs, 1);
    }

    #[test]
    fn a_signed_triple_answers_as_a_cold_verify_and_nothing_else_is_spared() {
        let ks = KeyStore::derive(5, 3);
        let signer = Signer::new(NodeKey::derive(5, 1));
        let sig = signer.sign(b"payload");
        let mut memo = armed();
        memo.remember_signed(&ks, &signer, &sig, b"payload");
        let macs = btr_crypto::mac_count();
        assert_eq!(
            memo.verify(&ks, &sig, b"payload"),
            ks.verify(&sig, b"payload")
        );
        assert_eq!(btr_crypto::mac_count() - macs, 1, "only the cold one");
        // Near misses of the seeded triple pay their MAC and fail, every
        // time (a failure is not remembered).
        let mut flipped = sig;
        flipped.tag.0[7] ^= 0x10;
        let near: [(Signature, &[u8]); 4] = [
            (flipped, b"payload"),
            (Signature { key: 2, ..sig }, b"payload"),
            (sig, b"payloae"),
            (sig, b"payload!"),
        ];
        for (i, (s, msg)) in near.iter().enumerate() {
            for _ in 0..2 {
                let macs = btr_crypto::mac_count();
                assert!(memo.verify(&ks, s, msg).is_err(), "near miss {i}");
                assert_eq!(btr_crypto::mac_count() - macs, 1, "near miss {i}");
            }
        }
        // A signer whose key the keystore does not hold — another seed,
        // the other suite — seeds nothing: the keystore rejects its tags,
        // and so does the memo.
        let strangers = [
            Signer::new(NodeKey::derive(6, 1)),
            Signer::new(NodeKey::derive_suite(
                5,
                1,
                btr_crypto::AuthSuite::SipHash24,
            )),
        ];
        for (i, stranger) in strangers.iter().enumerate() {
            let sig = stranger.sign(b"forged");
            memo.remember_signed(&ks, stranger, &sig, b"forged");
            assert_eq!(memo.entries, 1, "stranger {i} seeded nothing");
            let macs = btr_crypto::mac_count();
            assert_eq!(memo.verify(&ks, &sig, b"forged"), Err(SigError::BadTag(1)));
            assert_eq!(btr_crypto::mac_count() - macs, 1);
        }
        // Nor does a tag claimed under an id other than the signer's.
        let relabelled = Signature {
            key: 2,
            ..signer.sign(b"mine")
        };
        memo.remember_signed(&ks, &signer, &relabelled, b"mine");
        assert_eq!(memo.entries, 1);
        // And an unarmed memo (a unicast world's) takes
        // nothing at all.
        let mut off = VerifyMemo::default();
        off.remember_signed(&ks, &signer, &sig, b"payload");
        assert_eq!((off.entries, off.log.capacity()), (0, 0));
    }

    #[test]
    fn a_full_memo_starts_over_and_stays_exact() {
        let ks = KeyStore::derive(5, 2);
        let signer = Signer::new(NodeKey::derive(5, 1));
        let mut memo = armed();
        let msg = |i: u32| [i.to_be_bytes(); 40].concat();
        // More triples than the index takes, then than the log takes.
        for round in 0..2 {
            for i in 0..3 * MAX_ENTRIES as u32 {
                let (sig, msg) = (signer.sign(&msg(i)), msg(i));
                assert_eq!(memo.verify(&ks, &sig, &msg), Ok(()));
                let macs = btr_crypto::mac_count();
                assert_eq!(memo.verify(&ks, &sig, &msg), Ok(()), "round {round}");
                assert_eq!(btr_crypto::mac_count() - macs, 0, "just remembered");
                assert!(memo.entries <= MAX_ENTRIES && memo.log.len() <= LOG_BYTES);
            }
        }
        assert_eq!(memo.log.capacity(), LOG_BYTES);
        // A forgery over remembered bytes, whatever slot it probes from.
        let (mut sig, bytes) = (signer.sign(&msg(1)), msg(1));
        assert_eq!(memo.verify(&ks, &sig, &bytes), Ok(()));
        for b in 0..32 {
            sig.tag.0[b] ^= 0x80;
            assert_eq!(memo.verify(&ks, &sig, &bytes), Err(SigError::BadTag(1)));
            sig.tag.0[b] ^= 0x80;
        }
    }
}
