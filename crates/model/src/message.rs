//! Wire messages.
//!
//! Everything nodes exchange is an [`Envelope`] carrying a [`Payload`].
//! Envelopes are signed by their sender so that receivers can attribute
//! traffic; the payloads that need independent lives of their own
//! (task outputs, evidence) additionally carry their own signatures.

use crate::enc::Enc;
use crate::evidence::{EvidenceRecord, SignedOutput};
use crate::ids::{NodeId, PeriodIdx, PlanId, TaskId};
use crate::time::Time;
use btr_crypto::{KeyStore, SigError, Signature, Signer};

/// Phases of the PBFT-lite baseline's agreement round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PbftPhase {
    /// Leader proposes a value.
    PrePrepare,
    /// Replicas echo the proposal.
    Prepare,
    /// Replicas commit.
    Commit,
}

/// Message payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A task output on the data plane, carrying the signed inputs the
    /// producer consumed ("witnesses") so checkers can verify the
    /// commitment and assign blame without extra round trips.
    Output {
        /// The signed output.
        output: SignedOutput,
        /// The signed inputs the producer consumed (empty for sources).
        witnesses: Vec<SignedOutput>,
    },
    /// Periodic liveness beacon.
    Heartbeat {
        /// The sender's current period.
        period: PeriodIdx,
    },
    /// A piece of fault evidence (control plane, Section 4.3).
    Evidence(EvidenceRecord),
    /// A chunk of migrating task state during a mode change (Section 4.4).
    StateTransfer {
        /// The migrating task.
        task: TaskId,
        /// Plan the state is migrating into.
        to_plan: PlanId,
        /// Chunk sequence number.
        seq: u32,
        /// Total number of chunks.
        total: u32,
        /// Bytes of task state in this chunk.
        bytes: u32,
    },
    /// Acknowledgement that the sender will activate `plan` at the given time.
    ModeAck {
        /// The plan being activated.
        plan: PlanId,
        /// Activation instant (global time).
        activate_at: Time,
    },
    /// Agreement traffic for the PBFT-lite baseline.
    Pbft {
        /// Task whose output is being agreed on.
        task: TaskId,
        /// Release period.
        period: PeriodIdx,
        /// Proposed/echoed value.
        value: u64,
        /// Protocol phase.
        phase: PbftPhase,
        /// View number.
        view: u32,
    },
    /// ZZ baseline: wake a dormant replica.
    Wake {
        /// Task whose dormant replica should start.
        task: TaskId,
        /// Period at which disagreement was noticed.
        period: PeriodIdx,
    },
    /// Self-stabilisation baseline: audit probe/response.
    Audit {
        /// Task being audited.
        about: TaskId,
        /// Period being audited.
        period: PeriodIdx,
        /// The value the audited node reported.
        value: u64,
    },
    /// Small control message (tests and custom protocols).
    Control(u8),
}

impl Payload {
    /// Canonical bytes for envelope signing.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new("btr-payload");
        self.encode_into(&mut e);
        e.finish()
    }

    /// Exact length of [`Payload::canonical_bytes`] without materialising
    /// it: a counting pass, allocation-free for every variant.
    pub fn canonical_len(&self) -> usize {
        let mut e = Enc::count("btr-payload");
        self.encode_into(&mut e);
        e.len()
    }

    /// Write the canonical encoding (sans domain prefix) into `e`.
    pub(crate) fn encode_into(&self, e: &mut Enc<'_>) {
        match self {
            Payload::Output { output, witnesses } => {
                e.u8(0).u64(SignedOutput::CANONICAL_ID_LEN as u64);
                output.encode_id(e);
                e.u32(witnesses.len() as u32);
                for w in witnesses {
                    e.u64(SignedOutput::CANONICAL_ID_LEN as u64);
                    w.encode_id(e);
                }
            }
            Payload::Heartbeat { period } => {
                e.u8(1).u64(*period);
            }
            Payload::Evidence(ev) => {
                // In place of `e.bytes(&ev.canonical_bytes())`.
                e.u8(2).nested(|e| {
                    e.bytes(b"btr-evidence");
                    ev.encode_into(e);
                });
            }
            Payload::StateTransfer {
                task,
                to_plan,
                seq,
                total,
                bytes,
            } => {
                e.u8(3)
                    .u32(task.0)
                    .u32(to_plan.0)
                    .u32(*seq)
                    .u32(*total)
                    .u32(*bytes);
            }
            Payload::ModeAck { plan, activate_at } => {
                e.u8(4).u32(plan.0).u64(activate_at.0);
            }
            Payload::Pbft {
                task,
                period,
                value,
                phase,
                view,
            } => {
                let ph = match phase {
                    PbftPhase::PrePrepare => 0,
                    PbftPhase::Prepare => 1,
                    PbftPhase::Commit => 2,
                };
                e.u8(5)
                    .u32(task.0)
                    .u64(*period)
                    .u64(*value)
                    .u8(ph)
                    .u32(*view);
            }
            Payload::Wake { task, period } => {
                e.u8(6).u32(task.0).u64(*period);
            }
            Payload::Audit {
                about,
                period,
                value,
            } => {
                e.u8(7).u32(about.0).u64(*period).u64(*value);
            }
            Payload::Control(tag) => {
                e.u8(8).u8(*tag);
            }
        }
    }

    /// Bytes this payload occupies on the wire (approximate but stable).
    ///
    /// `StateTransfer` counts the carried state bytes; everything else is
    /// sized by its canonical encoding. Computed by counting, not by
    /// building the encoding — this runs once per transmitted message.
    pub fn wire_size(&self) -> u32 {
        match self {
            Payload::StateTransfer { bytes, .. } => 24 + *bytes,
            other => other.canonical_len() as u32,
        }
    }

    /// Short label for traces.
    pub fn label(&self) -> &'static str {
        match self {
            Payload::Output { .. } => "output",
            Payload::Heartbeat { .. } => "heartbeat",
            Payload::Evidence(_) => "evidence",
            Payload::StateTransfer { .. } => "state",
            Payload::ModeAck { .. } => "mode-ack",
            Payload::Pbft { .. } => "pbft",
            Payload::Wake { .. } => "wake",
            Payload::Audit { .. } => "audit",
            Payload::Control(_) => "control",
        }
    }
}

/// A message in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Sender's claimed send time (covered by the signature).
    pub sent_at: Time,
    /// The payload.
    pub payload: Payload,
    /// Sender's signature over (src, sent_at, payload).
    pub sig: Option<Signature>,
}

/// Fixed per-envelope header bytes on the wire.
pub const ENVELOPE_HEADER_BYTES: u32 = 28;
/// Wire bytes for an envelope signature: a 4-byte key id plus the fixed
/// 32-byte authenticator field. Both authenticator suites share the
/// field (SipHash-2-4 tags are zero-padded; see `btr_crypto::AuthSuite`),
/// so message sizes — and therefore link serialisation timings — are
/// bit-identical across suites and only CPU cost differs. The
/// cross-suite differential oracles rely on this.
pub const SIGNATURE_BYTES: u32 = 36;

impl Envelope {
    /// Create an unsigned envelope.
    pub fn new(src: NodeId, dst: NodeId, sent_at: Time, payload: Payload) -> Envelope {
        Envelope {
            src,
            dst,
            sent_at,
            payload,
            sig: None,
        }
    }

    /// The canonical bytes an envelope signature covers. Public so that
    /// evidence records can re-verify a sender's envelope signature from
    /// its reconstructed parts (see `EvidenceRecord::BadWitness`).
    pub fn signing_bytes_for(src: NodeId, sent_at: Time, payload: &Payload) -> Vec<u8> {
        let mut buf = Vec::new();
        Self::write_signing_bytes(src, sent_at, payload, &mut buf);
        buf
    }

    /// Write the canonical signing bytes into a caller-owned scratch
    /// buffer (cleared first). Byte-identical to
    /// [`Envelope::signing_bytes_for`], but allocation-free once the
    /// scratch has warmed up — this is the simulator's per-message path.
    pub fn write_signing_bytes(src: NodeId, sent_at: Time, payload: &Payload, buf: &mut Vec<u8>) {
        let mut e = Enc::over(buf, "btr-envelope");
        e.u32(src.0).u64(sent_at.0);
        // Stream the payload encoding in place of
        // `e.bytes(&payload.canonical_bytes())`: length prefix, then the
        // payload's own domain tag and body, in one pass.
        e.nested(|e| {
            e.bytes(b"btr-payload");
            payload.encode_into(e);
        });
    }

    /// Sign the envelope as `signer` (must match `src` to verify).
    pub fn signed(self, signer: &Signer) -> Envelope {
        let mut scratch = Vec::new();
        self.signed_with(signer, &mut scratch)
    }

    /// Like [`Envelope::signed`], writing the signing bytes into a
    /// reusable scratch buffer instead of allocating.
    pub fn signed_with(mut self, signer: &Signer, scratch: &mut Vec<u8>) -> Envelope {
        self.sig = Some(Self::sign_parts(
            signer,
            self.src,
            self.sent_at,
            &self.payload,
            scratch,
        ));
        self
    }

    /// The signature [`Envelope::signed_with`] would stamp on an envelope
    /// of these parts. The signed bytes cover `(src, sent_at, payload)`
    /// and *not* the destination, so one signature is valid on the copy
    /// sent to every destination: a multicast signs once and stamps it
    /// on each envelope (`NodeCtx::send_many`).
    pub fn sign_parts(
        signer: &Signer,
        src: NodeId,
        sent_at: Time,
        payload: &Payload,
        scratch: &mut Vec<u8>,
    ) -> Signature {
        Self::write_signing_bytes(src, sent_at, payload, scratch);
        signer.sign(scratch)
    }

    /// Verify the envelope signature against the claimed source.
    pub fn verify(&self, ks: &KeyStore) -> Result<(), SigError> {
        self.verify_by(&mut Vec::new(), |sig, msg| ks.verify(sig, msg))
    }

    /// [`Envelope::verify`] with the MAC check handed to the caller: the
    /// attribution gate (signed, and by the claimed source), then the
    /// signing bytes laid out in the reusable `scratch`, then
    /// `check(sig, bytes)`. A host passes `KeyStore::verify` behind its
    /// memo of what that has already accepted.
    pub fn verify_by(
        &self,
        scratch: &mut Vec<u8>,
        check: impl FnOnce(&Signature, &[u8]) -> Result<(), SigError>,
    ) -> Result<(), SigError> {
        match &self.sig {
            Some(sig) if sig.key == self.src.0 => {
                Self::write_signing_bytes(self.src, self.sent_at, &self.payload, scratch);
                check(sig, scratch)
            }
            _ => Err(SigError::BadTag(self.src.0)),
        }
    }

    /// Total wire size in bytes.
    pub fn wire_size(&self) -> u32 {
        ENVELOPE_HEADER_BYTES
            + self.payload.wire_size()
            + if self.sig.is_some() {
                SIGNATURE_BYTES
            } else {
                0
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_crypto::NodeKey;

    fn signer(i: u32) -> Signer {
        Signer::new(NodeKey::derive(5, i))
    }

    fn ks() -> KeyStore {
        KeyStore::derive(5, 4)
    }

    #[test]
    fn sign_verify_round_trip() {
        let env = Envelope::new(
            NodeId(1),
            NodeId(2),
            Time(500),
            Payload::Heartbeat { period: 3 },
        )
        .signed(&signer(1));
        assert_eq!(env.verify(&ks()), Ok(()));
    }

    #[test]
    fn unsigned_envelope_rejected() {
        let env = Envelope::new(NodeId(1), NodeId(2), Time(0), Payload::Control(1));
        assert!(env.verify(&ks()).is_err());
    }

    #[test]
    fn spoofed_source_rejected() {
        // Node 3 signs but claims to be node 1.
        let env =
            Envelope::new(NodeId(1), NodeId(2), Time(0), Payload::Control(1)).signed(&signer(3));
        assert!(env.verify(&ks()).is_err());
    }

    #[test]
    fn tampered_payload_rejected() {
        let mut env =
            Envelope::new(NodeId(1), NodeId(2), Time(0), Payload::Control(1)).signed(&signer(1));
        env.payload = Payload::Control(2);
        assert!(env.verify(&ks()).is_err());
    }

    #[test]
    fn tampered_send_time_rejected() {
        let mut env =
            Envelope::new(NodeId(1), NodeId(2), Time(0), Payload::Control(1)).signed(&signer(1));
        env.sent_at = Time(99);
        assert!(env.verify(&ks()).is_err());
    }

    #[test]
    fn wire_sizes_are_sane() {
        let hb = Envelope::new(
            NodeId(0),
            NodeId(1),
            Time(0),
            Payload::Heartbeat { period: 0 },
        );
        let signed = hb.clone().signed(&signer(0));
        assert_eq!(signed.wire_size(), hb.wire_size() + SIGNATURE_BYTES);

        let st = Payload::StateTransfer {
            task: TaskId(1),
            to_plan: PlanId(2),
            seq: 0,
            total: 1,
            bytes: 1000,
        };
        assert_eq!(st.wire_size(), 1024);
    }

    #[test]
    fn payload_labels() {
        assert_eq!(Payload::Control(0).label(), "control");
        assert_eq!(Payload::Heartbeat { period: 1 }.label(), "heartbeat");
    }

    fn sample_payloads() -> Vec<Payload> {
        let so = |t: u32, v: u64| {
            crate::evidence::SignedOutput::sign(&signer(1), TaskId(t), 0, 3, v, 9, NodeId(1))
        };
        vec![
            Payload::Output {
                output: so(1, 10),
                witnesses: vec![so(2, 20), so(3, 30)],
            },
            Payload::Heartbeat { period: 42 },
            Payload::Evidence(EvidenceRecord::declare_crash(
                &signer(1),
                NodeId(1),
                NodeId(2),
                4,
            )),
            Payload::Evidence(EvidenceRecord::BadComputation {
                accused: NodeId(1),
                output: so(1, 10),
                inputs: vec![so(2, 20), so(3, 30)],
            }),
            Payload::StateTransfer {
                task: TaskId(1),
                to_plan: PlanId(2),
                seq: 0,
                total: 4,
                bytes: 512,
            },
            Payload::ModeAck {
                plan: PlanId(1),
                activate_at: Time(77),
            },
            Payload::Pbft {
                task: TaskId(3),
                period: 5,
                value: 6,
                phase: PbftPhase::Prepare,
                view: 1,
            },
            Payload::Wake {
                task: TaskId(4),
                period: 8,
            },
            Payload::Audit {
                about: TaskId(5),
                period: 9,
                value: 10,
            },
            Payload::Control(7),
        ]
    }

    #[test]
    fn canonical_len_matches_canonical_bytes() {
        for p in sample_payloads() {
            assert_eq!(
                p.canonical_len(),
                p.canonical_bytes().len(),
                "length mismatch for {:?}",
                p.label()
            );
        }
    }

    #[test]
    fn scratch_signing_bytes_match_allocating_path() {
        let mut scratch = vec![0xffu8; 3]; // Dirty scratch must be cleared.
        for p in sample_payloads() {
            let owned = Envelope::signing_bytes_for(NodeId(3), Time(99), &p);
            Envelope::write_signing_bytes(NodeId(3), Time(99), &p, &mut scratch);
            assert_eq!(scratch, owned, "scratch mismatch for {:?}", p.label());
        }
    }

    #[test]
    fn streamed_encodings_match_the_nested_vectors_they_replace() {
        for p in sample_payloads() {
            // The envelope's signing bytes embed the payload's canonical
            // bytes as one length-prefixed string ...
            let mut reference = Enc::new("btr-envelope");
            reference.u32(3).u64(99).bytes(&p.canonical_bytes());
            assert_eq!(
                Envelope::signing_bytes_for(NodeId(3), Time(99), &p),
                reference.finish(),
                "envelope over {:?}",
                p.label()
            );
            // ... and an evidence payload embeds the record's the same way.
            if let Payload::Evidence(ev) = &p {
                let mut reference = Enc::new("btr-payload");
                reference.u8(2).bytes(&ev.canonical_bytes());
                assert_eq!(p.canonical_bytes(), reference.finish());
                assert_eq!(ev.wire_size() as usize, ev.canonical_bytes().len());
                assert_eq!(ev.id_with(&mut vec![1, 2, 3]), ev.id());
            }
        }
    }

    #[test]
    fn signed_with_equals_signed() {
        let mut scratch = Vec::new();
        for p in sample_payloads() {
            let a = Envelope::new(NodeId(1), NodeId(2), Time(5), p.clone()).signed(&signer(1));
            let b = Envelope::new(NodeId(1), NodeId(2), Time(5), p)
                .signed_with(&signer(1), &mut scratch);
            assert_eq!(a, b);
            assert_eq!(a.verify_by(&mut scratch, |s, m| ks().verify(s, m)), Ok(()));
        }
    }

    #[test]
    fn canonical_bytes_distinguish_variants() {
        let a = Payload::Heartbeat { period: 1 }.canonical_bytes();
        let b = Payload::Control(1).canonical_bytes();
        assert_ne!(a, b);
        let c = Payload::Wake {
            task: TaskId(1),
            period: 1,
        }
        .canonical_bytes();
        let d = Payload::Audit {
            about: TaskId(1),
            period: 1,
            value: 0,
        }
        .canonical_bytes();
        assert_ne!(c, d);
    }
}
