//! Wire messages.
//!
//! Everything nodes exchange is an [`Envelope`] carrying a [`Payload`].
//! Envelopes are signed by their sender so that receivers can attribute
//! traffic; the payloads that need independent lives of their own
//! (task outputs, evidence) additionally carry their own signatures.

use crate::enc::{self, prefixed};
use crate::evidence::{EvidenceRecord, SignedOutput, PREFIXED_ID_LEN};
use crate::ids::{NodeId, PeriodIdx, PlanId, TaskId};
use crate::time::Time;
use btr_crypto::{KeyStore, SigError, Signature, Signer};
use std::sync::Arc;

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
    /// A piece of fault evidence (control plane, Section 4.3), allocated
    /// once by the node that made it: every copy a flood sends, and every
    /// receiver's, shares that one record.
    Evidence(Arc<EvidenceRecord>),
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

const PAYLOAD_DOMAIN: &[u8] = b"btr-payload";
const ENVELOPE_DOMAIN: &[u8] = b"btr-envelope";
/// An envelope's signing bytes up to its payload's body: domain tag, source,
/// send time, the payload's length and domain tag.
const SIGNING_HEADER_LEN: usize =
    prefixed(ENVELOPE_DOMAIN.len()) + 4 + 8 + 8 + prefixed(PAYLOAD_DOMAIN.len());
/// An output payload up to its witnesses: variant tag, the output's id
/// behind its length, the witness count.
const OUTPUT_HEAD_LEN: usize = 1 + PREFIXED_ID_LEN + 4;

impl Payload {
    /// Exact length of the canonical encoding — the domain tag, then the
    /// body [`Payload::write_body`] writes — by arithmetic.
    pub(crate) fn canonical_len(&self) -> usize {
        prefixed(PAYLOAD_DOMAIN.len()) + self.body_len()
    }

    /// Exact length of the body [`Payload::write_body`] writes.
    fn body_len(&self) -> usize {
        match self {
            Payload::Output { witnesses, .. } => Self::output_body_len(witnesses.len()),
            Payload::Heartbeat { .. } => 1 + 8,
            Payload::Evidence(ev) => 1 + 8 + ev.canonical_len(),
            Payload::StateTransfer { .. } => 1 + 5 * 4,
            Payload::ModeAck { .. } | Payload::Wake { .. } => 1 + 4 + 8,
            Payload::Pbft { .. } => 1 + 4 + 8 + 8 + 1 + 4,
            Payload::Audit { .. } => 1 + 4 + 8 + 8,
            Payload::Control(_) => 2,
        }
    }

    /// The body length of an output payload with `witnesses` witnesses.
    fn output_body_len(witnesses: usize) -> usize {
        OUTPUT_HEAD_LEN + PREFIXED_ID_LEN * witnesses
    }

    /// Append an output payload's body, from its parts, to `buf`: the
    /// head in one write, then one write per witness.
    fn write_output_body(output: &SignedOutput, witnesses: &[SignedOutput], buf: &mut Vec<u8>) {
        enc::append::<OUTPUT_HEAD_LEN>(buf, |f| {
            f.u8(0);
            output.put_prefixed_id(f);
            f.u32(witnesses.len() as u32);
        });
        for w in witnesses {
            enc::append::<PREFIXED_ID_LEN>(buf, |f| w.put_prefixed_id(f));
        }
    }

    /// Append the canonical encoding's body (sans domain tag) to `buf`.
    fn write_body(&self, buf: &mut Vec<u8>) {
        match self {
            Payload::Output { output, witnesses } => {
                Self::write_output_body(output, witnesses, buf);
            }
            Payload::Heartbeat { period } => enc::append::<9>(buf, |f| {
                f.u8(1).u64(*period);
            }),
            Payload::Evidence(ev) => {
                enc::append::<9>(buf, |f| {
                    f.u8(2).u64(ev.canonical_len() as u64);
                });
                ev.write(buf);
            }
            Payload::StateTransfer {
                task,
                to_plan,
                seq,
                total,
                bytes,
            } => enc::append::<21>(buf, |f| {
                f.u8(3)
                    .u32(task.0)
                    .u32(to_plan.0)
                    .u32(*seq)
                    .u32(*total)
                    .u32(*bytes);
            }),
            Payload::ModeAck { plan, activate_at } => enc::append::<13>(buf, |f| {
                f.u8(4).u32(plan.0).u64(activate_at.0);
            }),
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
                enc::append::<26>(buf, |f| {
                    f.u8(5)
                        .u32(task.0)
                        .u64(*period)
                        .u64(*value)
                        .u8(ph)
                        .u32(*view);
                })
            }
            Payload::Wake { task, period } => enc::append::<13>(buf, |f| {
                f.u8(6).u32(task.0).u64(*period);
            }),
            Payload::Audit {
                about,
                period,
                value,
            } => enc::append::<21>(buf, |f| {
                f.u8(7).u32(about.0).u64(*period).u64(*value);
            }),
            Payload::Control(tag) => buf.extend_from_slice(&[8, *tag]),
        }
    }

    /// Bytes this payload occupies on the wire (approximate but stable),
    /// by arithmetic: this runs once per transmitted message.
    ///
    /// `StateTransfer` counts the carried state bytes; everything else is
    /// sized by its canonical encoding. A size past `u32::MAX` — a forged
    /// transfer, an absurd witness list — saturates there rather than
    /// wrapping to a few bytes of link time.
    pub(crate) fn wire_size(&self) -> u32 {
        match self {
            Payload::StateTransfer { bytes, .. } => bytes.saturating_add(24),
            other => u32::try_from(other.canonical_len()).unwrap_or(u32::MAX),
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
pub(crate) const ENVELOPE_HEADER_BYTES: u32 = 28;
/// Wire bytes for an envelope signature: a 4-byte key id plus the fixed
/// 32-byte authenticator field. Both authenticator suites share the
/// field (SipHash-2-4 tags are zero-padded; see `btr_crypto::AuthSuite`),
/// so message sizes — and therefore link serialisation timings — are
/// bit-identical across suites and only CPU cost differs. The
/// cross-suite differential oracles rely on this.
pub(crate) const SIGNATURE_BYTES: u32 = 36;

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

    /// Write the canonical bytes an envelope signature covers into a
    /// caller-owned scratch (cleared first): the header in one write, with
    /// the payload's length computed, then the payload's body.
    pub(crate) fn write_signing_bytes(
        src: NodeId,
        sent_at: Time,
        payload: &Payload,
        buf: &mut Vec<u8>,
    ) {
        match payload {
            Payload::Output { output, witnesses } => {
                Self::write_output_signing_bytes(src, sent_at, output, witnesses, buf);
            }
            _ => {
                Self::write_signing_header(src, sent_at, payload.body_len(), buf);
                payload.write_body(buf);
            }
        }
    }

    /// [`Envelope::write_signing_bytes`] for an output payload, from its
    /// parts: an evidence record checks the signature on the envelope it
    /// quotes without building the payload again.
    pub(crate) fn write_output_signing_bytes(
        src: NodeId,
        sent_at: Time,
        output: &SignedOutput,
        witnesses: &[SignedOutput],
        buf: &mut Vec<u8>,
    ) {
        let body_len = Payload::output_body_len(witnesses.len());
        Self::write_signing_header(src, sent_at, body_len, buf);
        Payload::write_output_body(output, witnesses, buf);
    }

    /// Clear `buf` and write the signing bytes' header, up to a payload
    /// body of `body_len` bytes.
    fn write_signing_header(src: NodeId, sent_at: Time, body_len: usize, buf: &mut Vec<u8>) {
        let payload_len = prefixed(PAYLOAD_DOMAIN.len()) + body_len;
        buf.clear();
        buf.reserve(SIGNING_HEADER_LEN + body_len);
        enc::append::<SIGNING_HEADER_LEN>(buf, |f| {
            f.bytes(ENVELOPE_DOMAIN)
                .u32(src.0)
                .u64(sent_at.0)
                .u64(payload_len as u64)
                .bytes(PAYLOAD_DOMAIN);
        });
    }

    /// Sign the envelope as `signer` (must match `src` to verify).
    pub fn signed(self, signer: &Signer) -> Envelope {
        let mut scratch = Vec::new();
        self.signed_with(signer, &mut scratch)
    }

    /// Like [`Envelope::signed`], writing the signing bytes into a
    /// reusable scratch buffer instead of allocating.
    pub(crate) fn signed_with(mut self, signer: &Signer, scratch: &mut Vec<u8>) -> Envelope {
        self.sig = Some(Self::sign_parts(
            signer,
            self.src,
            self.sent_at,
            &self.payload,
            scratch,
        ));
        self
    }

    /// The signature `Envelope::signed_with` would stamp on an envelope
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

    /// Total wire size in bytes, saturating at `u32::MAX`.
    pub fn wire_size(&self) -> u32 {
        let sig = if self.sig.is_some() {
            SIGNATURE_BYTES
        } else {
            0
        };
        ENVELOPE_HEADER_BYTES
            .saturating_add(self.payload.wire_size())
            .saturating_add(sig)
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
            Payload::Evidence(Arc::new(EvidenceRecord::declare_crash(
                &signer(1),
                NodeId(1),
                NodeId(2),
                4,
            ))),
            Payload::Evidence(Arc::new(EvidenceRecord::BadComputation {
                accused: NodeId(1),
                output: so(1, 10),
                inputs: vec![so(2, 20), so(3, 30)],
            })),
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

    /// A payload's canonical bytes: its domain tag and body, as an
    /// envelope's signing bytes carry them after the length prefix.
    fn canonical_bytes(p: &Payload) -> Vec<u8> {
        let mut buf = Vec::new();
        Envelope::write_signing_bytes(NodeId(3), Time(99), p, &mut buf);
        buf.split_off(SIGNING_HEADER_LEN - prefixed(PAYLOAD_DOMAIN.len()))
    }

    #[test]
    fn canonical_len_matches_canonical_bytes() {
        for p in sample_payloads() {
            assert_eq!(
                p.canonical_len(),
                canonical_bytes(&p).len(),
                "length mismatch for {:?}",
                p.label()
            );
            if let Payload::Evidence(ev) = &p {
                assert_eq!(ev.id_with(&mut vec![1, 2, 3]), ev.id());
            }
        }
    }

    #[test]
    fn scratch_signing_bytes_match_allocating_path() {
        let mut scratch = vec![0xffu8; 3]; // Dirty scratch must be cleared.
        for p in sample_payloads() {
            let mut fresh = Vec::new();
            Envelope::write_signing_bytes(NodeId(3), Time(99), &p, &mut fresh);
            Envelope::write_signing_bytes(NodeId(3), Time(99), &p, &mut scratch);
            assert_eq!(scratch, fresh, "scratch mismatch for {:?}", p.label());
        }
    }

    #[test]
    fn forged_sizes_saturate_instead_of_wrapping() {
        let forged = Payload::StateTransfer {
            task: TaskId(1),
            to_plan: PlanId(2),
            seq: 0,
            total: 1,
            bytes: u32::MAX - 10,
        };
        assert_eq!(forged.wire_size(), u32::MAX);
        let env = Envelope::new(NodeId(0), NodeId(1), Time(0), forged).signed(&signer(0));
        assert_eq!(env.wire_size(), u32::MAX);
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
        let a = canonical_bytes(&Payload::Heartbeat { period: 1 });
        let b = canonical_bytes(&Payload::Control(1));
        assert_ne!(a, b);
        let c = canonical_bytes(&Payload::Wake {
            task: TaskId(1),
            period: 1,
        });
        let d = canonical_bytes(&Payload::Audit {
            about: TaskId(1),
            period: 1,
            value: 0,
        });
        assert_ne!(c, d);
    }
}
