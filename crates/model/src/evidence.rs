//! Evidence records: the currency of BTR fault handling.
//!
//! Section 4.2 of the paper: "it is necessary to generate evidence of
//! detected faults that other nodes can verify independently". Two classes
//! exist, and the distinction drives the whole protocol:
//!
//! * **Proofs** (a record that [`EvidenceRecord::convicts`]) are self-contained and
//!   transferable: any node can check them with only the keystore and the
//!   installed workload spec. Equivocation (two conflicting signed
//!   outputs) and bad computation (signed inputs + a signed output that
//!   re-execution refutes) are proofs.
//! * **Declarations** (every other record) are unprovable
//!   claims — omission and timing faults leave no transferable trace
//!   ("there is no direct way to prove that a faulty node failed to
//!   send"). They are signed by their declarer and handled statistically
//!   (path avoidance + accusation counting, Section 4.2's suggestion).

use crate::compute::{proof_digests, sensor_value, Value};
use crate::enc::{self, prefixed, Fixed, SIG_LEN};
use crate::ids::{NodeId, PeriodIdx, ReplicaIdx, TaskId};
use crate::time::Time;
use crate::workload::{TaskKind, TaskSpec, Workload};
use btr_crypto::{digest64, Digest, KeyStore, SigError, Signature, Signer};

/// A task output signed by its producer.
///
/// This is the atom of both the data plane and the evidence plane.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SignedOutput {
    /// The logical task that produced the value.
    pub task: TaskId,
    /// Which replica of the task.
    pub replica: ReplicaIdx,
    /// Release period the value belongs to.
    pub period: PeriodIdx,
    /// The computed value.
    pub value: Value,
    /// Commitment to the exact inputs consumed (see
    /// [`btr_model::compute::inputs_digest`]); `0` convention is *not*
    /// special — sources commit to the empty input set.
    ///
    /// [`btr_model::compute::inputs_digest`]: crate::compute::inputs_digest
    pub inputs_digest: u64,
    /// The node that ran the replica.
    pub producer: NodeId,
    /// Producer's signature over the canonical encoding.
    pub sig: Signature,
}

/// What a record carries in its signature until it is signed.
const UNSIGNED: Signature = Signature {
    key: 0,
    tag: Digest([0; 32]),
};
const OUTPUT_DOMAIN: &[u8] = b"btr-output";
const OUTPUT_ID_DOMAIN: &[u8] = b"btr-output-id";
/// An output's signed fields: task, replica, period, value, digest, producer.
const FIELDS_LEN: usize = 4 + 1 + 8 + 8 + 8 + 4;
/// The bytes an output's signature covers.
const SIGNING_LEN: usize = prefixed(OUTPUT_DOMAIN.len()) + FIELDS_LEN;
/// An output's body, as every record carrying it has it: fields, signature.
const BODY_LEN: usize = FIELDS_LEN + SIG_LEN;
/// An output's id behind its length, as payloads and timing declarations have it.
pub(crate) const PREFIXED_ID_LEN: usize = prefixed(SignedOutput::CANONICAL_ID_LEN);

impl SignedOutput {
    /// Length of the bytes that identify an output where a payload or a
    /// timing declaration references it: its domain tag, then its body.
    pub const CANONICAL_ID_LEN: usize = prefixed(OUTPUT_ID_DOMAIN.len()) + BODY_LEN;

    #[inline(always)]
    fn put_fields<const N: usize>(&self, f: &mut Fixed<'_, N>) {
        f.u32(self.task.0)
            .u8(self.replica)
            .u64(self.period)
            .u64(self.value)
            .u64(self.inputs_digest)
            .u32(self.producer.0);
    }

    /// The bytes this output's signature covers: domain tag, fields.
    #[inline]
    fn put_signing_bytes<const N: usize>(&self, f: &mut Fixed<'_, N>) {
        f.bytes(OUTPUT_DOMAIN);
        self.put_fields(f);
    }

    /// Lay out this output's body: the signed fields, then the signature.
    #[inline]
    pub(crate) fn put_body<const N: usize>(&self, f: &mut Fixed<'_, N>) {
        self.put_fields(f);
        f.sig(&self.sig);
    }

    /// Lay out this output's id (domain tag, body) behind its length.
    #[inline]
    pub(crate) fn put_prefixed_id<const N: usize>(&self, f: &mut Fixed<'_, N>) {
        f.u64(Self::CANONICAL_ID_LEN as u64).bytes(OUTPUT_ID_DOMAIN);
        self.put_body(f);
    }

    /// Stage this output into a verification batch, carrying the same
    /// key-id/producer consistency gate as [`SignedOutput::verify_by`]
    /// (a tag made under the *sender's* key over bytes naming a
    /// different producer is a valid MAC but a forged attribution — it
    /// is staged pre-failed so no MAC is spent on it). This is the one
    /// place the gate lives for the batched path; after
    /// `KeyStore::verify_batch`, `ok[i]` equals what `verify`
    /// would have returned for the i-th staged output.
    pub fn stage_for_verify(&self, batch: &mut btr_crypto::SigBatch) {
        if self.sig.key != self.producer.0 {
            batch.push_prefailed();
        } else {
            batch.push_with(&self.sig, |buf| {
                enc::append::<SIGNING_LEN>(buf, |f| self.put_signing_bytes(f))
            });
        }
    }

    /// Produce a signed output (called by the producing node).
    #[allow(clippy::too_many_arguments)]
    pub fn sign(
        signer: &Signer,
        task: TaskId,
        replica: ReplicaIdx,
        period: PeriodIdx,
        value: Value,
        inputs_digest: u64,
        producer: NodeId,
    ) -> SignedOutput {
        let mut scratch = Vec::new();
        Self::sign_with(
            signer,
            task,
            replica,
            period,
            value,
            inputs_digest,
            producer,
            &mut scratch,
        )
    }

    /// Like [`SignedOutput::sign`], laying the signing bytes out in a
    /// reusable `scratch` (cleared first), where they stay: a host that
    /// remembers what it signed reads them there.
    #[allow(clippy::too_many_arguments)]
    pub fn sign_with(
        signer: &Signer,
        task: TaskId,
        replica: ReplicaIdx,
        period: PeriodIdx,
        value: Value,
        inputs_digest: u64,
        producer: NodeId,
        scratch: &mut Vec<u8>,
    ) -> SignedOutput {
        let mut output = SignedOutput {
            task,
            replica,
            period,
            value,
            inputs_digest,
            producer,
            sig: UNSIGNED,
        };
        scratch.clear();
        enc::append::<SIGNING_LEN>(scratch, |f| output.put_signing_bytes(f));
        output.sig = signer.sign(scratch);
        output
    }

    /// Verify the producer's signature.
    pub fn verify(&self, ks: &KeyStore) -> Result<(), EvidenceFlaw> {
        self.verify_by(|sig, msg| ks.verify(sig, msg))
    }

    /// [`SignedOutput::verify`] with the MAC check handed to the caller:
    /// the key-id/producer gate, then `check(sig, bytes)` over the
    /// signing bytes, laid out on the stack (see `Envelope::verify_by`).
    pub fn verify_by(
        &self,
        check: impl FnOnce(&Signature, &[u8]) -> Result<(), SigError>,
    ) -> Result<(), EvidenceFlaw> {
        if self.sig.key != self.producer.0 {
            return Err(EvidenceFlaw::BadSignature);
        }
        let bytes = enc::array::<SIGNING_LEN>(|f| self.put_signing_bytes(f));
        check(&self.sig, &bytes).map_err(|_| EvidenceFlaw::BadSignature)
    }
}

/// Unique id of an evidence record (digest of canonical bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EvidenceId(pub u64);

impl std::fmt::Display for EvidenceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ev{:016x}", self.0)
    }
}

/// Why an evidence record failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvidenceFlaw {
    /// A signature inside the record does not verify.
    BadSignature,
    /// The record's pieces do not fit together (wrong tasks/periods/ids).
    Inconsistent(&'static str),
    /// The claimed input set does not match the task's declared inputs.
    InputSetMismatch,
    /// Re-execution reproduces the accused output: the accusation is false.
    RecomputationMatches,
    /// The record references a task unknown to the installed workload.
    UnknownTask(TaskId),
    /// A declaration names a node the keystore holds no key for.
    UnknownNode(NodeId),
    /// The supplied inputs do not match the accused's signed commitment.
    CommitmentMismatch,
}

impl std::fmt::Display for EvidenceFlaw {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvidenceFlaw::BadSignature => write!(f, "bad signature"),
            EvidenceFlaw::Inconsistent(s) => write!(f, "inconsistent record: {s}"),
            EvidenceFlaw::InputSetMismatch => write!(f, "input set mismatch"),
            EvidenceFlaw::RecomputationMatches => write!(f, "re-execution matches claimed output"),
            EvidenceFlaw::UnknownTask(t) => write!(f, "unknown task {t}"),
            EvidenceFlaw::UnknownNode(n) => write!(f, "unknown node {n}"),
            EvidenceFlaw::CommitmentMismatch => {
                write!(f, "inputs do not match the signed commitment")
            }
        }
    }
}

impl std::error::Error for EvidenceFlaw {}

/// A piece of evidence about a fault.
#[derive(Debug, Clone, PartialEq)]
pub enum EvidenceRecord {
    /// Two conflicting signed outputs for the same (task, replica, period):
    /// irrefutable proof the producer equivocated.
    Equivocation {
        /// The equivocating node.
        accused: NodeId,
        /// First signed output.
        a: SignedOutput,
        /// Second, conflicting signed output.
        b: SignedOutput,
    },
    /// A signed output that re-execution over the accused's own signed
    /// inputs refutes: proof of a commission fault.
    BadComputation {
        /// The node that produced the wrong output.
        accused: NodeId,
        /// The wrong (signed) output.
        output: SignedOutput,
        /// The signed inputs the accused consumed (one per declared input task).
        inputs: Vec<SignedOutput>,
    },
    /// A signed Output *message* whose witnesses do not match the
    /// producer's own signed commitment (or its declared input set):
    /// proof of a protocol violation. This closes the loophole where a
    /// commission fault hides behind a garbage commitment.
    BadWitness {
        /// The producer that sent the malformed message.
        accused: NodeId,
        /// The output inside the message.
        output: SignedOutput,
        /// The witnesses inside the message.
        witnesses: Vec<SignedOutput>,
        /// The envelope's claimed send time (covered by the signature).
        sent_at: Time,
        /// The producer's envelope signature over (src, sent_at, payload).
        env_sig: Signature,
    },
    /// Declarer claims the path `from -> to` failed to deliver an expected
    /// message (omission). Unprovable; counted for attribution.
    PathDeclaration {
        /// Node making the claim (must be `from` or `to`).
        declarer: NodeId,
        /// Sending end of the path.
        from: NodeId,
        /// Receiving end of the path.
        to: NodeId,
        /// The expected task output that did not arrive.
        task: TaskId,
        /// The period in which the omission was observed.
        period: PeriodIdx,
        /// Declarer's signature.
        sig: Signature,
    },
    /// Declarer claims `output` arrived outside its expected window.
    TimingDeclaration {
        /// Node making the claim.
        declarer: NodeId,
        /// The (validly signed) output that was mistimed.
        output: SignedOutput,
        /// When the output should have arrived by.
        expected_by: Time,
        /// When the declarer observed it.
        observed_at: Time,
        /// Declarer's signature.
        sig: Signature,
    },
    /// Declarer claims `about` stopped sending heartbeats.
    CrashSuspicion {
        /// Node making the claim.
        declarer: NodeId,
        /// The suspected node.
        about: NodeId,
        /// Last period a heartbeat was seen.
        period: PeriodIdx,
        /// Declarer's signature.
        sig: Signature,
    },
}

impl EvidenceRecord {
    /// The node a *proof* convicts; `None` marks a declaration.
    pub fn convicts(&self) -> Option<NodeId> {
        match self {
            EvidenceRecord::Equivocation { accused, .. }
            | EvidenceRecord::BadComputation { accused, .. }
            | EvidenceRecord::BadWitness { accused, .. } => Some(*accused),
            _ => None,
        }
    }

    /// The release period the record refers to (used to derive a
    /// deterministic, cluster-wide activation boundary for the resulting
    /// mode switch).
    pub fn period(&self) -> PeriodIdx {
        match self {
            EvidenceRecord::Equivocation { a, .. } => a.period,
            EvidenceRecord::BadComputation { output, .. }
            | EvidenceRecord::BadWitness { output, .. }
            | EvidenceRecord::TimingDeclaration { output, .. } => output.period,
            EvidenceRecord::PathDeclaration { period, .. }
            | EvidenceRecord::CrashSuspicion { period, .. } => *period,
        }
    }

    /// The node the record implicates: the accused for proofs, the
    /// blamed end for declarations (the sender of a missing path
    /// output, the producer of a mistimed one, the silent peer of a
    /// crash suspicion). Declarations merely *suggest* this node — the
    /// detector's thresholds decide conviction — but it is the right
    /// subject for observability ("first evidence concerning n6").
    pub fn accuses(&self) -> NodeId {
        match self {
            EvidenceRecord::Equivocation { accused, .. }
            | EvidenceRecord::BadComputation { accused, .. }
            | EvidenceRecord::BadWitness { accused, .. } => *accused,
            EvidenceRecord::PathDeclaration { from, .. } => *from,
            EvidenceRecord::TimingDeclaration { output, .. } => output.producer,
            EvidenceRecord::CrashSuspicion { about, .. } => *about,
        }
    }

    /// Length of the canonical bytes: the domain tag, then the body.
    pub(crate) fn canonical_len(&self) -> usize {
        let body = match self {
            EvidenceRecord::Equivocation { .. } => EQUIVOCATION_LEN,
            EvidenceRecord::BadComputation { inputs: list, .. } => LIST_LEN + BODY_LEN * list.len(),
            EvidenceRecord::BadWitness {
                witnesses: list, ..
            } => LIST_LEN + BODY_LEN * list.len() + TAIL_LEN,
            EvidenceRecord::PathDeclaration { .. } => PATH_LEN,
            EvidenceRecord::TimingDeclaration { .. } => TIMING_LEN,
            EvidenceRecord::CrashSuspicion { .. } => CRASH_LEN,
        };
        prefixed(EVIDENCE_DOMAIN.len()) + body
    }

    /// Append the canonical bytes (domain tag, then body) to `buf`, one
    /// write per fixed part: [`EvidenceRecord::canonical_len`] of them.
    pub(crate) fn write(&self, buf: &mut Vec<u8>) {
        enc::append::<{ prefixed(EVIDENCE_DOMAIN.len()) }>(buf, |f| {
            f.bytes(EVIDENCE_DOMAIN);
        });
        match self {
            EvidenceRecord::Equivocation { accused, a, b } => {
                enc::append::<EQUIVOCATION_LEN>(buf, |f| {
                    f.u8(0).u32(accused.0);
                    a.put_body(f);
                    b.put_body(f);
                })
            }
            EvidenceRecord::BadComputation {
                accused,
                output,
                inputs,
            } => Self::write_list(buf, 1, *accused, output, inputs),
            EvidenceRecord::PathDeclaration {
                declarer,
                from,
                to,
                task,
                period,
                sig,
            } => enc::append::<PATH_LEN>(buf, |f| {
                f.u8(2)
                    .u32(declarer.0)
                    .u32(from.0)
                    .u32(to.0)
                    .u32(task.0)
                    .u64(*period)
                    .sig(sig);
            }),
            EvidenceRecord::TimingDeclaration {
                declarer,
                output,
                expected_by,
                observed_at,
                sig,
            } => enc::append::<TIMING_LEN>(buf, |f| {
                f.u8(3).u32(declarer.0);
                output.put_body(f);
                f.u64(expected_by.0).u64(observed_at.0).sig(sig);
            }),
            EvidenceRecord::CrashSuspicion {
                declarer,
                about,
                period,
                sig,
            } => enc::append::<CRASH_LEN>(buf, |f| {
                f.u8(4).u32(declarer.0).u32(about.0).u64(*period).sig(sig);
            }),
            EvidenceRecord::BadWitness {
                accused,
                output,
                witnesses,
                sent_at,
                env_sig,
            } => {
                Self::write_list(buf, 5, *accused, output, witnesses);
                enc::append::<TAIL_LEN>(buf, |f| {
                    f.u64(sent_at.0).sig(env_sig);
                });
            }
        }
    }

    /// A proof over a list of outputs: variant tag, accused, the output
    /// and the list's count in one write, then one per listed output.
    fn write_list(
        buf: &mut Vec<u8>,
        tag: u8,
        accused: NodeId,
        output: &SignedOutput,
        items: &[SignedOutput],
    ) {
        enc::append::<LIST_LEN>(buf, |f| {
            f.u8(tag).u32(accused.0);
            output.put_body(f);
            f.u32(items.len() as u32);
        });
        for item in items {
            enc::append::<BODY_LEN>(buf, |f| item.put_body(f));
        }
    }

    /// Stable id for deduplication.
    pub fn id(&self) -> EvidenceId {
        self.id_with(&mut Vec::new())
    }

    /// Like [`EvidenceRecord::id`], laying the record out in a reusable
    /// scratch buffer (cleared first) instead of allocating.
    pub fn id_with(&self, scratch: &mut Vec<u8>) -> EvidenceId {
        scratch.clear();
        self.write(scratch);
        EvidenceId(digest64(&[scratch]))
    }

    /// Verify the record.
    ///
    /// For proofs this fully checks the conviction (signatures, internal
    /// consistency, re-execution). For declarations it checks the
    /// declarer's signature and internal consistency only — declarations
    /// are *attributable*, not probative. Proofs are checked against the
    /// workload every node holds: the paper installs it offline.
    pub fn verify(&self, ks: &KeyStore, workload: &Workload) -> Result<(), EvidenceFlaw> {
        self.verify_with(ks, workload, &mut Vec::new())
    }

    /// [`EvidenceRecord::verify`], laying out a bad-witness proof's
    /// envelope in the reusable `scratch` instead of a buffer of its own.
    pub fn verify_with(
        &self,
        ks: &KeyStore,
        workload: &Workload,
        scratch: &mut Vec<u8>,
    ) -> Result<(), EvidenceFlaw> {
        let signed_output = |o: &SignedOutput| o.verify_by(|sig, msg| ks.verify(sig, msg));
        // A record's task id comes off the wire: look it up, never index.
        let spec = |task: TaskId| -> Result<&TaskSpec, EvidenceFlaw> {
            workload
                .tasks()
                .get(task.index())
                .ok_or(EvidenceFlaw::UnknownTask(task))
        };
        // So is a declaration's node: one the keystore lacks is no
        // platform node, and no tracker counts it.
        let known = |n: NodeId| {
            ks.knows(n.0)
                .then_some(())
                .ok_or(EvidenceFlaw::UnknownNode(n))
        };
        match self {
            EvidenceRecord::Equivocation { accused, a, b } => {
                signed_output(a)?;
                signed_output(b)?;
                if a.producer != *accused || b.producer != *accused {
                    return Err(EvidenceFlaw::Inconsistent("producer != accused"));
                }
                if (a.task, a.replica, a.period) != (b.task, b.replica, b.period) {
                    return Err(EvidenceFlaw::Inconsistent("outputs not comparable"));
                }
                if a.value == b.value {
                    return Err(EvidenceFlaw::Inconsistent("values agree"));
                }
                Ok(())
            }
            EvidenceRecord::BadComputation {
                accused,
                output,
                inputs,
            } => {
                signed_output(output)?;
                if output.producer != *accused {
                    return Err(EvidenceFlaw::Inconsistent("producer != accused"));
                }
                let spec = spec(output.task)?;
                if !supplies_inputs(&spec.inputs, inputs) {
                    return Err(EvidenceFlaw::InputSetMismatch);
                }
                for i in inputs {
                    signed_output(i)?;
                    if i.period != output.period {
                        return Err(EvidenceFlaw::Inconsistent("input from wrong period"));
                    }
                }
                let recomputed = if matches!(spec.kind, TaskKind::Source { .. }) {
                    // Sources read physical sensors; the commitment is
                    // ignored and the reading is checked directly.
                    sensor_value(output.task, output.period, workload.seed)
                } else {
                    // Soundness: the supplied inputs must match the
                    // accused's own signed commitment, so honest nodes can
                    // never be convicted with substituted inputs.
                    let (value, digest) = proof_digests(output.task, output.period, inputs);
                    if digest != output.inputs_digest {
                        return Err(EvidenceFlaw::CommitmentMismatch);
                    }
                    value
                };
                if recomputed == output.value {
                    Err(EvidenceFlaw::RecomputationMatches)
                } else {
                    Ok(())
                }
            }
            EvidenceRecord::BadWitness {
                accused,
                output,
                witnesses,
                sent_at,
                env_sig,
            } => {
                // The envelope signature binds the accused to exactly this
                // (output, witnesses) payload.
                if env_sig.key != accused.0 || output.producer != *accused {
                    return Err(EvidenceFlaw::BadSignature);
                }
                crate::message::Envelope::write_output_signing_bytes(
                    *accused, *sent_at, output, witnesses, scratch,
                );
                ks.verify(env_sig, scratch)
                    .map_err(|_| EvidenceFlaw::BadSignature)?;
                signed_output(output)?;
                let spec = spec(output.task)?;
                if matches!(spec.kind, TaskKind::Source { .. }) {
                    return Err(EvidenceFlaw::Inconsistent(
                        "sources are checked by reading, not witnesses",
                    ));
                }
                let mut witness_flaw = !supplies_inputs(&spec.inputs, witnesses)
                    || proof_digests(output.task, output.period, witnesses).1
                        != output.inputs_digest;
                for w in witnesses {
                    if signed_output(w).is_err() || w.period != output.period {
                        witness_flaw = true;
                    }
                }
                if witness_flaw {
                    Ok(())
                } else {
                    // The message was actually well-formed: bogus accusation.
                    Err(EvidenceFlaw::RecomputationMatches)
                }
            }
            EvidenceRecord::PathDeclaration {
                declarer,
                from,
                to,
                task,
                period,
                sig,
            } => {
                if declarer != from && declarer != to {
                    return Err(EvidenceFlaw::Inconsistent("declarer not on path"));
                }
                known(*from)?;
                known(*to)?;
                let bytes = Self::path_decl_bytes(*declarer, *from, *to, *task, *period);
                Self::check_decl_sig(ks, *declarer, sig, &bytes)
            }
            EvidenceRecord::TimingDeclaration {
                declarer,
                output,
                expected_by,
                observed_at,
                sig,
            } => {
                known(output.producer)?;
                signed_output(output)?;
                if observed_at <= expected_by {
                    return Err(EvidenceFlaw::Inconsistent("observation not late"));
                }
                let bytes = Self::timing_decl_bytes(*declarer, output, *expected_by, *observed_at);
                Self::check_decl_sig(ks, *declarer, sig, &bytes)
            }
            EvidenceRecord::CrashSuspicion {
                declarer,
                about,
                period,
                sig,
            } => {
                if declarer == about {
                    return Err(EvidenceFlaw::Inconsistent("self-suspicion"));
                }
                known(*about)?;
                let bytes = Self::crash_decl_bytes(*declarer, *about, *period);
                Self::check_decl_sig(ks, *declarer, sig, &bytes)
            }
        }
    }

    fn check_decl_sig(
        ks: &KeyStore,
        declarer: NodeId,
        sig: &Signature,
        bytes: &[u8],
    ) -> Result<(), EvidenceFlaw> {
        if sig.key != declarer.0 {
            return Err(EvidenceFlaw::BadSignature);
        }
        ks.verify(sig, bytes)
            .map_err(|_| EvidenceFlaw::BadSignature)
    }

    /// The bytes a path declaration's signature covers.
    pub(crate) fn path_decl_bytes(
        declarer: NodeId,
        from: NodeId,
        to: NodeId,
        task: TaskId,
        period: PeriodIdx,
    ) -> [u8; PATH_DECL_LEN] {
        enc::array(|f| {
            f.bytes(PATH_DECL_DOMAIN)
                .u32(declarer.0)
                .u32(from.0)
                .u32(to.0)
                .u32(task.0)
                .u64(period);
        })
    }

    /// The bytes a timing declaration's signature covers.
    pub(crate) fn timing_decl_bytes(
        declarer: NodeId,
        output: &SignedOutput,
        expected_by: Time,
        observed_at: Time,
    ) -> [u8; TIMING_DECL_LEN] {
        enc::array(|f| {
            f.bytes(TIMING_DECL_DOMAIN).u32(declarer.0);
            output.put_prefixed_id(f);
            f.u64(expected_by.0).u64(observed_at.0);
        })
    }

    /// The bytes a crash suspicion's signature covers.
    pub(crate) fn crash_decl_bytes(
        declarer: NodeId,
        about: NodeId,
        period: PeriodIdx,
    ) -> [u8; CRASH_DECL_LEN] {
        enc::array(|f| {
            f.bytes(CRASH_DECL_DOMAIN)
                .u32(declarer.0)
                .u32(about.0)
                .u64(period);
        })
    }

    /// Construct a signed path declaration.
    pub fn declare_path(
        signer: &Signer,
        declarer: NodeId,
        from: NodeId,
        to: NodeId,
        task: TaskId,
        period: PeriodIdx,
    ) -> EvidenceRecord {
        let bytes = Self::path_decl_bytes(declarer, from, to, task, period);
        EvidenceRecord::PathDeclaration {
            declarer,
            from,
            to,
            task,
            period,
            sig: signer.sign(&bytes),
        }
    }

    /// Construct a signed timing declaration.
    pub fn declare_timing(
        signer: &Signer,
        declarer: NodeId,
        output: SignedOutput,
        expected_by: Time,
        observed_at: Time,
    ) -> EvidenceRecord {
        let bytes = Self::timing_decl_bytes(declarer, &output, expected_by, observed_at);
        EvidenceRecord::TimingDeclaration {
            declarer,
            output,
            expected_by,
            observed_at,
            sig: signer.sign(&bytes),
        }
    }

    /// Construct a signed crash suspicion.
    pub fn declare_crash(
        signer: &Signer,
        declarer: NodeId,
        about: NodeId,
        period: PeriodIdx,
    ) -> EvidenceRecord {
        let bytes = Self::crash_decl_bytes(declarer, about, period);
        EvidenceRecord::CrashSuspicion {
            declarer,
            about,
            period,
            sig: signer.sign(&bytes),
        }
    }
}

/// True if `supplied` carries the `declared` inputs in some order: as
/// many of them, each declared task once (a workload declares no input
/// twice). Compared in place: a proof check and a checker ask it per
/// output they judge.
pub fn supplies_inputs(declared: &[TaskId], supplied: &[SignedOutput]) -> bool {
    supplied.len() == declared.len()
        && declared
            .iter()
            .all(|&t| supplied.iter().filter(|o| o.task == t).count() == 1)
}

const EVIDENCE_DOMAIN: &[u8] = b"btr-evidence";
// Each evidence body opens with its variant tag, then the fields in
// declaration order: a proof over a list has the list's count after its
// output, then the items, and a bad-witness proof's send time and
// envelope signature after those.
const EQUIVOCATION_LEN: usize = 1 + 4 + 2 * BODY_LEN;
const LIST_LEN: usize = 1 + 4 + BODY_LEN + 4;
const TAIL_LEN: usize = 8 + SIG_LEN;
const PATH_LEN: usize = 1 + 4 * 4 + 8 + SIG_LEN;
const TIMING_LEN: usize = 1 + 4 + BODY_LEN + 8 + 8 + SIG_LEN;
const CRASH_LEN: usize = 1 + 4 + 4 + 8 + SIG_LEN;

const PATH_DECL_DOMAIN: &[u8] = b"btr-path-decl";
const PATH_DECL_LEN: usize = prefixed(PATH_DECL_DOMAIN.len()) + 4 * 4 + 8;
const TIMING_DECL_DOMAIN: &[u8] = b"btr-timing-decl";
const TIMING_DECL_LEN: usize = prefixed(TIMING_DECL_DOMAIN.len()) + 4 + PREFIXED_ID_LEN + 8 + 8;
const CRASH_DECL_DOMAIN: &[u8] = b"btr-crash-decl";
const CRASH_DECL_LEN: usize = prefixed(CRASH_DECL_DOMAIN.len()) + 4 + 4 + 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::task_value;
    use crate::workload::WorkloadBuilder;
    use crate::{Criticality, Duration};
    use btr_crypto::NodeKey;

    /// Sources 0 and 1, their fusion 2 and a sink 3 after it; seed 7.
    fn workload() -> Workload {
        let (wcet, d, low) = (Duration(10), Duration::from_millis(10), Criticality::Low);
        let mut b = WorkloadBuilder::new(d, 7);
        let s0 = b.source("s0", NodeId(0), wcet, low, d);
        let s1 = b.source("s1", NodeId(1), wcet, low, d);
        let fusion = b.compute("fusion", &[s0, s1], wcet, low, d, 0);
        b.sink("k", NodeId(2), &[fusion], wcet, low, d);
        b.build().unwrap()
    }

    fn signer(i: u32) -> Signer {
        Signer::new(NodeKey::derive(99, i))
    }

    fn keystore() -> KeyStore {
        KeyStore::derive(99, 8)
    }

    fn envelope_bytes(src: NodeId, sent_at: Time, payload: &crate::message::Payload) -> Vec<u8> {
        let mut buf = Vec::new();
        crate::message::Envelope::write_signing_bytes(src, sent_at, payload, &mut buf);
        buf
    }

    #[test]
    fn signed_output_round_trip() {
        let s = signer(3);
        let out = SignedOutput::sign(&s, TaskId(2), 0, 5, 0xdead, 0, NodeId(3));
        assert_eq!(out.verify(&keystore()), Ok(()));
        let mut forged = out.clone();
        forged.value = 0xbeef;
        assert_eq!(forged.verify(&keystore()), Err(EvidenceFlaw::BadSignature));
    }

    #[test]
    fn canonical_id_len_is_exact() {
        let s = signer(3);
        let out = SignedOutput::sign(&s, TaskId(2), 1, 5, u64::MAX, 0, NodeId(3));
        assert_eq!(SignedOutput::CANONICAL_ID_LEN, 98);
        assert_eq!(PREFIXED_ID_LEN, 106);
        // A body is written whole, and an id is a domain tag and a body.
        let body = enc::array::<BODY_LEN>(|f| out.put_body(f));
        let prefixed = enc::array::<PREFIXED_ID_LEN>(|f| out.put_prefixed_id(f));
        assert_eq!(prefixed[..8], 98u64.to_be_bytes());
        assert_eq!(&prefixed[8 + 21..], &body[..]);
        // The signing bytes carry the body's signed fields.
        let signing = enc::array::<SIGNING_LEN>(|f| out.put_signing_bytes(f));
        assert_eq!(&signing[18..], &body[..FIELDS_LEN]);
    }

    #[test]
    fn stage_for_verify_matches_single_verify() {
        let s = signer(3);
        let good = SignedOutput::sign(&s, TaskId(2), 0, 5, 1, 2, NodeId(3));
        let mut forged = good.clone();
        forged.value ^= 1;
        let mut relabelled = good.clone();
        relabelled.producer = NodeId(5); // Valid MAC, forged attribution.
        let outputs = [good, forged, relabelled];
        let mut batch = btr_crypto::SigBatch::new();
        for o in &outputs {
            o.stage_for_verify(&mut batch);
        }
        let mut ok = Vec::new();
        keystore().verify_batch(&batch, &mut ok);
        for (o, got) in outputs.iter().zip(&ok) {
            assert_eq!(*got, o.verify(&keystore()).is_ok(), "{o:?}");
        }
        assert_eq!(ok, vec![true, false, false]);
    }

    #[test]
    fn sign_with_equals_sign() {
        let s = signer(3);
        let mut scratch = vec![0xffu8; 7];
        let a = SignedOutput::sign(&s, TaskId(2), 0, 5, 1, 2, NodeId(3));
        let b = SignedOutput::sign_with(&s, TaskId(2), 0, 5, 1, 2, NodeId(3), &mut scratch);
        assert_eq!(a, b);
        assert_eq!(b.verify(&keystore()), Ok(()));
    }

    #[test]
    fn verify_by_answers_as_verify() {
        let s = signer(3);
        let out = SignedOutput::sign(&s, TaskId(2), 0, 5, 0xdead, 0, NodeId(3));
        assert_eq!(out.verify_by(|s, m| keystore().verify(s, m)), Ok(()));
        let mut forged = out.clone();
        forged.period = 6;
        assert_eq!(
            forged.verify_by(|s, m| keystore().verify(s, m)),
            Err(EvidenceFlaw::BadSignature)
        );
    }

    #[test]
    fn verify_with_a_used_scratch_answers_as_verify() {
        // One record of every kind, valid and with a field changed under
        // its signature, through one scratch that already holds bytes:
        // `verify_with` says what `verify` says.
        let (p, w) = (5, good_inputs(5));
        let vals: Vec<(TaskId, Value)> = w.iter().map(|i| (i.task, i.value)).collect();
        let sign3 = |value, digest| {
            SignedOutput::sign(&signer(3), TaskId(2), 0, p, value, digest, NodeId(3))
        };
        let wrong = sign3(task_value(TaskId(2), p, &vals) ^ 1, digest_of(&w));
        let garbled = sign3(task_value(TaskId(2), p, &vals), 0xBAD);
        let payload = crate::message::Payload::Output {
            output: garbled.clone(),
            witnesses: w.clone(),
        };
        let bytes = envelope_bytes(NodeId(3), Time(9), &payload);
        let records = [
            EvidenceRecord::Equivocation {
                accused: NodeId(3),
                a: sign3(1, 0),
                b: sign3(2, 0),
            },
            EvidenceRecord::BadComputation {
                accused: NodeId(3),
                output: wrong.clone(),
                inputs: w.clone(),
            },
            EvidenceRecord::BadWitness {
                accused: NodeId(3),
                output: garbled,
                witnesses: w,
                sent_at: Time(9),
                env_sig: signer(3).sign(&bytes),
            },
            EvidenceRecord::declare_path(&signer(2), NodeId(2), NodeId(2), NodeId(4), TaskId(2), 7),
            EvidenceRecord::declare_timing(&signer(4), NodeId(4), wrong, Time(1), Time(2)),
            EvidenceRecord::declare_crash(&signer(4), NodeId(4), NodeId(1), 3),
        ];
        let mut scratch = vec![7; 300];
        for record in records {
            let mut changed = record.clone();
            match &mut changed {
                EvidenceRecord::Equivocation { b: o, .. }
                | EvidenceRecord::BadComputation { output: o, .. }
                | EvidenceRecord::BadWitness { output: o, .. } => o.period += 1,
                EvidenceRecord::TimingDeclaration { observed_at, .. } => observed_at.0 += 1,
                EvidenceRecord::PathDeclaration { period, .. }
                | EvidenceRecord::CrashSuspicion { period, .. } => *period += 1,
            }
            for r in [&record, &changed] {
                let cold = r.verify(&keystore(), &workload());
                assert_eq!(r.verify_with(&keystore(), &workload(), &mut scratch), cold);
            }
            assert_eq!(record.verify(&keystore(), &workload()), Ok(()));
            assert!(changed.verify(&keystore(), &workload()).is_err());
        }
    }

    #[test]
    fn equivocation_proof_validates() {
        let s = signer(3);
        let a = SignedOutput::sign(&s, TaskId(2), 0, 5, 1, 0, NodeId(3));
        let b = SignedOutput::sign(&s, TaskId(2), 0, 5, 2, 0, NodeId(3));
        let ev = EvidenceRecord::Equivocation {
            accused: NodeId(3),
            a,
            b,
        };
        assert!(ev.convicts().is_some());
        assert_eq!(ev.convicts(), Some(NodeId(3)));
        assert_eq!(ev.verify(&keystore(), &workload()), Ok(()));
    }

    #[test]
    fn equivocation_requires_conflict() {
        let s = signer(3);
        let a = SignedOutput::sign(&s, TaskId(2), 0, 5, 1, 0, NodeId(3));
        let ev = EvidenceRecord::Equivocation {
            accused: NodeId(3),
            a: a.clone(),
            b: a,
        };
        assert!(matches!(
            ev.verify(&keystore(), &workload()),
            Err(EvidenceFlaw::Inconsistent(_))
        ));
    }

    #[test]
    fn cannot_frame_with_relabelled_equivocation() {
        // Node 4 tries to pin node 3's outputs on node 5.
        let s = signer(3);
        let a = SignedOutput::sign(&s, TaskId(2), 0, 5, 1, 0, NodeId(3));
        let b = SignedOutput::sign(&s, TaskId(2), 0, 5, 2, 0, NodeId(3));
        let ev = EvidenceRecord::Equivocation {
            accused: NodeId(5),
            a,
            b,
        };
        assert!(matches!(
            ev.verify(&keystore(), &workload()),
            Err(EvidenceFlaw::Inconsistent(_))
        ));
    }

    fn good_inputs(period: PeriodIdx) -> Vec<SignedOutput> {
        let v0 = sensor_value(TaskId(0), period, 7);
        let v1 = sensor_value(TaskId(1), period, 7);
        let empty = crate::compute::inputs_digest(&[]);
        vec![
            SignedOutput::sign(&signer(0), TaskId(0), 0, period, v0, empty, NodeId(0)),
            SignedOutput::sign(&signer(1), TaskId(1), 0, period, v1, empty, NodeId(1)),
        ]
    }

    fn digest_of(inputs: &[SignedOutput]) -> u64 {
        let vals: Vec<(TaskId, Value)> = inputs.iter().map(|i| (i.task, i.value)).collect();
        crate::compute::inputs_digest(&vals)
    }

    #[test]
    fn bad_computation_proof_validates() {
        let inputs = good_inputs(5);
        let vals: Vec<(TaskId, Value)> = inputs.iter().map(|i| (i.task, i.value)).collect();
        let correct = task_value(TaskId(2), 5, &vals);
        // Node 3 outputs something wrong (committing to the real inputs).
        let wrong = SignedOutput::sign(
            &signer(3),
            TaskId(2),
            0,
            5,
            correct ^ 1,
            digest_of(&inputs),
            NodeId(3),
        );
        let ev = EvidenceRecord::BadComputation {
            accused: NodeId(3),
            output: wrong,
            inputs,
        };
        assert_eq!(ev.verify(&keystore(), &workload()), Ok(()));
    }

    #[test]
    fn honest_computation_cannot_be_convicted() {
        let inputs = good_inputs(5);
        let vals: Vec<(TaskId, Value)> = inputs.iter().map(|i| (i.task, i.value)).collect();
        let correct = task_value(TaskId(2), 5, &vals);
        let out = SignedOutput::sign(
            &signer(3),
            TaskId(2),
            0,
            5,
            correct,
            digest_of(&inputs),
            NodeId(3),
        );
        let ev = EvidenceRecord::BadComputation {
            accused: NodeId(3),
            output: out,
            inputs,
        };
        assert_eq!(
            ev.verify(&keystore(), &workload()),
            Err(EvidenceFlaw::RecomputationMatches)
        );
    }

    #[test]
    fn framing_by_omitting_inputs_rejected() {
        let inputs = good_inputs(5);
        let vals: Vec<(TaskId, Value)> = inputs.iter().map(|i| (i.task, i.value)).collect();
        let correct = task_value(TaskId(2), 5, &vals);
        let out = SignedOutput::sign(
            &signer(3),
            TaskId(2),
            0,
            5,
            correct,
            digest_of(&inputs),
            NodeId(3),
        );
        // Accuser drops one input so re-execution would differ.
        let ev = EvidenceRecord::BadComputation {
            accused: NodeId(3),
            output: out,
            inputs: inputs[..1].to_vec(),
        };
        assert_eq!(
            ev.verify(&keystore(), &workload()),
            Err(EvidenceFlaw::InputSetMismatch)
        );
    }

    #[test]
    fn bad_source_reading_convicted() {
        // Source 0 reports a reading that differs from its sensor value.
        let honest = sensor_value(TaskId(0), 9, 7);
        let out = SignedOutput::sign(&signer(0), TaskId(0), 0, 9, honest ^ 0xff, 0, NodeId(0));
        let ev = EvidenceRecord::BadComputation {
            accused: NodeId(0),
            output: out,
            inputs: vec![],
        };
        assert_eq!(ev.verify(&keystore(), &workload()), Ok(()));
    }

    #[test]
    fn declarations_validate_and_attribute() {
        let s = signer(2);
        let d = EvidenceRecord::declare_path(&s, NodeId(2), NodeId(2), NodeId(4), TaskId(2), 7);
        assert!(d.convicts().is_none());
        assert_eq!(d.convicts(), None);
        assert_eq!(d.verify(&keystore(), &workload()), Ok(()));
    }

    #[test]
    fn path_declaration_must_come_from_endpoint() {
        let s = signer(6);
        let d = EvidenceRecord::declare_path(&s, NodeId(6), NodeId(2), NodeId(4), TaskId(2), 7);
        assert!(matches!(
            d.verify(&keystore(), &workload()),
            Err(EvidenceFlaw::Inconsistent(_))
        ));
    }

    #[test]
    fn timing_declaration_checks_lateness_and_inner_sig() {
        let out = SignedOutput::sign(&signer(3), TaskId(2), 0, 5, 1, 0, NodeId(3));
        let d = EvidenceRecord::declare_timing(
            &signer(4),
            NodeId(4),
            out.clone(),
            Time(1_000),
            Time(2_000),
        );
        assert_eq!(d.verify(&keystore(), &workload()), Ok(()));
        let not_late =
            EvidenceRecord::declare_timing(&signer(4), NodeId(4), out, Time(2_000), Time(1_000));
        assert!(matches!(
            not_late.verify(&keystore(), &workload()),
            Err(EvidenceFlaw::Inconsistent(_))
        ));
    }

    #[test]
    fn crash_suspicion_rejects_self() {
        let d = EvidenceRecord::declare_crash(&signer(4), NodeId(4), NodeId(4), 3);
        assert!(matches!(
            d.verify(&keystore(), &workload()),
            Err(EvidenceFlaw::Inconsistent(_))
        ));
    }

    /// Node 99 999 of an 8-node keystore: correctly signed declarations
    /// naming it are rejected before any tracker counts them.
    const STRANGER: NodeId = NodeId(99_999);

    #[test]
    fn a_path_declaration_naming_an_unknown_node_is_rejected() {
        let declare =
            |from, to| EvidenceRecord::declare_path(&signer(2), NodeId(2), from, to, TaskId(2), 7);
        for d in [declare(NodeId(2), STRANGER), declare(STRANGER, NodeId(2))] {
            let flaw = d.verify(&keystore(), &workload());
            assert_eq!(flaw, Err(EvidenceFlaw::UnknownNode(STRANGER)), "{d:?}");
        }
    }

    #[test]
    fn a_crash_suspicion_about_an_unknown_node_is_rejected() {
        let d = EvidenceRecord::declare_crash(&signer(4), NodeId(4), STRANGER, 3);
        let flaw = d.verify(&keystore(), &workload());
        assert_eq!(flaw, Err(EvidenceFlaw::UnknownNode(STRANGER)));
    }

    #[test]
    fn a_timing_declaration_about_an_unknown_producer_is_rejected() {
        let stranger = Signer::new(NodeKey::derive(99, STRANGER.0));
        let out = SignedOutput::sign(&stranger, TaskId(2), 0, 5, 1, 0, STRANGER);
        let d = EvidenceRecord::declare_timing(&signer(4), NodeId(4), out, Time(1), Time(2));
        let flaw = d.verify(&keystore(), &workload());
        assert_eq!(flaw, Err(EvidenceFlaw::UnknownNode(STRANGER)));
    }

    #[test]
    fn forged_declaration_signature_rejected() {
        // Node 5 forges a declaration in node 2's name.
        let d =
            EvidenceRecord::declare_path(&signer(5), NodeId(2), NodeId(2), NodeId(4), TaskId(2), 7);
        assert_eq!(
            d.verify(&keystore(), &workload()),
            Err(EvidenceFlaw::BadSignature)
        );
    }

    #[test]
    fn substituted_inputs_cannot_convict_honest_node() {
        // Upstream source 0 equivocates: sends value A to the replica and
        // signs a different value B elsewhere. The replica honestly
        // computes from A and commits to A. A "proof" built with B must
        // fail (commitment mismatch), so honest nodes are never convicted.
        let p = 5u64;
        let va = sensor_value(TaskId(0), p, 7);
        let vb = va ^ 0x77;
        let empty = crate::compute::inputs_digest(&[]);
        let input_a = SignedOutput::sign(&signer(0), TaskId(0), 0, p, va, empty, NodeId(0));
        let input_b = SignedOutput::sign(&signer(0), TaskId(0), 0, p, vb, empty, NodeId(0));
        let v1 = sensor_value(TaskId(1), p, 7);
        let input_1 = SignedOutput::sign(&signer(1), TaskId(1), 0, p, v1, empty, NodeId(1));

        // Honest replica consumed A (and input 1).
        let consumed = [input_a, input_1.clone()];
        let vals: Vec<(TaskId, Value)> = consumed.iter().map(|i| (i.task, i.value)).collect();
        let honest_out = SignedOutput::sign(
            &signer(3),
            TaskId(2),
            0,
            p,
            task_value(TaskId(2), p, &vals),
            crate::compute::inputs_digest(&vals),
            NodeId(3),
        );
        // Attacker substitutes B for A.
        let ev = EvidenceRecord::BadComputation {
            accused: NodeId(3),
            output: honest_out,
            inputs: vec![input_b, input_1],
        };
        assert_eq!(
            ev.verify(&keystore(), &workload()),
            Err(EvidenceFlaw::CommitmentMismatch)
        );
    }

    #[test]
    fn bad_witness_convicts_garbled_commitment() {
        // Node 3 sends an Output message whose witnesses do not match its
        // signed commitment: the envelope signature convicts it.
        let p = 5u64;
        let w = good_inputs(p);
        let vals: Vec<(TaskId, Value)> = w.iter().map(|i| (i.task, i.value)).collect();
        let out = SignedOutput::sign(
            &signer(3),
            TaskId(2),
            0,
            p,
            task_value(TaskId(2), p, &vals) ^ 9,
            0xBAD, // Garbage commitment.
            NodeId(3),
        );
        let payload = crate::message::Payload::Output {
            output: out.clone(),
            witnesses: w.clone(),
        };
        let sent_at = Time(1234);
        let bytes = envelope_bytes(NodeId(3), sent_at, &payload);
        let env_sig = signer(3).sign(&bytes);
        let ev = EvidenceRecord::BadWitness {
            accused: NodeId(3),
            output: out,
            witnesses: w,
            sent_at,
            env_sig,
        };
        assert!(ev.convicts().is_some());
        assert_eq!(ev.convicts(), Some(NodeId(3)));
        assert_eq!(ev.verify(&keystore(), &workload()), Ok(()));
    }

    #[test]
    fn a_task_past_the_workload_is_an_unknown_task() {
        // A record's task id comes off the wire. Correctly signed proofs
        // about task 9 of a four-task workload are rejected, not a panic.
        let (p, w) = (5, good_inputs(5));
        let out = SignedOutput::sign(&signer(3), TaskId(9), 0, p, 1, digest_of(&w), NodeId(3));
        let payload = crate::message::Payload::Output {
            output: out.clone(),
            witnesses: w.clone(),
        };
        let env_sig = signer(3).sign(&envelope_bytes(NodeId(3), Time(9), &payload));
        let records = [
            EvidenceRecord::BadComputation {
                accused: NodeId(3),
                output: out.clone(),
                inputs: w.clone(),
            },
            EvidenceRecord::BadWitness {
                accused: NodeId(3),
                output: out,
                witnesses: w,
                sent_at: Time(9),
                env_sig,
            },
        ];
        for record in records {
            assert_eq!(
                record.verify(&keystore(), &workload()),
                Err(EvidenceFlaw::UnknownTask(TaskId(9))),
                "{record:?}"
            );
        }
    }

    #[test]
    fn bad_witness_rejects_well_formed_message() {
        // A bogus accusation: the message was actually fine.
        let p = 6u64;
        let w = good_inputs(p);
        let vals: Vec<(TaskId, Value)> = w.iter().map(|i| (i.task, i.value)).collect();
        let out = SignedOutput::sign(
            &signer(3),
            TaskId(2),
            0,
            p,
            task_value(TaskId(2), p, &vals),
            crate::compute::inputs_digest(&vals),
            NodeId(3),
        );
        let payload = crate::message::Payload::Output {
            output: out.clone(),
            witnesses: w.clone(),
        };
        let sent_at = Time(99);
        let bytes = envelope_bytes(NodeId(3), sent_at, &payload);
        let env_sig = signer(3).sign(&bytes);
        let ev = EvidenceRecord::BadWitness {
            accused: NodeId(3),
            output: out,
            witnesses: w,
            sent_at,
            env_sig,
        };
        assert_eq!(
            ev.verify(&keystore(), &workload()),
            Err(EvidenceFlaw::RecomputationMatches)
        );
    }

    #[test]
    fn bad_witness_cannot_be_forged_by_checker() {
        // A malicious checker fabricates witnesses node 3 never sent: the
        // envelope signature will not verify.
        let p = 7u64;
        let w = good_inputs(p);
        let out = SignedOutput::sign(&signer(3), TaskId(2), 0, p, 1, 0xBAD, NodeId(3));
        let payload = crate::message::Payload::Output {
            output: out.clone(),
            witnesses: vec![], // Not what was signed below.
        };
        let bytes = envelope_bytes(NodeId(3), Time(0), &payload);
        let env_sig = signer(3).sign(&bytes);
        let ev = EvidenceRecord::BadWitness {
            accused: NodeId(3),
            output: out,
            witnesses: w, // Checker swapped witnesses after signing.
            sent_at: Time(0),
            env_sig,
        };
        assert_eq!(
            ev.verify(&keystore(), &workload()),
            Err(EvidenceFlaw::BadSignature)
        );
    }

    #[test]
    fn record_period_extraction() {
        let s = signer(2);
        let d = EvidenceRecord::declare_crash(&s, NodeId(2), NodeId(3), 41);
        assert_eq!(d.period(), 41);
        let pd = EvidenceRecord::declare_path(&s, NodeId(2), NodeId(1), NodeId(2), TaskId(0), 17);
        assert_eq!(pd.period(), 17);
    }

    #[test]
    fn ids_are_stable_and_distinct() {
        let s = signer(2);
        let d1 = EvidenceRecord::declare_crash(&s, NodeId(2), NodeId(3), 1);
        let d2 = EvidenceRecord::declare_crash(&s, NodeId(2), NodeId(3), 2);
        assert_eq!(d1.id(), d1.clone().id());
        assert_ne!(d1.id(), d2.id());
    }
}
