//! Evidence records: the currency of BTR fault handling.
//!
//! Section 4.2 of the paper: "it is necessary to generate evidence of
//! detected faults that other nodes can verify independently". Two classes
//! exist, and the distinction drives the whole protocol:
//!
//! * **Proofs** ([`EvidenceClass::Proof`]) are self-contained and
//!   transferable: any node can check them with only the keystore and the
//!   installed workload spec. Equivocation (two conflicting signed
//!   outputs) and bad computation (signed inputs + a signed output that
//!   re-execution refutes) are proofs.
//! * **Declarations** ([`EvidenceClass::Declaration`]) are unprovable
//!   claims — omission and timing faults leave no transferable trace
//!   ("there is no direct way to prove that a faulty node failed to
//!   send"). They are signed by their declarer and handled statistically
//!   (path avoidance + accusation counting, Section 4.2's suggestion).

use crate::compute::{sensor_value, task_value, Value};
use crate::enc::Enc;
use crate::ids::{NodeId, PeriodIdx, ReplicaIdx, TaskId};
use crate::time::Time;
use btr_crypto::{digest64, KeyStore, SigError, Signature, Signer};
use std::collections::BTreeSet;

/// What evidence verifiers need to know about the workload.
///
/// Implemented by `btr_workload::Workload`; defined here so evidence
/// verification stays in the model crate (and the dependency graph stays
/// acyclic). The paper installs the workload on every node offline, so
/// assuming verifiers hold it is faithful.
pub trait WorkloadView {
    /// Declared dataflow inputs of `task`, or `None` for unknown tasks.
    fn inputs_of_task(&self, task: TaskId) -> Option<Vec<TaskId>>;
    /// True if `task` is a sensor source.
    fn task_is_source(&self, task: TaskId) -> bool;
    /// The workload seed (determines sensor readings).
    fn workload_seed(&self) -> u64;
}

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

impl SignedOutput {
    /// Canonical bytes covered by the signature.
    pub fn signing_bytes(
        task: TaskId,
        replica: ReplicaIdx,
        period: PeriodIdx,
        value: Value,
        inputs_digest: u64,
        producer: NodeId,
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        Self::write_signing_bytes(
            task,
            replica,
            period,
            value,
            inputs_digest,
            producer,
            &mut buf,
        );
        buf
    }

    /// Write the signing bytes into a caller-owned scratch buffer
    /// (cleared first); allocation-free once the scratch has warmed up.
    #[allow(clippy::too_many_arguments)]
    pub fn write_signing_bytes(
        task: TaskId,
        replica: ReplicaIdx,
        period: PeriodIdx,
        value: Value,
        inputs_digest: u64,
        producer: NodeId,
        buf: &mut Vec<u8>,
    ) {
        let mut e = Enc::over(buf, "btr-output");
        e.u32(task.0)
            .u8(replica)
            .u64(period)
            .u64(value)
            .u64(inputs_digest)
            .u32(producer.0);
    }

    /// Append this output's signing bytes to a shared buffer without
    /// clearing it — the staging primitive for batched verification
    /// (`btr_crypto::SigBatch` carries many outputs' bytes in one
    /// scratch). Byte-identical to [`SignedOutput::signing_bytes`].
    pub fn append_signing_bytes(&self, buf: &mut Vec<u8>) {
        let mut e = Enc::append(buf, "btr-output");
        e.u32(self.task.0)
            .u8(self.replica)
            .u64(self.period)
            .u64(self.value)
            .u64(self.inputs_digest)
            .u32(self.producer.0);
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
            batch.push_with(&self.sig, |buf| self.append_signing_bytes(buf));
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

    /// Like [`SignedOutput::sign`], writing the signing bytes into a
    /// reusable scratch buffer instead of allocating (the signed-traffic
    /// hot path signs one of these per task release).
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
        Self::write_signing_bytes(
            task,
            replica,
            period,
            value,
            inputs_digest,
            producer,
            scratch,
        );
        SignedOutput {
            task,
            replica,
            period,
            value,
            inputs_digest,
            producer,
            sig: signer.sign(scratch),
        }
    }

    /// Verify the producer's signature.
    pub fn verify(&self, ks: &KeyStore) -> Result<(), EvidenceFlaw> {
        self.verify_by(&mut Vec::new(), |sig, msg| ks.verify(sig, msg))
    }

    /// [`SignedOutput::verify`] with the MAC check handed to the caller:
    /// the key-id/producer gate, then the signing bytes laid out in the
    /// reusable `scratch`, then `check(sig, bytes)` (see
    /// `Envelope::verify_by`).
    pub fn verify_by(
        &self,
        scratch: &mut Vec<u8>,
        check: impl FnOnce(&Signature, &[u8]) -> Result<(), SigError>,
    ) -> Result<(), EvidenceFlaw> {
        if self.sig.key != self.producer.0 {
            return Err(EvidenceFlaw::BadSignature);
        }
        Self::write_signing_bytes(
            self.task,
            self.replica,
            self.period,
            self.value,
            self.inputs_digest,
            self.producer,
            scratch,
        );
        check(&self.sig, scratch).map_err(|_| EvidenceFlaw::BadSignature)
    }

    fn encode(&self, e: &mut Enc<'_>) {
        e.u32(self.task.0)
            .u8(self.replica)
            .u64(self.period)
            .u64(self.value)
            .u64(self.inputs_digest)
            .u32(self.producer.0)
            .u32(self.sig.key)
            .bytes(&self.sig.tag.0);
    }
}

/// Proof vs declaration (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvidenceClass {
    /// Independently verifiable; convicts the accused node.
    Proof,
    /// Signed claim; attributable to the declarer, not probative.
    Declaration,
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
    /// Proof or declaration?
    pub fn class(&self) -> EvidenceClass {
        match self {
            EvidenceRecord::Equivocation { .. }
            | EvidenceRecord::BadComputation { .. }
            | EvidenceRecord::BadWitness { .. } => EvidenceClass::Proof,
            _ => EvidenceClass::Declaration,
        }
    }

    /// The node a *proof* convicts (None for declarations).
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

    /// The declarer of a declaration (None for proofs).
    pub fn declarer(&self) -> Option<NodeId> {
        match self {
            EvidenceRecord::PathDeclaration { declarer, .. }
            | EvidenceRecord::TimingDeclaration { declarer, .. }
            | EvidenceRecord::CrashSuspicion { declarer, .. } => Some(*declarer),
            _ => None,
        }
    }

    /// Canonical bytes (identifies and sizes the record).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new("btr-evidence");
        self.encode_into(&mut e);
        e.finish()
    }

    /// Stream the canonical encoding (sans domain prefix) into an
    /// in-progress encoder: what [`EvidenceRecord::canonical_bytes`]
    /// holds after its domain tag, without the intermediate vector. An
    /// envelope carrying a record signs, verifies and sizes through this.
    pub fn encode_into(&self, e: &mut Enc<'_>) {
        match self {
            EvidenceRecord::Equivocation { accused, a, b } => {
                e.u8(0).u32(accused.0);
                a.encode(e);
                b.encode(e);
            }
            EvidenceRecord::BadComputation {
                accused,
                output,
                inputs,
            } => {
                e.u8(1).u32(accused.0);
                output.encode(e);
                e.u32(inputs.len() as u32);
                for i in inputs {
                    i.encode(e);
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
                e.u8(2)
                    .u32(declarer.0)
                    .u32(from.0)
                    .u32(to.0)
                    .u32(task.0)
                    .u64(*period)
                    .u32(sig.key)
                    .bytes(&sig.tag.0);
            }
            EvidenceRecord::TimingDeclaration {
                declarer,
                output,
                expected_by,
                observed_at,
                sig,
            } => {
                e.u8(3).u32(declarer.0);
                output.encode(e);
                e.u64(expected_by.0)
                    .u64(observed_at.0)
                    .u32(sig.key)
                    .bytes(&sig.tag.0);
            }
            EvidenceRecord::CrashSuspicion {
                declarer,
                about,
                period,
                sig,
            } => {
                e.u8(4)
                    .u32(declarer.0)
                    .u32(about.0)
                    .u64(*period)
                    .u32(sig.key)
                    .bytes(&sig.tag.0);
            }
            EvidenceRecord::BadWitness {
                accused,
                output,
                witnesses,
                sent_at,
                env_sig,
            } => {
                e.u8(5).u32(accused.0);
                output.encode(e);
                e.u32(witnesses.len() as u32);
                for w in witnesses {
                    w.encode(e);
                }
                e.u64(sent_at.0).u32(env_sig.key).bytes(&env_sig.tag.0);
            }
        }
    }

    /// Stable id for deduplication.
    pub fn id(&self) -> EvidenceId {
        self.id_with(&mut Vec::new())
    }

    /// Like [`EvidenceRecord::id`], encoding into a reusable scratch
    /// buffer (cleared first) instead of allocating.
    pub fn id_with(&self, scratch: &mut Vec<u8>) -> EvidenceId {
        let mut e = Enc::over(scratch, "btr-evidence");
        self.encode_into(&mut e);
        EvidenceId(digest64(&[e.as_slice()]))
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> u32 {
        let mut e = Enc::count("btr-evidence");
        self.encode_into(&mut e);
        e.len() as u32
    }

    /// Verify the record.
    ///
    /// For proofs this fully checks the conviction (signatures, internal
    /// consistency, re-execution). For declarations it checks the
    /// declarer's signature and internal consistency only — declarations
    /// are *attributable*, not probative.
    pub fn verify(&self, ks: &KeyStore, view: &dyn WorkloadView) -> Result<(), EvidenceFlaw> {
        match self {
            EvidenceRecord::Equivocation { accused, a, b } => {
                a.verify(ks)?;
                b.verify(ks)?;
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
                output.verify(ks)?;
                if output.producer != *accused {
                    return Err(EvidenceFlaw::Inconsistent("producer != accused"));
                }
                let declared = view
                    .inputs_of_task(output.task)
                    .ok_or(EvidenceFlaw::UnknownTask(output.task))?;
                let expected: BTreeSet<TaskId> = declared.into_iter().collect();
                let supplied: BTreeSet<TaskId> = inputs.iter().map(|i| i.task).collect();
                if expected != supplied || inputs.len() != supplied.len() {
                    return Err(EvidenceFlaw::InputSetMismatch);
                }
                let mut vals = Vec::with_capacity(inputs.len());
                for i in inputs {
                    i.verify(ks)?;
                    if i.period != output.period {
                        return Err(EvidenceFlaw::Inconsistent("input from wrong period"));
                    }
                    vals.push((i.task, i.value));
                }
                let recomputed = if view.task_is_source(output.task) {
                    // Sources read physical sensors; the commitment is
                    // ignored and the reading is checked directly.
                    sensor_value(output.task, output.period, view.workload_seed())
                } else {
                    // Soundness: the supplied inputs must match the
                    // accused's own signed commitment, so honest nodes can
                    // never be convicted with substituted inputs.
                    if crate::compute::inputs_digest(&vals) != output.inputs_digest {
                        return Err(EvidenceFlaw::CommitmentMismatch);
                    }
                    task_value(output.task, output.period, &vals)
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
                let payload = crate::message::Payload::Output {
                    output: output.clone(),
                    witnesses: witnesses.clone(),
                };
                let bytes =
                    crate::message::Envelope::signing_bytes_for(*accused, *sent_at, &payload);
                ks.verify(env_sig, &bytes)
                    .map_err(|_| EvidenceFlaw::BadSignature)?;
                output.verify(ks)?;
                if view.task_is_source(output.task) {
                    return Err(EvidenceFlaw::Inconsistent(
                        "sources are checked by reading, not witnesses",
                    ));
                }
                let declared = view
                    .inputs_of_task(output.task)
                    .ok_or(EvidenceFlaw::UnknownTask(output.task))?;
                let expected: BTreeSet<TaskId> = declared.into_iter().collect();
                let supplied: BTreeSet<TaskId> = witnesses.iter().map(|w| w.task).collect();
                let mut vals = Vec::with_capacity(witnesses.len());
                let mut witness_flaw = expected != supplied || witnesses.len() != supplied.len();
                for w in witnesses {
                    if w.verify(ks).is_err() || w.period != output.period {
                        witness_flaw = true;
                    }
                    vals.push((w.task, w.value));
                }
                if crate::compute::inputs_digest(&vals) != output.inputs_digest {
                    witness_flaw = true;
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
                let mut e = Enc::new("btr-path-decl");
                e.u32(declarer.0)
                    .u32(from.0)
                    .u32(to.0)
                    .u32(task.0)
                    .u64(*period);
                Self::check_decl_sig(ks, *declarer, sig, e.as_slice())
            }
            EvidenceRecord::TimingDeclaration {
                declarer,
                output,
                expected_by,
                observed_at,
                sig,
            } => {
                output.verify(ks)?;
                if observed_at <= expected_by {
                    return Err(EvidenceFlaw::Inconsistent("observation not late"));
                }
                let mut e = Enc::new("btr-timing-decl");
                e.u32(declarer.0)
                    .bytes(&output.canonical_id_bytes())
                    .u64(expected_by.0)
                    .u64(observed_at.0);
                Self::check_decl_sig(ks, *declarer, sig, e.as_slice())
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
                let mut e = Enc::new("btr-crash-decl");
                e.u32(declarer.0).u32(about.0).u64(*period);
                Self::check_decl_sig(ks, *declarer, sig, e.as_slice())
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

    /// Construct a signed path declaration.
    pub fn declare_path(
        signer: &Signer,
        declarer: NodeId,
        from: NodeId,
        to: NodeId,
        task: TaskId,
        period: PeriodIdx,
    ) -> EvidenceRecord {
        let mut e = Enc::new("btr-path-decl");
        e.u32(declarer.0)
            .u32(from.0)
            .u32(to.0)
            .u32(task.0)
            .u64(period);
        EvidenceRecord::PathDeclaration {
            declarer,
            from,
            to,
            task,
            period,
            sig: signer.sign(e.as_slice()),
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
        let mut e = Enc::new("btr-timing-decl");
        e.u32(declarer.0)
            .bytes(&output.canonical_id_bytes())
            .u64(expected_by.0)
            .u64(observed_at.0);
        EvidenceRecord::TimingDeclaration {
            declarer,
            output,
            expected_by,
            observed_at,
            sig: signer.sign(e.as_slice()),
        }
    }

    /// Construct a signed crash suspicion.
    pub fn declare_crash(
        signer: &Signer,
        declarer: NodeId,
        about: NodeId,
        period: PeriodIdx,
    ) -> EvidenceRecord {
        let mut e = Enc::new("btr-crash-decl");
        e.u32(declarer.0).u32(about.0).u64(period);
        EvidenceRecord::CrashSuspicion {
            declarer,
            about,
            period,
            sig: signer.sign(e.as_slice()),
        }
    }
}

impl SignedOutput {
    /// Length of [`SignedOutput::canonical_id_bytes`]; every field is
    /// fixed-size, so callers embedding an id can write the length prefix
    /// first and stream the encoding without building it. Checked against
    /// the actual encoding by a test.
    pub const CANONICAL_ID_LEN: usize = {
        let domain = 8 + "btr-output-id".len();
        let fields = 4 + 1 + 8 + 8 + 8 + 4; // task, replica, period, value, digest, producer
        let sig = 4 + (8 + 32); // key id + length-prefixed tag
        domain + fields + sig
    };

    /// Bytes that uniquely identify this output (including its signature),
    /// used when a declaration references an output.
    pub fn canonical_id_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new("btr-output-id");
        self.encode(&mut e);
        e.finish()
    }

    /// Stream the id encoding (exactly [`SignedOutput::CANONICAL_ID_LEN`]
    /// bytes) into an in-progress encoder, avoiding the intermediate
    /// vector of [`SignedOutput::canonical_id_bytes`].
    pub fn encode_id(&self, e: &mut Enc<'_>) {
        e.bytes(b"btr-output-id");
        self.encode(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_crypto::NodeKey;

    struct TestView;
    impl WorkloadView for TestView {
        fn inputs_of_task(&self, task: TaskId) -> Option<Vec<TaskId>> {
            match task.0 {
                0 | 1 => Some(vec![]),                 // Sources.
                2 => Some(vec![TaskId(0), TaskId(1)]), // Fusion.
                _ => None,
            }
        }
        fn task_is_source(&self, task: TaskId) -> bool {
            task.0 < 2
        }
        fn workload_seed(&self) -> u64 {
            7
        }
    }

    fn signer(i: u32) -> Signer {
        Signer::new(NodeKey::derive(99, i))
    }

    fn keystore() -> KeyStore {
        KeyStore::derive(99, 8)
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
        assert_eq!(
            out.canonical_id_bytes().len(),
            SignedOutput::CANONICAL_ID_LEN
        );
        // Streaming must reproduce the owned encoding byte for byte.
        let mut e = Enc::new("outer");
        e.u64(SignedOutput::CANONICAL_ID_LEN as u64);
        out.encode_id(&mut e);
        let mut reference = Enc::new("outer");
        reference.bytes(&out.canonical_id_bytes());
        assert_eq!(e.finish(), reference.finish());
    }

    #[test]
    fn append_signing_bytes_matches_owned() {
        let s = signer(3);
        let out = SignedOutput::sign(&s, TaskId(2), 1, 5, 77, 0xfeed, NodeId(3));
        let owned = SignedOutput::signing_bytes(
            out.task,
            out.replica,
            out.period,
            out.value,
            out.inputs_digest,
            out.producer,
        );
        // Appending after existing content must leave it intact and
        // reproduce the owned encoding after it.
        let mut buf = vec![9u8, 9, 9];
        out.append_signing_bytes(&mut buf);
        assert_eq!(&buf[..3], &[9, 9, 9]);
        assert_eq!(&buf[3..], &owned[..]);
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
    fn scratch_verify_matches_allocating_verify() {
        let s = signer(3);
        let out = SignedOutput::sign(&s, TaskId(2), 0, 5, 0xdead, 0, NodeId(3));
        let mut scratch = vec![1, 2, 3];
        assert_eq!(
            out.verify_by(&mut scratch, |s, m| keystore().verify(s, m)),
            Ok(())
        );
        let mut forged = out.clone();
        forged.period = 6;
        assert_eq!(
            forged.verify_by(&mut scratch, |s, m| keystore().verify(s, m)),
            Err(EvidenceFlaw::BadSignature)
        );
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
        assert_eq!(ev.class(), EvidenceClass::Proof);
        assert_eq!(ev.convicts(), Some(NodeId(3)));
        assert_eq!(ev.verify(&keystore(), &TestView), Ok(()));
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
            ev.verify(&keystore(), &TestView),
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
            ev.verify(&keystore(), &TestView),
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
        assert_eq!(ev.verify(&keystore(), &TestView), Ok(()));
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
            ev.verify(&keystore(), &TestView),
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
            ev.verify(&keystore(), &TestView),
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
        assert_eq!(ev.verify(&keystore(), &TestView), Ok(()));
    }

    #[test]
    fn declarations_validate_and_attribute() {
        let s = signer(2);
        let d = EvidenceRecord::declare_path(&s, NodeId(2), NodeId(2), NodeId(4), TaskId(2), 7);
        assert_eq!(d.class(), EvidenceClass::Declaration);
        assert_eq!(d.convicts(), None);
        assert_eq!(d.declarer(), Some(NodeId(2)));
        assert_eq!(d.verify(&keystore(), &TestView), Ok(()));
    }

    #[test]
    fn path_declaration_must_come_from_endpoint() {
        let s = signer(6);
        let d = EvidenceRecord::declare_path(&s, NodeId(6), NodeId(2), NodeId(4), TaskId(2), 7);
        assert!(matches!(
            d.verify(&keystore(), &TestView),
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
        assert_eq!(d.verify(&keystore(), &TestView), Ok(()));
        let not_late =
            EvidenceRecord::declare_timing(&signer(4), NodeId(4), out, Time(2_000), Time(1_000));
        assert!(matches!(
            not_late.verify(&keystore(), &TestView),
            Err(EvidenceFlaw::Inconsistent(_))
        ));
    }

    #[test]
    fn crash_suspicion_rejects_self() {
        let d = EvidenceRecord::declare_crash(&signer(4), NodeId(4), NodeId(4), 3);
        assert!(matches!(
            d.verify(&keystore(), &TestView),
            Err(EvidenceFlaw::Inconsistent(_))
        ));
    }

    #[test]
    fn forged_declaration_signature_rejected() {
        // Node 5 forges a declaration in node 2's name.
        let d =
            EvidenceRecord::declare_path(&signer(5), NodeId(2), NodeId(2), NodeId(4), TaskId(2), 7);
        assert_eq!(
            d.verify(&keystore(), &TestView),
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
            ev.verify(&keystore(), &TestView),
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
        let bytes = crate::message::Envelope::signing_bytes_for(NodeId(3), sent_at, &payload);
        let env_sig = signer(3).sign(&bytes);
        let ev = EvidenceRecord::BadWitness {
            accused: NodeId(3),
            output: out,
            witnesses: w,
            sent_at,
            env_sig,
        };
        assert_eq!(ev.class(), EvidenceClass::Proof);
        assert_eq!(ev.convicts(), Some(NodeId(3)));
        assert_eq!(ev.verify(&keystore(), &TestView), Ok(()));
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
        let bytes = crate::message::Envelope::signing_bytes_for(NodeId(3), sent_at, &payload);
        let env_sig = signer(3).sign(&bytes);
        let ev = EvidenceRecord::BadWitness {
            accused: NodeId(3),
            output: out,
            witnesses: w,
            sent_at,
            env_sig,
        };
        assert_eq!(
            ev.verify(&keystore(), &TestView),
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
        let bytes = crate::message::Envelope::signing_bytes_for(NodeId(3), Time(0), &payload);
        let env_sig = signer(3).sign(&bytes);
        let ev = EvidenceRecord::BadWitness {
            accused: NodeId(3),
            output: out,
            witnesses: w, // Checker swapped witnesses after signing.
            sent_at: Time(0),
            env_sig,
        };
        assert_eq!(
            ev.verify(&keystore(), &TestView),
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
        assert!(d1.wire_size() > 0);
    }
}
