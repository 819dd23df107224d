//! The online fault detector (Section 4.2 of the paper).
//!
//! "Since there are no trusted nodes, the compromised nodes can try to
//! confuse the detector, e.g., by reporting nonexistent faults or by
//! making false statements about the actions of other nodes. Therefore,
//! it is necessary to generate evidence of detected faults that other
//! nodes can verify independently."
//!
//! The detector runs on every node and combines:
//!
//! * [`ReplicaChecker`] — compares replica outputs; produces
//!   *proofs* for commission faults (bad computation, checked against the
//!   producer's own signed input commitment) and equivocation.
//! * [`OutputPool`] — a cross-task pool of first-seen signed
//!   outputs; any conflicting second copy is an equivocation proof, and
//!   an identical one needs no second MAC (the verified-record memo).
//! * [`TimingWatch`] — detects "doing the right thing at the
//!   wrong time": validly signed outputs arriving outside their window
//!   become timing *declarations*.
//! * [`HeartbeatMonitor`] — crash suspicion after missed beats.
//! * [`OmissionTracker`] — the paper's omission-fault counter-
//!   measure: unprovable path declarations are counted, and "if a node is
//!   on a large number of problematic paths", it is attributed faulty.

use crate::checker::{CheckerConfig, OutputPool, ReplicaChecker};
use crate::omission::OmissionTracker;
use crate::timing::{HeartbeatMonitor, TimingWatch};
use btr_crypto::{SigError, Signature, Signer};
use btr_model::evidence::WorkloadView;
use btr_model::{EvidenceId, EvidenceRecord, NodeId, PeriodIdx, SignedOutput, TaskId, Time};
use std::collections::{BTreeMap, BTreeSet};

/// Heartbeat periods a peer may miss before it is suspected of a crash.
const HEARTBEAT_MISS_THRESHOLD: u64 = 3;

/// Distinct peers implicating a node before omission attribution (scaled
/// down per suspect to the accuser fan-in the active plan actually
/// provides, never below two; see [`OmissionTracker`]).
const OMISSION_THRESHOLD: usize = 3;

/// Per-node detector facade combining all detection mechanisms.
///
/// The runtime feeds it observations; it returns evidence records, which
/// the runtime signs into envelopes and hands to the evidence distributor.
pub(crate) struct Detector {
    node: NodeId,
    pool: OutputPool,
    checkers: BTreeMap<TaskId, ReplicaChecker>,
    timing: TimingWatch,
    heartbeats: HeartbeatMonitor,
    omission: OmissionTracker,
    /// Records already emitted (dedup so retransmits don't double-count).
    emitted: BTreeSet<EvidenceId>,
    /// Per-witness validity of the message at hand (aligned with its
    /// witness list): resident in the pool, or checked by the verifier.
    witness_ok: Vec<bool>,
    /// Reusable encoding scratch: the signing bytes of what is checked,
    /// and evidence ids.
    scratch: Vec<u8>,
    /// Nodes exonerated from missing-output blame: the node itself
    /// declared an upstream path problem for that period, so its silence
    /// was a cascade. Maps to the *root* producer/task being blamed, so
    /// downstream recipients can re-point their own declarations at the
    /// root instead of implicating innocent intermediates.
    exonerated: BTreeMap<(NodeId, PeriodIdx), (NodeId, TaskId)>,
    /// Declarations the cascade gates swallowed (exonerated producers,
    /// explained silence): blame the detector chose not to re-assign.
    suppressed: u64,
}

impl Detector {
    /// Create a detector for `node`.
    pub(crate) fn new(node: NodeId) -> Self {
        Detector {
            node,
            pool: OutputPool::default(),
            checkers: BTreeMap::new(),
            timing: TimingWatch::default(),
            heartbeats: HeartbeatMonitor::new(HEARTBEAT_MISS_THRESHOLD),
            omission: OmissionTracker::new(OMISSION_THRESHOLD),
            emitted: BTreeSet::new(),
            witness_ok: Vec::new(),
            scratch: Vec::new(),
            exonerated: BTreeMap::new(),
            suppressed: 0,
        }
    }

    /// Install (or replace) the checker for one task. Called on mode
    /// switches when this node hosts `ATask::Check { task }`.
    pub(crate) fn install_checker(&mut self, cfg: CheckerConfig) {
        self.checkers.insert(cfg.task, ReplicaChecker::new(cfg));
    }

    /// Remove a checker no longer assigned to this node.
    pub(crate) fn remove_checker(&mut self, task: TaskId) {
        self.checkers.remove(&task);
    }

    /// Tasks this node currently checks.
    pub(crate) fn checked_tasks(&self) -> Vec<TaskId> {
        self.checkers.keys().copied().collect()
    }

    fn dedup(&mut self, mut records: Vec<EvidenceRecord>) -> Vec<EvidenceRecord> {
        records.retain(|r| self.emitted.insert(r.id_with(&mut self.scratch)));
        records
    }

    /// Feed a received task output (with witnesses) into the detector.
    ///
    /// `expected_by` is the output's arrival deadline (absolute time) and
    /// `arrived_at` the local arrival timestamp, for timing detection.
    /// `verified` is the result of a MAC check of `output` the caller has
    /// already made against this node's keystore (`None` if it made
    /// none), so an output the runtime had to verify before storing it
    /// is not verified again here.
    ///
    /// `verify(sig, bytes)` must answer as `KeyStore::verify` does with
    /// this node's keystore: the keystore itself, or — what a host lends,
    /// `NodeCtx::verifier` — the host's memo of triples it already knows
    /// valid in front of it. Each signed record is checked at most once
    /// per distinct copy: one that equals the pool's verified resident —
    /// every field, the tag and the key id — is valid without a check
    /// (see [`OutputPool`]); anything else goes through `verify`, behind
    /// `SignedOutput::verify_by`'s key-id/producer gate. No record is
    /// acted on that this node has not verified at least once.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn observe_output(
        &mut self,
        mut verify: impl FnMut(&Signature, &[u8]) -> Result<(), SigError>,
        signer: &Signer,
        view: &dyn WorkloadView,
        output: SignedOutput,
        verified: Option<bool>,
        witnesses: &[SignedOutput],
        arrived_at: Time,
        expected_by: Option<Time>,
        envelope: Option<(Time, Signature)>,
    ) -> Vec<EvidenceRecord> {
        let mut out = Vec::new();
        // Signature gate: the output alone first, so forged spam is
        // dropped after one check (a sender attaching a maximal witness
        // set to a garbage-tagged output must not buy W extra MACs);
        // unverifiable outputs are dropped silently — the envelope
        // layer already attributes traffic.
        let output_ok = verified.unwrap_or_else(|| {
            self.pool.is_resident(&output)
                || output.verify_by(&mut self.scratch, &mut verify).is_ok()
        });
        if !output_ok {
            return out;
        }
        // Then the witness set. `witness_ok` is index-aligned with
        // `witnesses` and reused by the checker below, so each witness
        // is checked at most once.
        self.witness_ok.clear();
        for w in witnesses {
            let ok =
                self.pool.is_resident(w) || w.verify_by(&mut self.scratch, &mut verify).is_ok();
            self.witness_ok.push(ok);
        }
        // Equivocation pool over the output and each valid witness.
        if let Some(ev) = self.pool.insert_checked(&output) {
            out.push(ev);
        }
        for (w, &ok) in witnesses.iter().zip(&self.witness_ok) {
            if ok {
                if let Some(ev) = self.pool.insert_checked(w) {
                    out.push(ev);
                }
            }
        }
        // Timing declaration for late arrivals.
        if let Some(deadline) = expected_by {
            if let Some(ev) = self
                .timing
                .observe(signer, self.node, &output, deadline, arrived_at)
            {
                out.push(ev);
            }
        }
        // Commission checking, if this node checks the task — reusing
        // the results above instead of re-verifying every witness.
        if let Some(chk) = self.checkers.get_mut(&output.task) {
            out.extend(chk.observe(view, output, witnesses, &self.witness_ok, envelope));
        }
        self.dedup(out)
    }

    /// Feed a heartbeat.
    pub(crate) fn observe_heartbeat(&mut self, from: NodeId, period: PeriodIdx) {
        self.heartbeats.observe(from, period);
    }

    /// End-of-period housekeeping: omission declarations for replicas
    /// whose outputs never arrived, and crash suspicions for silent nodes.
    ///
    /// `silence_explained(task, producer)` lets the caller suppress
    /// declarations whose blame is already accounted for — e.g. the
    /// producer's upstream chain contains a known-faulty node, so its
    /// silence is starvation, not a new fault (the false-attribution-
    /// cascade gate; see EXPERIMENTS.md campaign findings).
    pub(crate) fn end_of_period(
        &mut self,
        signer: &Signer,
        period: PeriodIdx,
        known_faulty: &BTreeSet<NodeId>,
        silence_explained: &dyn Fn(TaskId, NodeId) -> bool,
    ) -> Vec<EvidenceRecord> {
        let mut out = Vec::new();
        for chk in self.checkers.values_mut() {
            for (_, producer) in chk.missing_lanes(period) {
                if known_faulty.contains(&producer) || producer == self.node {
                    continue;
                }
                // A producer that declared its own upstream path problem
                // for this period is exonerated: its silence was a
                // cascade, and blame belongs further up the dataflow.
                if self.exonerated.contains_key(&(producer, period)) {
                    self.suppressed += 1;
                    continue;
                }
                if silence_explained(chk.task(), producer) {
                    self.suppressed += 1;
                    continue;
                }
                out.push(EvidenceRecord::declare_path(
                    signer,
                    self.node,
                    producer,
                    self.node,
                    chk.task(),
                    period,
                ));
            }
            chk.gc(period.saturating_sub(4));
        }
        for suspect in self.heartbeats.check(period) {
            if suspect == self.node || known_faulty.contains(&suspect) {
                continue;
            }
            out.push(EvidenceRecord::declare_crash(
                signer, self.node, suspect, period,
            ));
        }
        self.pool.gc(period.saturating_sub(4));
        self.dedup(out)
    }

    /// Drop detector state older than `before` periods without emitting
    /// declarations (used during mode-transition blackouts).
    pub(crate) fn gc(&mut self, before: PeriodIdx) {
        for chk in self.checkers.values_mut() {
            chk.gc(before);
        }
        self.pool.gc(before);
        self.timing.gc(before);
        self.exonerated.retain(|&(_, p), _| p >= before);
    }

    /// Install the plan-derived plausible accusers for threshold scaling
    /// (see [`OmissionTracker::set_plausible_accusers`]).
    pub(crate) fn set_plausible_accusers(&mut self, accusers: BTreeMap<NodeId, BTreeSet<NodeId>>) {
        self.omission.set_plausible_accusers(accusers);
    }

    /// Record an externally received (already validated) declaration for
    /// omission attribution. Returns nodes newly attributed faulty.
    pub(crate) fn record_declaration(&mut self, record: &EvidenceRecord) -> Vec<NodeId> {
        match record {
            EvidenceRecord::PathDeclaration {
                declarer,
                from,
                to,
                task,
                period,
                ..
            } => {
                // Recipient-side declarations exonerate the declarer from
                // missing-output blame in the same period, recording the
                // root being blamed so downstream declarations can chain
                // to it (cascade blame moves upstream instead of pooling
                // on innocent intermediates).
                if declarer == to {
                    self.exonerated
                        .entry((*declarer, *period))
                        .or_insert((*from, *task));
                }
                self.omission.record_path(*declarer, *from, *to, *period)
            }
            // A mistimed output is a declaration against its producer:
            // "doing the right thing at the wrong time" is counted like
            // a problematic path from the producer to the declarer.
            EvidenceRecord::TimingDeclaration {
                declarer, output, ..
            } => self
                .omission
                .record_path(*declarer, output.producer, *declarer, output.period),
            EvidenceRecord::CrashSuspicion {
                declarer,
                about,
                period,
                ..
            } => self.omission.record_suspicion(*declarer, *about, *period),
            _ => Vec::new(),
        }
    }

    /// The root (producer, task) a silent node blamed for `period`, if it
    /// exonerated itself.
    pub(crate) fn exoneration_of(
        &self,
        node: NodeId,
        period: PeriodIdx,
    ) -> Option<(NodeId, TaskId)> {
        self.exonerated.get(&(node, period)).copied()
    }

    /// Declarations the cascade gates swallowed so far (see
    /// [`Detector::end_of_period`]).
    pub(crate) fn suppressed_declarations(&self) -> u64 {
        self.suppressed
    }

    /// Unattributed suspects one accuser short of conviction (see
    /// [`OmissionTracker::near_miss_suspects`]).
    pub(crate) fn near_miss_suspects(&self) -> usize {
        self.omission.near_miss_suspects()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_crypto::{KeyStore, NodeKey};
    use btr_model::{inputs_digest, sensor_value, task_value, Value};

    struct View;
    impl WorkloadView for View {
        fn inputs_of_task(&self, task: TaskId) -> Option<Vec<TaskId>> {
            match task.0 {
                0 => Some(vec![]),
                1 => Some(vec![TaskId(0)]),
                _ => None,
            }
        }
        fn task_is_source(&self, task: TaskId) -> bool {
            task.0 == 0
        }
        fn workload_seed(&self) -> u64 {
            9
        }
    }

    fn signer(i: u32) -> Signer {
        Signer::new(NodeKey::derive(11, i))
    }
    fn ks() -> KeyStore {
        KeyStore::derive(11, 8)
    }

    /// The verifier of a host with no memo: the keystore itself.
    fn by_keystore(ks: &KeyStore) -> impl FnMut(&Signature, &[u8]) -> Result<(), SigError> + '_ {
        |sig, msg| ks.verify(sig, msg)
    }

    fn checker_cfg() -> CheckerConfig {
        CheckerConfig {
            task: TaskId(1),
            lanes: 2,
            lane_nodes: vec![NodeId(1), NodeId(2)],
            is_source: false,
            inputs: vec![TaskId(0)],
            seed: 9,
        }
    }

    fn src_out(p: PeriodIdx) -> SignedOutput {
        let v = sensor_value(TaskId(0), p, 9);
        SignedOutput::sign(
            &signer(0),
            TaskId(0),
            0,
            p,
            v,
            inputs_digest(&[]),
            NodeId(0),
        )
    }

    fn lane_out(
        p: PeriodIdx,
        lane: u8,
        node: u32,
        value_xor: Value,
    ) -> (SignedOutput, Vec<SignedOutput>) {
        let input = src_out(p);
        let vals = [(TaskId(0), input.value)];
        let v = task_value(TaskId(1), p, &vals) ^ value_xor;
        let out = SignedOutput::sign(
            &signer(node),
            TaskId(1),
            lane,
            p,
            v,
            inputs_digest(&vals),
            NodeId(node),
        );
        (out, vec![input])
    }

    #[test]
    fn clean_outputs_produce_no_evidence() {
        let mut d = Detector::new(NodeId(3));
        d.install_checker(checker_cfg());
        let (o0, w0) = lane_out(1, 0, 1, 0);
        let (o1, w1) = lane_out(1, 1, 2, 0);
        let evs = see(&mut d, o0, None, &w0);
        assert!(evs.is_empty());
        let evs = see(&mut d, o1, None, &w1);
        assert!(evs.is_empty(), "{evs:?}");
    }

    #[test]
    fn bad_computation_is_proven() {
        let mut d = Detector::new(NodeId(3));
        d.install_checker(checker_cfg());
        let (bad, w) = lane_out(1, 0, 1, 0xdead);
        let evs = see(&mut d, bad, None, &w);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].convicts(), Some(NodeId(1)));
        // The proof verifies independently.
        assert_eq!(evs[0].verify(&ks(), &View), Ok(()));
        // Re-observing does not re-emit (dedup).
        let (bad2, w2) = lane_out(1, 0, 1, 0xdead);
        let evs = see(&mut d, bad2, None, &w2);
        assert!(evs.is_empty());
    }

    #[test]
    fn equivocation_across_copies_is_proven() {
        let mut d = Detector::new(NodeId(3));
        // Node 1 signs two different lane-0 outputs for the same period.
        let (a, wa) = lane_out(2, 0, 1, 0);
        let (b, wb) = lane_out(2, 0, 1, 0x55);
        let evs = see(&mut d, a, None, &wa);
        assert!(evs.is_empty());
        let evs = see(&mut d, b, None, &wb);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].convicts(), Some(NodeId(1)));
        assert_eq!(evs[0].verify(&ks(), &View), Ok(()));
    }

    #[test]
    fn gate_drops_forged_outputs_and_skips_forged_witnesses() {
        let mut d = Detector::new(NodeId(3));
        // A forged output (tag does not match content) is dropped whole.
        let (mut forged, w) = lane_out(1, 0, 1, 0);
        forged.value ^= 1;
        let evs = see(&mut d, forged, None, &w);
        assert!(evs.is_empty());
        // A relabelled output (valid tag under the signer's own key, but
        // claiming another producer) is equally dropped: whatever the
        // verifier, the key-id/producer consistency gate holds.
        let (mut relabelled, w) = lane_out(1, 0, 1, 0);
        relabelled.producer = NodeId(5);
        let evs = see(&mut d, relabelled, None, &w);
        assert!(evs.is_empty());
        // A valid output with one forged witness: the witness is skipped
        // (it cannot seed the equivocation pool) but the output lands.
        let (good, mut w) = lane_out(2, 0, 1, 0);
        w[0].value ^= 0xff; // Tag no longer matches.
        let evs = see(&mut d, good.clone(), None, &w);
        assert!(evs.is_empty());
        // The same witness, validly signed with a *conflicting* value,
        // now meets the pool for the first time: no equivocation proof
        // can cite the forged copy, proving it was never admitted.
        let (again, w2) = lane_out(2, 0, 1, 0);
        let evs = see(&mut d, again, None, &w2);
        assert!(evs.is_empty(), "forged witness must not have been pooled");
        let _ = good;
        // Nor did it become the memo's resident: the forged copy, sent
        // again, is still not taken on trust (a MAC is spent on it, and
        // it fails), while the honest copy the last message pooled is.
        assert!(!d.pool.is_resident(&w[0]) && d.pool.is_resident(&w2[0]));
        let (third, _) = lane_out(2, 1, 2, 0);
        let macs = btr_crypto::mac_count();
        see(&mut d, third, None, &w);
        assert_eq!(btr_crypto::mac_count() - macs, 2, "output + forged witness");
        assert_eq!(d.witness_ok, [false]);
    }

    /// `observe_output` with no timing window and no envelope.
    fn see(
        d: &mut Detector,
        output: SignedOutput,
        verified: Option<bool>,
        witnesses: &[SignedOutput],
    ) -> Vec<EvidenceRecord> {
        let s = signer(3);
        d.observe_output(
            by_keystore(&ks()),
            &s,
            &View,
            output,
            verified,
            witnesses,
            Time(0),
            None,
            None,
        )
    }

    #[test]
    fn resident_copies_cost_no_mac_and_anything_else_is_checked() {
        let mut d = Detector::new(NodeId(3));
        d.install_checker(checker_cfg());
        let (o, w) = lane_out(1, 0, 1, 0);
        let macs = btr_crypto::mac_count();
        assert!(see(&mut d, o.clone(), None, &w).is_empty());
        assert_eq!(
            btr_crypto::mac_count() - macs,
            2,
            "first sight: one MAC each"
        );
        // The same message again (an echo, a second consumer's copy):
        // output and witness are both the pool's verified residents.
        let macs = btr_crypto::mac_count();
        assert!(see(&mut d, o.clone(), None, &w).is_empty());
        assert_eq!(btr_crypto::mac_count() - macs, 0, "all resident");
        assert_eq!(d.witness_ok, [true]);
        // The other lane carries the same witness: only its own output
        // is new. And an output the runtime already verified is not
        // verified again.
        let (o1, w1) = lane_out(1, 1, 2, 0);
        let macs = btr_crypto::mac_count();
        assert!(see(&mut d, o1, None, &w1).is_empty());
        assert_eq!(
            btr_crypto::mac_count() - macs,
            1,
            "new output, resident witness"
        );
        let (o2, w2) = lane_out(2, 0, 1, 0);
        let macs = btr_crypto::mac_count();
        assert!(see(&mut d, o2, Some(true), &w2).is_empty());
        assert_eq!(
            btr_crypto::mac_count() - macs,
            1,
            "caller-verified output, new witness"
        );
        // And one the runtime found forged is dropped on its word.
        let (mut o3, w3) = lane_out(3, 0, 1, 0);
        o3.value ^= 1;
        let macs = btr_crypto::mac_count();
        assert!(see(&mut d, o3.clone(), Some(false), &w3).is_empty());
        assert_eq!(btr_crypto::mac_count() - macs, 0);
        assert!(!d.pool.is_resident(&o3) && !d.pool.is_resident(&w3[0]));

        // A copy of the resident witness altered in any one field, in the
        // tag, or in the key id is not the resident: it takes the staged
        // path and, being forged, fails it — as a witness and as an
        // output — and never displaces the verified copy.
        let resident = w[0].clone();
        let mut altered = vec![resident.clone(); 8];
        altered[0].task = TaskId(1);
        altered[1].replica = 1;
        altered[2].period = 2;
        altered[3].value ^= 1;
        altered[4].inputs_digest ^= 1;
        altered[5].producer = NodeId(4);
        altered[6].sig.tag.0[31] ^= 1;
        altered[7].sig.key = 4;
        for (i, forged) in altered.iter().enumerate() {
            assert!(!d.pool.is_resident(forged), "field {i}");
            assert!(forged.verify(&ks()).is_err(), "field {i} is a forgery");
            let (carrier, _) = lane_out(1, 0, 1, 0);
            let macs = btr_crypto::mac_count();
            see(&mut d, carrier, None, std::slice::from_ref(forged));
            assert_eq!(d.witness_ok, [false], "field {i} as a witness");
            // MAC-checked, unless the key id contradicts the
            // producer, which fails before any MAC is spent.
            let gate = u64::from(forged.sig.key == forged.producer.0);
            assert_eq!(btr_crypto::mac_count() - macs, gate, "field {i}");
            assert!(see(&mut d, forged.clone(), None, &[]).is_empty());
            assert!(!d.pool.is_resident(forged), "field {i} as an output");
            assert!(
                d.pool.is_resident(&resident),
                "field {i} displaced the resident"
            );
        }
    }

    #[test]
    fn validly_signed_conflicting_copy_is_checked_and_convicts() {
        let mut d = Detector::new(NodeId(3));
        let (a, wa) = lane_out(2, 0, 1, 0);
        let (b, wb) = lane_out(2, 0, 1, 0x55);
        assert!(see(&mut d, a.clone(), None, &wa).is_empty());
        // `b` shares a's slot, producer and key but not its bytes: the
        // memo does not cover it, its MAC is checked (one: the witness is
        // resident), and the two copies are an equivocation proof —
        // also when the runtime did the checking.
        let macs = btr_crypto::mac_count();
        let evs = see(&mut d, b.clone(), None, &wb);
        assert_eq!(btr_crypto::mac_count() - macs, 1);
        assert!(
            matches!(&evs[..], [EvidenceRecord::Equivocation { accused, .. }] if *accused == NodeId(1))
        );
        assert_eq!(evs[0].verify(&ks(), &View), Ok(()));
        let mut d = Detector::new(NodeId(3));
        see(&mut d, a.clone(), Some(true), &wa);
        let evs = see(&mut d, b, Some(true), &wb);
        assert_eq!(evs.len(), 1);
        // The first-seen copy stays the resident.
        assert!(d.pool.is_resident(&a));
    }

    proptest::proptest! {
        /// The memo changes what a message costs, never what it yields: a
        /// detector whose pool already holds the (honest) source outputs
        /// every message cites returns, message for message, the evidence
        /// a cold one does — over honest, miscomputed and equivocating
        /// outputs, honest and forged witnesses, outputs the runtime did
        /// and did not verify itself.
        #[test]
        fn prop_prewarmed_pool_changes_no_evidence(
            msgs in proptest::collection::vec((1u64..4, 0u8..2, 0u8..3, 0u8..10), 1..14)
        ) {
            let mut cold = Detector::new(NodeId(3));
            let mut warm = Detector::new(NodeId(3));
            for d in [&mut cold, &mut warm] {
                d.install_checker(checker_cfg());
            }
            for p in 1..4 {
                proptest::prop_assert!(see(&mut warm, src_out(p), None, &[]).is_empty());
            }
            let (mut cold_macs, mut warm_macs) = (0, 0);
            for (i, &(p, lane, out_kind, k)) in msgs.iter().enumerate() {
                let (wit_kind, by_runtime) = (k % 5, k >= 5);
                let xor = [0, 0xdead, 0x55 + i as u64][out_kind as usize];
                let (output, mut w) = lane_out(p, lane, 1 + lane as u32, xor);
                match wit_kind {
                    0 | 1 => {}
                    2 => w[0].sig.tag.0[0] ^= 1,
                    3 => w[0].value ^= 1,
                    _ => w[0].sig.key = 5,
                }
                // The producer's envelope signature, so a malformed
                // witness set can be proven (BadWitness).
                let payload = btr_model::Payload::Output { output: output.clone(), witnesses: w.clone() };
                let env_sig = btr_model::Envelope::sign_parts(
                    &signer(output.producer.0), output.producer, Time(i as u64), &payload, &mut Vec::new());
                let verified = by_runtime.then(|| output.verify(&ks()).is_ok());
                let feed = |d: &mut Detector| {
                    let macs = btr_crypto::mac_count();
                    let evs = d.observe_output(
                        by_keystore(&ks()), &signer(3), &View, output.clone(), verified, &w,
                        Time(i as u64), None, Some((Time(i as u64), env_sig)));
                    (evs, btr_crypto::mac_count() - macs)
                };
                let (cold_evs, c) = feed(&mut cold);
                let (warm_evs, m) = feed(&mut warm);
                proptest::prop_assert!(cold_evs == warm_evs, "message {i}: {cold_evs:?} vs {warm_evs:?}");
                for ev in &cold_evs {
                    proptest::prop_assert_eq!(ev.verify(&ks(), &View), Ok(()));
                }
                cold_macs += c;
                warm_macs += m;
            }
            proptest::prop_assert!(warm_macs <= cold_macs);
        }
    }

    #[test]
    fn late_arrival_yields_timing_declaration() {
        let mut d = Detector::new(NodeId(3));
        let s = signer(3);
        let (o, w) = lane_out(1, 0, 1, 0);
        let evs = d.observe_output(
            by_keystore(&ks()),
            &s,
            &View,
            o,
            None,
            &w,
            Time(9_000),
            Some(Time(5_000)),
            None,
        );
        assert_eq!(evs.len(), 1);
        assert!(matches!(evs[0], EvidenceRecord::TimingDeclaration { .. }));
        assert_eq!(evs[0].verify(&ks(), &View), Ok(()));
    }

    #[test]
    fn missing_lane_yields_path_declaration() {
        let mut d = Detector::new(NodeId(3));
        d.install_checker(checker_cfg());
        let s = signer(3);
        // Only lane 1 arrives in period 5.
        let (o1, w1) = lane_out(5, 1, 2, 0);
        see(&mut d, o1, None, &w1);
        let evs = d.end_of_period(&s, 5, &BTreeSet::new(), &|_, _| false);
        assert_eq!(evs.len(), 1);
        match &evs[0] {
            EvidenceRecord::PathDeclaration { from, to, task, .. } => {
                assert_eq!((*from, *to, *task), (NodeId(1), NodeId(3), TaskId(1)));
            }
            other => panic!("expected path declaration, got {other:?}"),
        }
    }

    #[test]
    fn known_faulty_lanes_not_redeclared() {
        let mut d = Detector::new(NodeId(3));
        d.install_checker(checker_cfg());
        let s = signer(3);
        let faulty = BTreeSet::from([NodeId(1), NodeId(2)]);
        let evs = d.end_of_period(&s, 1, &faulty, &|_, _| false);
        assert!(evs.is_empty());
    }

    #[test]
    fn heartbeat_silence_suspected() {
        let mut d = Detector::new(NodeId(3));
        let s = signer(3);
        d.observe_heartbeat(NodeId(4), 0);
        d.observe_heartbeat(NodeId(5), 0);
        // Node 4 goes silent; node 5 keeps beating.
        let suspects = |d: &mut Detector, p: PeriodIdx| -> Vec<NodeId> {
            d.observe_heartbeat(NodeId(5), p);
            let evs = d.end_of_period(&s, p, &BTreeSet::new(), &|_, _| false);
            evs.iter()
                .filter_map(|e| match e {
                    EvidenceRecord::CrashSuspicion { about, .. } => Some(*about),
                    _ => None,
                })
                .collect()
        };
        // Two missed beats are tolerated; the third is a suspicion.
        for p in 1..HEARTBEAT_MISS_THRESHOLD {
            assert!(suspects(&mut d, p).is_empty(), "period {p}");
        }
        assert_eq!(suspects(&mut d, HEARTBEAT_MISS_THRESHOLD), vec![NodeId(4)]);
    }

    #[test]
    fn attribution_via_declarations() {
        let mut d = Detector::new(NodeId(3));
        let declare = |from: u32, period: PeriodIdx| {
            let from = NodeId(from);
            EvidenceRecord::declare_path(&signer(from.0), from, NodeId(4), from, TaskId(1), period)
        };
        // No plan is installed, so every accuser counts toward the full
        // threshold, over at least two periods.
        let last = 5 + OMISSION_THRESHOLD as u32 - 1;
        for from in 5..last {
            assert!(d
                .record_declaration(&declare(from, from as PeriodIdx % 2))
                .is_empty());
        }
        let newly = d.record_declaration(&declare(last, 2));
        assert_eq!(newly, vec![NodeId(4)]);
        assert!(d.omission.attributed().contains(&NodeId(4)));
    }

    #[test]
    fn checker_management() {
        let mut d = Detector::new(NodeId(3));
        d.install_checker(checker_cfg());
        assert_eq!(d.checked_tasks(), vec![TaskId(1)]);
        d.remove_checker(TaskId(1));
        assert!(d.checked_tasks().is_empty());
    }
}
