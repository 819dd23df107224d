//! Replica output checking and the equivocation pool.
//!
//! Section 4.1: checking tasks "compare the outputs of the replicas to
//! detect faults and generate evidence". Because every output carries a
//! signed commitment to its inputs plus the signed inputs themselves
//! (witnesses), a checker can verify each replica *in isolation*:
//! re-execute over the witnesses and compare with the committed output.
//! No quorum is needed for detection — this is exactly why detection is
//! cheaper than masking (f+1 vs 2f+1 replicas).

use btr_crypto::Signature;
use btr_model::evidence::WorkloadView;
use btr_model::{
    inputs_digest, sensor_value, task_value, EvidenceRecord, NodeId, PeriodIdx, ReplicaIdx,
    SignedOutput, TaskId, Time, Value,
};
use std::collections::BTreeMap;

/// First-seen signed outputs, for equivocation detection — and the
/// node's verified-record memo.
///
/// Keyed by (task, replica, period): any two validly signed outputs under
/// the same key with different content are an equivocation proof against
/// their producer. Shared across all checkers on a node so witnesses from
/// different flows cross-check each other.
///
/// Invariant: every resident was MAC-verified by this node before it was
/// inserted ([`OutputPool::insert_checked`] is only ever handed verified
/// outputs). A later copy that equals a resident in every field, tag and
/// key id included, is therefore known valid without another MAC
/// ([`OutputPool::is_resident`]); a copy that differs anywhere is not
/// covered and must be MAC-checked like a first sighting.
#[derive(Debug, Default)]
pub struct OutputPool {
    seen: BTreeMap<(TaskId, ReplicaIdx, PeriodIdx), SignedOutput>,
}

impl OutputPool {
    /// True if `out` is byte-for-byte the verified copy this pool holds
    /// for its (task, replica, period): same fields, same tag, same key
    /// id. The comparison needs no constant-time care — a resident's tag
    /// already travelled the network in the clear.
    pub fn is_resident(&self, out: &SignedOutput) -> bool {
        self.seen.get(&(out.task, out.replica, out.period)) == Some(out)
    }

    /// Insert a (signature-verified) output; returns an equivocation
    /// proof if it conflicts with an earlier copy.
    pub fn insert_checked(&mut self, out: &SignedOutput) -> Option<EvidenceRecord> {
        let key = (out.task, out.replica, out.period);
        match self.seen.get(&key) {
            None => {
                self.seen.insert(key, out.clone());
                None
            }
            Some(prev) => {
                if prev.producer == out.producer
                    && (prev.value != out.value || prev.inputs_digest != out.inputs_digest)
                {
                    Some(EvidenceRecord::Equivocation {
                        accused: out.producer,
                        a: prev.clone(),
                        b: out.clone(),
                    })
                } else {
                    None
                }
            }
        }
    }

    /// Drop entries older than `before` periods (bounded memory).
    pub fn gc(&mut self, before: PeriodIdx) {
        self.seen.retain(|&(_, _, p), _| p >= before);
    }

    /// Number of pooled outputs (diagnostics).
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// True if the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

/// Static configuration of one checking task.
#[derive(Debug, Clone)]
pub struct CheckerConfig {
    /// The checked workload task.
    pub task: TaskId,
    /// Number of replica lanes.
    pub lanes: u8,
    /// Expected host of each lane (from the active plan).
    pub lane_nodes: Vec<NodeId>,
    /// True if the task is a sensor source.
    pub is_source: bool,
    /// Declared dataflow inputs.
    pub inputs: Vec<TaskId>,
    /// Workload seed (source readings).
    pub seed: u64,
}

/// The checking task for one workload task.
#[derive(Debug)]
pub struct ReplicaChecker {
    cfg: CheckerConfig,
    /// Lanes seen per period.
    arrived: BTreeMap<PeriodIdx, Vec<ReplicaIdx>>,
}

impl ReplicaChecker {
    /// Create a checker from its plan-derived configuration.
    pub fn new(mut cfg: CheckerConfig) -> Self {
        // Sorted once: `observe` compares it with each output's sorted
        // witness tasks.
        cfg.inputs.sort_unstable();
        ReplicaChecker {
            cfg,
            arrived: BTreeMap::new(),
        }
    }

    /// The checked task.
    pub fn task(&self) -> TaskId {
        self.cfg.task
    }

    /// Check one replica output against its own witnesses.
    ///
    /// `witness_ok[i]` is the signature-verification result for
    /// `witnesses[i]`, computed by the caller's batched pass (see
    /// `Detector::observe_output`) so no witness is MAC-checked twice.
    /// Returns at most one bad-computation proof (plus nothing else; the
    /// caller runs the equivocation pool and timing watch separately).
    pub fn observe(
        &mut self,
        _view: &dyn WorkloadView,
        output: SignedOutput,
        witnesses: &[SignedOutput],
        witness_ok: &[bool],
        envelope: Option<(Time, Signature)>,
    ) -> Vec<EvidenceRecord> {
        let mut out = Vec::new();
        if output.task != self.cfg.task || output.replica >= self.cfg.lanes {
            return out;
        }
        // Only accept the planned lane host: outputs for this lane from
        // other nodes are noise (they cannot be the scheduled replica).
        if self
            .cfg
            .lane_nodes
            .get(output.replica as usize)
            .is_some_and(|&n| n != output.producer)
        {
            return out;
        }
        self.arrived
            .entry(output.period)
            .or_default()
            .push(output.replica);

        // Witness validation: signatures, periods, the declared input
        // set, and the signed commitment. A producer that sent a
        // malformed witness set is convicted via its own envelope
        // signature (BadWitness), closing the garbage-commitment escape.
        let mut witness_flaw = false;
        let mut vals: Vec<(TaskId, Value)> = Vec::with_capacity(witnesses.len());
        for (i, w) in witnesses.iter().enumerate() {
            if !witness_ok.get(i).copied().unwrap_or(false) || w.period != output.period {
                witness_flaw = true;
            }
            vals.push((w.task, w.value));
        }
        let mut supplied: Vec<TaskId> = vals.iter().map(|(t, _)| *t).collect();
        supplied.sort_unstable();
        if !self.cfg.is_source {
            if self.cfg.inputs != supplied {
                witness_flaw = true;
            }
            if inputs_digest(&vals) != output.inputs_digest {
                witness_flaw = true;
            }
        }
        if witness_flaw && !self.cfg.is_source {
            if let Some((sent_at, env_sig)) = envelope {
                // The envelope signature must actually be the producer's
                // own (otherwise this is relayed noise we cannot judge).
                if env_sig.key == output.producer.0 {
                    out.push(EvidenceRecord::BadWitness {
                        accused: output.producer,
                        output,
                        witnesses: witnesses.to_vec(),
                        sent_at,
                        env_sig,
                    });
                }
            }
            return out;
        }
        let expected = if self.cfg.is_source {
            sensor_value(self.cfg.task, output.period, self.cfg.seed)
        } else {
            task_value(self.cfg.task, output.period, &vals)
        };
        if expected != output.value {
            out.push(EvidenceRecord::BadComputation {
                accused: output.producer,
                output,
                inputs: witnesses.to_vec(),
            });
        }
        out
    }

    /// Lanes that never arrived for `period`, with their planned hosts.
    pub fn missing_lanes(&self, period: PeriodIdx) -> Vec<(ReplicaIdx, NodeId)> {
        let seen = self.arrived.get(&period);
        (0..self.cfg.lanes)
            .filter(|r| seen.is_none_or(|v| !v.contains(r)))
            .filter_map(|r| self.cfg.lane_nodes.get(r as usize).map(|&n| (r, n)))
            .collect()
    }

    /// Drop state older than `before` (bounded memory).
    pub fn gc(&mut self, before: PeriodIdx) {
        self.arrived.retain(|&p, _| p >= before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_crypto::{KeyStore, NodeKey, Signer};

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
            3
        }
    }

    fn signer(i: u32) -> Signer {
        Signer::new(NodeKey::derive(21, i))
    }
    fn ks() -> KeyStore {
        KeyStore::derive(21, 6)
    }

    /// What the detector's batched pass hands the checker.
    fn oks(ws: &[SignedOutput]) -> Vec<bool> {
        ws.iter().map(|w| w.verify(&ks()).is_ok()).collect()
    }

    fn cfg() -> CheckerConfig {
        CheckerConfig {
            task: TaskId(1),
            lanes: 2,
            lane_nodes: vec![NodeId(1), NodeId(2)],
            is_source: false,
            inputs: vec![TaskId(0)],
            seed: 3,
        }
    }

    fn input(p: PeriodIdx) -> SignedOutput {
        let v = sensor_value(TaskId(0), p, 3);
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

    #[test]
    fn pool_detects_equivocation_only_on_conflict() {
        let mut pool = OutputPool::default();
        let a = input(1);
        assert!(pool.insert_checked(&a).is_none());
        // Same copy again: no proof.
        assert!(pool.insert_checked(&a).is_none());
        // Conflicting copy: proof.
        let b = SignedOutput::sign(
            &signer(0),
            TaskId(0),
            0,
            1,
            a.value ^ 1,
            inputs_digest(&[]),
            NodeId(0),
        );
        let ev = pool.insert_checked(&b).expect("equivocation");
        assert_eq!(ev.convicts(), Some(NodeId(0)));
        assert_eq!(pool.len(), 1);
        pool.gc(2);
        assert!(pool.is_empty());
    }

    #[test]
    fn wrong_lane_host_ignored() {
        let mut chk = ReplicaChecker::new(cfg());
        let w = input(1);
        let vals = [(TaskId(0), w.value)];
        // Node 5 forges a lane-0 output (lane 0 belongs to node 1).
        let o = SignedOutput::sign(
            &signer(5),
            TaskId(1),
            0,
            1,
            0xbad,
            inputs_digest(&vals),
            NodeId(5),
        );
        let ws = [w];
        assert!(chk.observe(&View, o, &ws, &oks(&ws), None).is_empty());
    }

    #[test]
    fn commitment_mismatch_not_judged() {
        let mut chk = ReplicaChecker::new(cfg());
        let w = input(1);
        // Producer commits to garbage: checker refuses to judge (no
        // unsound proof), leaving it to omission/timing handling.
        let o = SignedOutput::sign(&signer(1), TaskId(1), 0, 1, 0xbad, 0x1234, NodeId(1));
        let ws = [w];
        assert!(chk.observe(&View, o, &ws, &oks(&ws), None).is_empty());
    }

    #[test]
    fn missing_lanes_reported_until_arrival() {
        let mut chk = ReplicaChecker::new(cfg());
        assert_eq!(chk.missing_lanes(7), vec![(0, NodeId(1)), (1, NodeId(2))]);
        let w = input(7);
        let vals = [(TaskId(0), w.value)];
        let o = SignedOutput::sign(
            &signer(2),
            TaskId(1),
            1,
            7,
            task_value(TaskId(1), 7, &vals),
            inputs_digest(&vals),
            NodeId(2),
        );
        let ws = [w];
        chk.observe(&View, o, &ws, &oks(&ws), None);
        assert_eq!(chk.missing_lanes(7), vec![(0, NodeId(1))]);
    }

    #[test]
    fn source_checker_uses_sensor_value() {
        let mut chk = ReplicaChecker::new(CheckerConfig {
            task: TaskId(0),
            lanes: 1,
            lane_nodes: vec![NodeId(0)],
            is_source: true,
            inputs: vec![],
            seed: 3,
        });
        let honest = input(4);
        assert!(chk.observe(&View, honest, &[], &[], None).is_empty());
        let lying = SignedOutput::sign(
            &signer(0),
            TaskId(0),
            0,
            5,
            sensor_value(TaskId(0), 5, 3) ^ 0xff,
            inputs_digest(&[]),
            NodeId(0),
        );
        let evs = chk.observe(&View, lying, &[], &[], None);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].verify(&ks(), &View), Ok(()));
    }

    #[test]
    fn stale_witness_period_rejected() {
        let mut chk = ReplicaChecker::new(cfg());
        let stale = input(1);
        let vals = [(TaskId(0), stale.value)];
        let o = SignedOutput::sign(
            &signer(1),
            TaskId(1),
            0,
            2, // Period 2 output with a period-1 witness.
            task_value(TaskId(1), 2, &vals),
            inputs_digest(&vals),
            NodeId(1),
        );
        let ws = [stale];
        assert!(chk.observe(&View, o, &ws, &oks(&ws), None).is_empty());
    }
}
