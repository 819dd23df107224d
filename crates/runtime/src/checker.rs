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

/// Periods the pool keeps a row for. `Detector` collects four periods
/// behind the one it closes and outputs arrive for the current one, so
/// honest traffic spans six; everything else is the overflow's.
const WINDOW: u64 = 8;
/// Slots a full row grows by: a row never holds more than seven slots
/// it does not use (doubling would hold up to as many again as it does).
const ROW_GROWTH: usize = 8;

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
///
/// Layout: period first. The periods `[base, base + WINDOW)` each have a
/// row — `rows[period % WINDOW]`, sorted by (task, replica) — so a
/// lookup is an index and a short binary search, and collecting a period
/// frees its row without looking at any other: the pool holds its live
/// records at 72 bytes each and nothing else. A Byzantine producer
/// may sign any period: what falls outside the window when it arrives
/// goes to an ordered map, as everything used to, and stays there until
/// collected (a key lives in one place: where its first copy was put).
#[derive(Debug, Default)]
pub(crate) struct OutputPool {
    rows: [Vec<SignedOutput>; WINDOW as usize],
    /// First period of the window: the greatest `before` collected so far.
    base: PeriodIdx,
    overflow: BTreeMap<(TaskId, ReplicaIdx, PeriodIdx), SignedOutput>,
}

impl OutputPool {
    /// Where (task, replica) is, or belongs, in `period`'s row; `None`
    /// for a period outside the window.
    fn in_row(
        &self,
        task: TaskId,
        replica: ReplicaIdx,
        period: PeriodIdx,
    ) -> Option<Result<usize, usize>> {
        let in_window = period >= self.base && period - self.base < WINDOW;
        in_window.then(|| {
            self.rows[(period % WINDOW) as usize]
                .binary_search_by_key(&(task, replica), |o| (o.task, o.replica))
        })
    }

    /// The copy held for (task, replica, period).
    pub(crate) fn get(
        &self,
        task: TaskId,
        replica: ReplicaIdx,
        period: PeriodIdx,
    ) -> Option<&SignedOutput> {
        if let Some(Ok(i)) = self.in_row(task, replica, period) {
            return Some(&self.rows[(period % WINDOW) as usize][i]);
        }
        // Empty unless someone signed a period far from the present.
        if self.overflow.is_empty() {
            return None;
        }
        self.overflow.get(&(task, replica, period))
    }

    /// True if `out` is byte-for-byte the verified copy this pool holds
    /// for its (task, replica, period): same fields, same tag, same key
    /// id. The comparison needs no constant-time care — a resident's tag
    /// already travelled the network in the clear.
    pub(crate) fn is_resident(&self, out: &SignedOutput) -> bool {
        self.get(out.task, out.replica, out.period) == Some(out)
    }

    /// Keep `out` unless a copy is already held for its (task, replica,
    /// period); returns that earlier copy, which stays.
    pub(crate) fn insert_first(&mut self, out: &SignedOutput) -> Option<&SignedOutput> {
        let key = (out.task, out.replica, out.period);
        let r = (out.period % WINDOW) as usize;
        let place = self.in_row(out.task, out.replica, out.period);
        if let Some(Ok(i)) = place {
            return Some(&self.rows[r][i]);
        }
        if !self.overflow.is_empty() && self.overflow.contains_key(&key) {
            return self.overflow.get(&key);
        }
        match place {
            Some(Err(i)) => {
                let row = &mut self.rows[r];
                if row.len() == row.capacity() {
                    row.reserve_exact(ROW_GROWTH);
                }
                row.insert(i, out.clone());
            }
            _ => {
                self.overflow.insert(key, out.clone());
            }
        }
        None
    }

    /// Insert a (signature-verified) output; returns an equivocation
    /// proof if it conflicts with an earlier copy.
    pub(crate) fn insert_checked(&mut self, out: &SignedOutput) -> Option<EvidenceRecord> {
        let prev = self.insert_first(out)?;
        (prev.producer == out.producer
            && (prev.value != out.value || prev.inputs_digest != out.inputs_digest))
            .then(|| EvidenceRecord::Equivocation {
                accused: out.producer,
                a: prev.clone(),
                b: out.clone(),
            })
    }

    /// Drop entries older than `before` periods (bounded memory).
    pub(crate) fn gc(&mut self, before: PeriodIdx) {
        if before > self.base {
            // The window moves up: the rows it leaves behind are freed
            // (and are the rows of the periods it moves onto).
            for p in self.base..before.min(self.base.saturating_add(WINDOW)) {
                self.rows[(p % WINDOW) as usize] = Vec::new();
            }
            self.base = before;
        }
        if !self.overflow.is_empty() {
            self.overflow.retain(|&(_, _, p), _| p >= before);
        }
    }

    /// Number of pooled outputs: what the tests hold against the map
    /// the pool replaced.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.rows.iter().map(Vec::len).sum::<usize>() + self.overflow.len()
    }
}

/// Static configuration of one checking task.
#[derive(Debug, Clone)]
pub(crate) struct CheckerConfig {
    /// The checked workload task.
    pub(crate) task: TaskId,
    /// Number of replica lanes.
    pub(crate) lanes: u8,
    /// Expected host of each lane (from the active plan).
    pub(crate) lane_nodes: Vec<NodeId>,
    /// True if the task is a sensor source.
    pub(crate) is_source: bool,
    /// Declared dataflow inputs.
    pub(crate) inputs: Vec<TaskId>,
    /// Workload seed (source readings).
    pub(crate) seed: u64,
}

/// The checking task for one workload task.
#[derive(Debug)]
pub(crate) struct ReplicaChecker {
    cfg: CheckerConfig,
    /// Lanes seen per period.
    arrived: BTreeMap<PeriodIdx, Vec<ReplicaIdx>>,
}

impl ReplicaChecker {
    /// Create a checker from its plan-derived configuration.
    pub(crate) fn new(mut cfg: CheckerConfig) -> Self {
        // Sorted once: `observe` compares it with each output's sorted
        // witness tasks.
        cfg.inputs.sort_unstable();
        ReplicaChecker {
            cfg,
            arrived: BTreeMap::new(),
        }
    }

    /// The checked task.
    pub(crate) fn task(&self) -> TaskId {
        self.cfg.task
    }

    /// Check one replica output against its own witnesses.
    ///
    /// `witness_ok[i]` is the signature-verification result for
    /// `witnesses[i]`, computed by the caller (see
    /// `Detector::observe_output`) so no witness is checked twice.
    /// Returns at most one bad-computation proof (plus nothing else; the
    /// caller runs the equivocation pool and timing watch separately).
    pub(crate) fn observe(
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
    pub(crate) fn missing_lanes(&self, period: PeriodIdx) -> Vec<(ReplicaIdx, NodeId)> {
        let seen = self.arrived.get(&period);
        (0..self.cfg.lanes)
            .filter(|r| seen.is_none_or(|v| !v.contains(r)))
            .filter_map(|r| self.cfg.lane_nodes.get(r as usize).map(|&n| (r, n)))
            .collect()
    }

    /// Drop state older than `before` (bounded memory).
    pub(crate) fn gc(&mut self, before: PeriodIdx) {
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
        assert_eq!(pool.len(), 0);
    }

    /// The ordered map the pool used to be, and still must behave as.
    #[derive(Default)]
    struct MapPool(BTreeMap<(TaskId, ReplicaIdx, PeriodIdx), SignedOutput>);

    impl MapPool {
        fn is_resident(&self, out: &SignedOutput) -> bool {
            self.0.get(&(out.task, out.replica, out.period)) == Some(out)
        }
        fn insert_checked(&mut self, out: &SignedOutput) -> Option<EvidenceRecord> {
            let prev = match self.0.entry((out.task, out.replica, out.period)) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(out.clone());
                    return None;
                }
                std::collections::btree_map::Entry::Occupied(o) => o.into_mut(),
            };
            (prev.producer == out.producer
                && (prev.value != out.value || prev.inputs_digest != out.inputs_digest))
                .then(|| EvidenceRecord::Equivocation {
                    accused: out.producer,
                    a: prev.clone(),
                    b: out.clone(),
                })
        }
        fn gc(&mut self, before: PeriodIdx) {
            self.0.retain(|&(_, _, p), _| p >= before);
        }
    }

    proptest::proptest! {
        /// Rows, window and overflow are a layout, not a behaviour: over
        /// inserts, lookups and collections in any order — periods at,
        /// behind and far ahead of the window (a Byzantine producer may
        /// sign any period), replica indices up to 255, collections that
        /// jump ahead or step back — the pool answers as the map does.
        #[test]
        fn prop_pool_is_the_map_it_replaced(
            ops in proptest::collection::vec(((0u8..10, 0u32..3), (0u8..4, 0u8..24, 0u64..3)), 1..160)
        ) {
            let (mut pool, mut model) = (OutputPool::default(), MapPool::default());
            // The period honest traffic is at; it drifts up as gc is called.
            let mut now: PeriodIdx = 2;
            for (step, &((op, task), (r, p, v))) in ops.iter().enumerate() {
                let period = match p {
                    0..=11 => (now + u64::from(p)).saturating_sub(6),
                    12..=15 => now + u64::from(p),
                    16..=18 => now + 1_000 * u64::from(p),
                    19 => u64::MAX - u64::from(r),
                    _ => u64::from(p - 20),
                };
                let out = SignedOutput {
                    task: TaskId(task),
                    replica: [0, 1, 7, 255][r as usize],
                    period,
                    value: v,
                    inputs_digest: v / 2,
                    producer: NodeId(task + (v == 2) as u32),
                    sig: Signature { key: task, tag: btr_crypto::Digest([v as u8; 32]) },
                };
                match op {
                    0..=4 => proptest::prop_assert!(
                        pool.insert_checked(&out) == model.insert_checked(&out), "step {step}"
                    ),
                    5 | 6 => {}
                    7 | 8 => {
                        now += u64::from(op - 7) * (v + 1);
                        pool.gc(now.saturating_sub(4));
                        model.gc(now.saturating_sub(4));
                    }
                    _ => {
                        // Out of step: behind the window, or past all of it.
                        pool.gc(period);
                        model.gc(period);
                        now = now.max(period.min(1 << 40));
                    }
                }
                proptest::prop_assert!(
                    pool.is_resident(&out) == model.is_resident(&out), "step {step}: residency"
                );
                proptest::prop_assert!(pool.len() == model.0.len(), "step {step}: len");
            }
            // Whatever is left is found, copy for copy.
            for out in model.0.values() {
                proptest::prop_assert!(pool.is_resident(out));
            }
        }
    }

    #[test]
    fn honest_traffic_never_touches_the_overflow() {
        // Six periods in flight, collected as `Detector` collects: the
        // map stays empty and only the live periods hold memory.
        let mut pool = OutputPool::default();
        for p in 0..40 {
            for task in 0..3 {
                let mut out = input(p);
                out.task = TaskId(task);
                assert!(pool.insert_checked(&out).is_none());
                assert!(pool.is_resident(&out));
            }
            pool.gc(p.saturating_sub(5));
            assert!(pool.overflow.is_empty());
            assert_eq!(pool.len(), 3 * (p.min(5) as usize + 1));
        }
        let held = pool.rows.iter().filter(|r| r.capacity() > 0).count();
        assert_eq!(held, 6);
        assert!(pool.rows.iter().all(|r| r.capacity() <= ROW_GROWTH));
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
