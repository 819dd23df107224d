//! Replica output checking and the equivocation pool.
//!
//! Section 4.1: checking tasks "compare the outputs of the replicas to
//! detect faults and generate evidence". Because every output carries a
//! signed commitment to its inputs plus the signed inputs themselves
//! (witnesses), a checker can verify each replica *in isolation*:
//! re-execute over the witnesses and compare with the committed output.
//! No quorum is needed for detection — this is exactly why detection is
//! cheaper than masking (f+1 vs 2f+1 replicas).

use crate::window::{PeriodRows, Row, DETECTOR_PERIODS};
use btr_crypto::Signature;
use btr_model::evidence::supplies_inputs;
use btr_model::{
    sensor_value, task_value_and_digest, EvidenceRecord, NodeId, PeriodIdx, ReplicaIdx,
    SignedOutput, TaskId, Time, Value,
};

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
/// Layout: period first, in [`PeriodRows`] over the `W` periods its
/// owner keeps: each period's row is sorted by (task, replica), so a
/// lookup is an index and a short binary search, and a collected
/// period's row is emptied and kept for the period the window reaches
/// next. The pool holds its records at 72 bytes each and allocates
/// nothing once its rows have grown to the traffic of a period.
#[derive(Debug, Default)]
pub(crate) struct OutputPool<const W: usize> {
    rows: PeriodRows<Vec<SignedOutput>, W>,
}

impl<const W: usize> OutputPool<W> {
    /// The copy held for (task, replica, period).
    pub(crate) fn get(
        &self,
        task: TaskId,
        replica: ReplicaIdx,
        period: PeriodIdx,
    ) -> Option<&SignedOutput> {
        let row = self.rows.get(period)?;
        let i = row
            .binary_search_by_key(&(task, replica), |o| (o.task, o.replica))
            .ok()?;
        Some(&row[i])
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
        let row = self.rows.get_mut(out.period);
        match row.binary_search_by_key(&(out.task, out.replica), |o| (o.task, o.replica)) {
            Ok(i) => Some(&row[i]),
            Err(i) => {
                if row.len() == row.capacity() {
                    row.reserve_exact(ROW_GROWTH);
                }
                row.insert(i, out.clone());
                None
            }
        }
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
        self.rows.gc(before);
    }

    /// Number of pooled outputs: what the tests hold against the map
    /// the pool replaced.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.rows.all().map(Vec::len).sum()
    }
}

/// The replica lanes seen in one period: a bit per lane index.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneSet([u64; 4]);

impl LaneSet {
    fn insert(&mut self, lane: ReplicaIdx) {
        self.0[usize::from(lane / 64)] |= 1 << (lane % 64);
    }

    fn contains(&self, lane: ReplicaIdx) -> bool {
        self.0[usize::from(lane / 64)] & (1 << (lane % 64)) != 0
    }
}

impl Row for LaneSet {
    fn clear(&mut self) {
        *self = LaneSet::default();
    }
}

/// What the checker of one task reads: the active plan's lane hosts
/// (`PlanTables::checked_task`) and the workload's declaration, both
/// borrowed where they are held.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Checked<'a> {
    /// The checked workload task.
    pub(crate) task: TaskId,
    /// Per replica lane: its planned host, if placed.
    pub(crate) hosts: &'a [Option<NodeId>],
    /// Declared dataflow inputs.
    pub(crate) inputs: &'a [TaskId],
    /// The workload seed if the task is a sensor source (its readings).
    pub(crate) source_seed: Option<u64>,
}

/// The checking task for one workload task: the lanes it has seen.
#[derive(Debug, Default)]
pub(crate) struct ReplicaChecker {
    /// Lanes seen per period.
    arrived: PeriodRows<LaneSet, DETECTOR_PERIODS>,
}

impl ReplicaChecker {
    /// Check one replica output of `spec`'s task against its own
    /// witnesses.
    ///
    /// `witness_ok[i]` is the signature-verification result for
    /// `witnesses[i]`, computed by the caller (see
    /// `Detector::observe_output`) so no witness is checked twice.
    /// `vals` is the node's reusable input list. Returns at most one
    /// bad-computation proof (plus nothing else; the caller runs the
    /// equivocation pool and timing watch separately).
    pub(crate) fn observe(
        &mut self,
        spec: &Checked<'_>,
        output: SignedOutput,
        witnesses: &[SignedOutput],
        witness_ok: &[bool],
        envelope: Option<(Time, Signature)>,
        vals: &mut Vec<(TaskId, Value)>,
    ) -> Option<EvidenceRecord> {
        // Only accept the planned lane host: outputs for this lane from
        // other nodes are noise (they cannot be the scheduled replica).
        match spec.hosts.get(usize::from(output.replica)) {
            Some(&host) if output.task == spec.task => {
                if host.is_some_and(|n| n != output.producer) {
                    return None;
                }
            }
            _ => return None,
        }
        self.arrived.get_mut(output.period).insert(output.replica);

        // Witness validation: signatures, periods, the declared input
        // set, and the signed commitment. A producer that sent a
        // malformed witness set is convicted via its own envelope
        // signature (BadWitness), closing the garbage-commitment escape.
        let mut witness_flaw = false;
        vals.clear();
        for (i, w) in witnesses.iter().enumerate() {
            if !witness_ok.get(i).copied().unwrap_or(false) || w.period != output.period {
                witness_flaw = true;
            }
            vals.push((w.task, w.value));
        }
        let value = if let Some(seed) = spec.source_seed {
            sensor_value(spec.task, output.period, seed)
        } else {
            // The value and the commitment, from one layout of the inputs.
            let (value, digest) = task_value_and_digest(spec.task, output.period, vals);
            if witness_flaw
                || !supplies_inputs(spec.inputs, witnesses)
                || digest != output.inputs_digest
            {
                // The envelope signature must actually be the producer's
                // own (otherwise this is relayed noise we cannot judge).
                return envelope
                    .filter(|(_, env_sig)| env_sig.key == output.producer.0)
                    .map(|(sent_at, env_sig)| EvidenceRecord::BadWitness {
                        accused: output.producer,
                        output,
                        witnesses: witnesses.to_vec(),
                        sent_at,
                        env_sig,
                    });
            }
            value
        };
        (value != output.value).then(|| EvidenceRecord::BadComputation {
            accused: output.producer,
            output,
            inputs: witnesses.to_vec(),
        })
    }

    /// Lanes of a task placed on `hosts` that never arrived for
    /// `period`, with their planned hosts.
    pub(crate) fn missing_lanes<'a>(
        &self,
        hosts: &'a [Option<NodeId>],
        period: PeriodIdx,
    ) -> impl Iterator<Item = (ReplicaIdx, NodeId)> + 'a {
        let seen = self.arrived.get(period).copied().unwrap_or_default();
        (0..=ReplicaIdx::MAX)
            .zip(hosts)
            .filter(move |&(r, _)| !seen.contains(r))
            .filter_map(|(r, host)| host.map(|n| (r, n)))
    }

    /// Drop state older than `before` (bounded memory).
    pub(crate) fn gc(&mut self, before: PeriodIdx) {
        self.arrived.gc(before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::dealt_period;
    use btr_crypto::{KeyStore, NodeKey, Signer};
    use btr_model::workload::{Workload, WorkloadBuilder};
    use btr_model::{inputs_digest, task_value, Criticality, Duration};
    use std::collections::BTreeMap;

    /// Source 0 and a sink 1 that reads it; seed 3.
    fn workload() -> Workload {
        let (wcet, d, low) = (Duration(10), Duration::from_millis(10), Criticality::Low);
        let mut b = WorkloadBuilder::new(d, 3);
        let s = b.source("s", NodeId(0), wcet, low, d);
        b.sink("k", NodeId(1), &[s], wcet, low, d);
        b.build().unwrap()
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

    /// What the detector hands the checker for one message.
    fn see(
        chk: &mut ReplicaChecker,
        output: SignedOutput,
        ws: &[SignedOutput],
    ) -> Option<EvidenceRecord> {
        chk.observe(&cfg(), output, ws, &oks(ws), None, &mut Vec::new())
    }

    /// Task 1 over input 0, its two lanes on nodes 1 and 2.
    fn cfg() -> Checked<'static> {
        Checked {
            task: TaskId(1),
            hosts: &[Some(NodeId(1)), Some(NodeId(2))],
            inputs: &[TaskId(0)],
            source_seed: None,
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
        let mut pool = OutputPool::<DETECTOR_PERIODS>::default();
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
            let (mut pool, mut model) = (OutputPool::<DETECTOR_PERIODS>::default(), MapPool::default());
            // The period honest traffic is at; it drifts up as gc is called.
            let mut now: PeriodIdx = 2;
            for (step, &((op, task), (r, p, v))) in ops.iter().enumerate() {
                let period = dealt_period(now, p, r);
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

    fn missing(
        chk: &ReplicaChecker,
        cfg: &Checked,
        period: PeriodIdx,
    ) -> Vec<(ReplicaIdx, NodeId)> {
        chk.missing_lanes(cfg.hosts, period).collect()
    }

    /// The ordered map the lane record used to be, and still must behave
    /// as: lanes seen per period, as `observe` records them.
    #[derive(Default)]
    struct MapLanes(BTreeMap<PeriodIdx, Vec<ReplicaIdx>>);

    impl MapLanes {
        fn observe(&mut self, cfg: &Checked, out: &SignedOutput) {
            let planned = cfg.hosts.get(out.replica as usize);
            if out.task == cfg.task && planned.is_some_and(|h| h.is_none_or(|n| n == out.producer))
            {
                self.0.entry(out.period).or_default().push(out.replica);
            }
        }
        fn missing_lanes(&self, cfg: &Checked, period: PeriodIdx) -> Vec<(ReplicaIdx, NodeId)> {
            let seen = self.0.get(&period);
            (0..cfg.hosts.len() as ReplicaIdx)
                .filter(|r| seen.is_none_or(|v| !v.contains(r)))
                .filter_map(|r| cfg.hosts[r as usize].map(|n| (r, n)))
                .collect()
        }
        fn gc(&mut self, before: PeriodIdx) {
            self.0.retain(|&p, _| p >= before);
        }
    }

    proptest::proptest! {
        /// The lane bitsets in period rows answer as the map of lane
        /// lists did: over outputs on planned and unplanned hosts, lane
        /// indices in every word of the set and past the plan's, other
        /// tasks, periods anywhere (a Byzantine lane host signs what it
        /// likes) and collections that jump ahead or step back,
        /// `missing_lanes` names the same lanes for every period either
        /// side has heard of.
        #[test]
        fn prop_lane_record_is_the_map_it_replaced(
            ops in proptest::collection::vec(((0u8..10, 0usize..12), (0u32..4, 0u8..24, 0u8..4)), 1..160)
        ) {
            // 200 lanes, the last three with no planned host.
            let hosts: Vec<Option<NodeId>> =
                (0..200).map(|r| (r < 197).then(|| NodeId(1 + r % 3))).collect();
            let cfg = Checked { hosts: &hosts, ..cfg() };
            let mut chk = ReplicaChecker::default();
            let mut model = MapLanes::default();
            let mut now: PeriodIdx = 2;
            let mut asked: Vec<PeriodIdx> = Vec::new();
            for (step, &((op, lane), (host, p, r))) in ops.iter().enumerate() {
                let replica = [0, 1, 2, 63, 64, 65, 127, 128, 191, 198, 200, 255][lane];
                let period = dealt_period(now, p, r);
                asked.push(period);
                match op {
                    0..=5 => {
                        // Mostly the planned host; now and then not.
                        let producer = if host < 3 { 1 + u32::from(replica) % 3 } else { 7 };
                        let out = SignedOutput {
                            task: TaskId(1 + u32::from(op == 5)),
                            replica,
                            period,
                            value: 1,
                            inputs_digest: 2,
                            producer: NodeId(producer),
                            sig: Signature { key: producer, tag: btr_crypto::Digest([0; 32]) },
                        };
                        model.observe(&cfg, &out);
                        chk.observe(&cfg, out, &[], &[], None, &mut Vec::new());
                    }
                    6 | 7 => {
                        now += u64::from(op - 5) * u64::from(r + 1);
                        chk.gc(now.saturating_sub(4));
                        model.gc(now.saturating_sub(4));
                    }
                    _ => {
                        chk.gc(period);
                        model.gc(period);
                        now = now.max(period.min(1 << 40));
                    }
                }
                for &q in asked.iter().rev().take(8).chain(&[now, now.saturating_sub(1)]) {
                    proptest::prop_assert!(
                        missing(&chk, &cfg, q) == model.missing_lanes(&cfg, q), "step {step}, period {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn honest_traffic_never_touches_the_overflow() {
        // Six periods in flight, collected as `Detector` collects (at
        // the boundary of period p it closes p - 1 and collects what is
        // older than p - 5): the map stays empty, and once the window has
        // gone round, every period reuses the row its predecessor left:
        // nothing grows.
        let mut pool = OutputPool::<DETECTOR_PERIODS>::default();
        let mut buffers = Vec::new();
        for p in 0..40u64 {
            pool.gc(p.saturating_sub(5));
            for task in 0..3 {
                let mut out = input(p);
                out.task = TaskId(task);
                assert!(pool.insert_checked(&out).is_none());
                assert!(pool.is_resident(&out));
            }
            assert!(pool.rows.overflow_is_empty());
            assert_eq!(pool.len(), 3 * (p.min(5) as usize + 1));
            let now: Vec<*const SignedOutput> = pool.rows.all().map(|r| r.as_ptr()).collect();
            if p == 8 {
                buffers = now;
            } else if p > 8 {
                assert_eq!(now, buffers, "period {p} allocated a row");
            }
        }
        assert!(pool.rows.all().all(|r| r.capacity() == ROW_GROWTH));
    }

    #[test]
    fn wrong_lane_host_ignored() {
        let mut chk = ReplicaChecker::default();
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
        assert!(see(&mut chk, o, &ws).is_none());
    }

    #[test]
    fn commitment_mismatch_not_judged() {
        let mut chk = ReplicaChecker::default();
        let w = input(1);
        // Producer commits to garbage: checker refuses to judge (no
        // unsound proof), leaving it to omission/timing handling.
        let o = SignedOutput::sign(&signer(1), TaskId(1), 0, 1, 0xbad, 0x1234, NodeId(1));
        let ws = [w];
        assert!(see(&mut chk, o, &ws).is_none());
    }

    #[test]
    fn missing_lanes_reported_until_arrival() {
        let mut chk = ReplicaChecker::default();
        assert_eq!(missing(&chk, &cfg(), 7), [(0, NodeId(1)), (1, NodeId(2))]);
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
        see(&mut chk, o, &ws);
        assert_eq!(missing(&chk, &cfg(), 7), [(0, NodeId(1))]);
    }

    #[test]
    fn source_checker_uses_sensor_value() {
        let mut chk = ReplicaChecker::default();
        let source = Checked {
            task: TaskId(0),
            hosts: &[Some(NodeId(0))],
            inputs: &[],
            source_seed: Some(3),
        };
        let mut see = |o| chk.observe(&source, o, &[], &[], None, &mut Vec::new());
        let honest = input(4);
        assert!(see(honest).is_none());
        let lying = SignedOutput::sign(
            &signer(0),
            TaskId(0),
            0,
            5,
            sensor_value(TaskId(0), 5, 3) ^ 0xff,
            inputs_digest(&[]),
            NodeId(0),
        );
        let ev = see(lying).expect("a proof");
        assert_eq!(ev.verify(&ks(), &workload()), Ok(()));
    }

    #[test]
    fn stale_witness_period_rejected() {
        let mut chk = ReplicaChecker::default();
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
        assert!(see(&mut chk, o, &ws).is_none());
    }

    #[test]
    fn witnesses_must_be_the_declared_inputs() {
        // Lane 0 of a task declared over inputs 0 and 2 commits, honestly
        // for what it sends, to other input sets of the right size: task
        // 0 twice, or tasks 0 and 3. Value and commitment match those
        // witnesses, so only the input-set check can see it; the
        // producer's envelope then convicts it (BadWitness).
        let mut chk = ReplicaChecker::default();
        let spec = Checked {
            inputs: &[TaskId(2), TaskId(0)],
            ..cfg()
        };
        let p = 3;
        let other = |task: u32| {
            let mut w = input(p);
            w.task = TaskId(task);
            SignedOutput::sign(
                &signer(0),
                w.task,
                0,
                p,
                w.value,
                w.inputs_digest,
                NodeId(0),
            )
        };
        for ws in [
            [input(p), input(p)],
            [input(p), other(3)],
            [other(2), input(p)],
        ] {
            let vals: Vec<(TaskId, Value)> = ws.iter().map(|w| (w.task, w.value)).collect();
            let o = SignedOutput::sign(
                &signer(1),
                TaskId(1),
                0,
                p,
                task_value(TaskId(1), p, &vals),
                inputs_digest(&vals),
                NodeId(1),
            );
            let envelope = Some((
                Time(7),
                Signature {
                    key: 1,
                    tag: btr_crypto::Digest([0; 32]),
                },
            ));
            let found = chk.observe(&spec, o, &ws, &oks(&ws), envelope, &mut Vec::new());
            let declared = ws[0].task == TaskId(2) || ws[1].task == TaskId(2);
            assert_eq!(
                matches!(found, Some(EvidenceRecord::BadWitness { .. })),
                !declared,
                "witness tasks {:?}",
                vals
            );
        }
    }
}
