//! Timing-fault detection and crash suspicion.
//!
//! Section 4.2: "BTR additionally requires the detection of timing-
//! related faults (such as doing the right thing at the wrong time)."
//! A validly signed output that arrives outside its window is converted
//! into a signed *timing declaration* — not a proof (the receiver's
//! word is all there is), but attributable and countable.

use btr_crypto::Signer;
use btr_model::{EvidenceRecord, NodeId, PeriodIdx, SignedOutput, Time};
use std::collections::{BTreeMap, BTreeSet};

/// Emits timing declarations for late arrivals (one per output).
#[derive(Debug, Default)]
pub(crate) struct TimingWatch {
    declared: BTreeSet<(btr_model::TaskId, u8, PeriodIdx)>,
}

impl TimingWatch {
    /// Observe an arrival; declare if late. At most one declaration per
    /// (task, replica, period).
    pub(crate) fn observe(
        &mut self,
        signer: &Signer,
        declarer: NodeId,
        output: &SignedOutput,
        expected_by: Time,
        arrived_at: Time,
    ) -> Option<EvidenceRecord> {
        if arrived_at <= expected_by {
            return None;
        }
        let key = (output.task, output.replica, output.period);
        if !self.declared.insert(key) {
            return None;
        }
        Some(EvidenceRecord::declare_timing(
            signer,
            declarer,
            output.clone(),
            expected_by,
            arrived_at,
        ))
    }

    /// Drop bookkeeping older than `before`.
    pub(crate) fn gc(&mut self, before: PeriodIdx) {
        self.declared.retain(|&(_, _, p)| p >= before);
    }
}

/// Crash suspicion from missed heartbeats.
///
/// The synchrony assumptions (Section 2.1) make heartbeats meaningful:
/// a correct node's beacon arrives every period, so `threshold` silent
/// periods imply a crash (or an omission fault — either way, evidence
/// worth declaring).
#[derive(Debug)]
pub(crate) struct HeartbeatMonitor {
    last_seen: BTreeMap<NodeId, PeriodIdx>,
    threshold: u64,
}

impl HeartbeatMonitor {
    /// Create a monitor that suspects after `threshold` missed periods.
    pub(crate) fn new(threshold: u64) -> Self {
        HeartbeatMonitor {
            last_seen: BTreeMap::new(),
            threshold: threshold.max(1),
        }
    }

    /// Record a heartbeat.
    pub(crate) fn observe(&mut self, from: NodeId, period: PeriodIdx) {
        let e = self.last_seen.entry(from).or_insert(period);
        if *e < period {
            *e = period;
        }
    }

    /// Nodes past the suspicion threshold at `now`. Reported on *every*
    /// check while the silence persists: the resulting declarations land
    /// in distinct periods, which the omission tracker requires before it
    /// attributes (single bursts never convict).
    pub(crate) fn check(&mut self, now: PeriodIdx) -> Vec<NodeId> {
        self.last_seen
            .iter()
            .filter(|(_, &last)| now.saturating_sub(last) >= self.threshold)
            .map(|(&node, _)| node)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_crypto::{NodeKey, Signer};
    use btr_model::{inputs_digest, SignedOutput, TaskId};

    fn signer(i: u32) -> Signer {
        Signer::new(NodeKey::derive(31, i))
    }

    fn out(p: PeriodIdx) -> SignedOutput {
        SignedOutput::sign(
            &signer(1),
            TaskId(2),
            0,
            p,
            42,
            inputs_digest(&[]),
            NodeId(1),
        )
    }

    #[test]
    fn on_time_is_silent() {
        let mut w = TimingWatch::default();
        assert!(w
            .observe(&signer(3), NodeId(3), &out(1), Time(1000), Time(900))
            .is_none());
    }

    #[test]
    fn late_is_declared_once() {
        let mut w = TimingWatch::default();
        let d = w.observe(&signer(3), NodeId(3), &out(1), Time(1000), Time(1500));
        assert!(d.is_some());
        // Duplicate arrival: no second declaration.
        assert!(w
            .observe(&signer(3), NodeId(3), &out(1), Time(1000), Time(1600))
            .is_none());
        w.gc(2);
        // After GC the same period could be declared again (bounded memory
        // beats perfect dedup; the evidence layer dedups by record id too).
        assert!(w
            .observe(&signer(3), NodeId(3), &out(1), Time(1000), Time(1600))
            .is_some());
    }

    #[test]
    fn heartbeat_threshold_and_recovery() {
        let mut m = HeartbeatMonitor::new(2);
        m.observe(NodeId(1), 0);
        m.observe(NodeId(2), 0);
        assert!(m.check(1).is_empty());
        assert_eq!(m.check(2), vec![NodeId(1), NodeId(2)]);
        // Still silent: re-reported so declarations span periods.
        assert_eq!(m.check(3), vec![NodeId(1), NodeId(2)]);
        // A fresh beat clears suspicion; silence re-reports later.
        m.observe(NodeId(1), 4);
        assert_eq!(m.check(5), vec![NodeId(2)]);
        assert_eq!(m.check(6), vec![NodeId(1), NodeId(2)]);
    }
}
