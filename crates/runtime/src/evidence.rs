//! Evidence validation and distribution (Section 4.3 of the paper).
//!
//! "Once a node has detected a fault, the resulting evidence must quickly
//! be distributed to any other nodes that need to be aware of it. The
//! distribution process must a) compete for resources with the foreground
//! tasks, b) be completed within bounded time, and c) prevent the
//! adversary from causing delays via DoS, e.g., by flooding the system
//! with bogus evidence."
//!
//! The design follows the paper's sketch directly:
//!
//! * Bandwidth and CPU for evidence handling are *reserved* (the link
//!   control reserve and the per-node `Verify` schedule slot), so
//!   distribution competes with, but cannot be starved by, the data
//!   plane.
//! * Every node **validates before it endorses**: only records that
//!   verify locally are forwarded ("having each node validate incoming
//!   evidence before distributing it further").
//! * Invalid records are *charged to their sender*: cheap signature
//!   checks run first, a per-sender admission budget bounds verification
//!   CPU, and senders exceeding a bogus-record threshold are blacklisted
//!   ("invalid evidence can be counted as evidence against the signer").

use crate::window::{PeriodRows, NODE_PERIODS};
use btr_model::{NodeId, PeriodIdx, ReplicaIdx, TaskId};

/// Flooding targets, and per received output whether it still needs to
/// be echoed to its task's checker. Endorse-once needs no record of its
/// own: a node floods what its evidence pool has just verified, and the
/// pool verifies an id once.
///
/// The echo channel exists for equivocation detection: conflicting signed
/// outputs are only a *proof* once two copies meet at one node, and an
/// equivocator whose tasks each have a single consumer can keep the
/// copies apart forever. Consumers therefore echo the first copy they
/// accept to the task's checker, making the checker the designated
/// meeting point (one extra message per consumed flow per period).
#[derive(Debug, Default)]
pub(crate) struct Disseminator {
    /// The (task, replica) pairs echoed per period, each row sorted.
    echoed: PeriodRows<Vec<(TaskId, ReplicaIdx)>, NODE_PERIODS>,
}

impl Disseminator {
    /// Flooding targets, in id order: every peer except the node itself
    /// and the peer the record arrived from (it already has it). Suspected
    /// and convicted peers are *not* excluded: fault sets converge only
    /// if all correct nodes eventually hold the same evidence, and local
    /// suspicion must never partition the control plane.
    pub(crate) fn targets(
        node: NodeId,
        all_nodes: usize,
        from: Option<NodeId>,
    ) -> impl Iterator<Item = NodeId> {
        (0..all_nodes as u32)
            .map(NodeId)
            .filter(move |&n| n != node && Some(n) != from)
    }

    /// True exactly once per (task, replica, period): the caller should
    /// echo the accepted output to the task's checker.
    pub(crate) fn should_echo(
        &mut self,
        task: TaskId,
        replica: ReplicaIdx,
        period: PeriodIdx,
    ) -> bool {
        let row = self.echoed.get_mut(period);
        match row.binary_search(&(task, replica)) {
            Ok(_) => false,
            Err(i) => {
                row.insert(i, (task, replica));
                true
            }
        }
    }

    /// Drop echo bookkeeping older than `before` periods (bounded memory;
    /// the checker's own pool dedups any re-echo after GC).
    pub(crate) fn gc_echoes(&mut self, before: PeriodIdx) {
        self.echoed.gc(before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::dealt_period;
    use std::collections::BTreeSet;

    #[test]
    fn echo_exactly_once_per_slot_until_gc() {
        let mut d = Disseminator::default();
        use btr_model::TaskId;
        assert!(d.should_echo(TaskId(1), 0, 5));
        assert!(!d.should_echo(TaskId(1), 0, 5));
        assert!(d.should_echo(TaskId(1), 1, 5));
        assert!(d.should_echo(TaskId(2), 0, 5));
        d.gc_echoes(6);
        // After GC the slot may echo again (bounded memory beats perfect
        // dedup; the checker's pool dedups the duplicate).
        assert!(d.should_echo(TaskId(1), 0, 5));
    }

    proptest::proptest! {
        /// The echo rows answer as the set of echoed (task, replica,
        /// period) triples did: over echoes for periods around the
        /// present, ahead of the window and far outside it (a Byzantine
        /// producer signs any period it likes), and collections that jump
        /// ahead or step back, `should_echo` says yes exactly when the
        /// set had no such triple.
        #[test]
        fn prop_echo_record_is_the_set_it_replaced(
            ops in proptest::collection::vec(((0u8..10, 0u32..4), (0u8..3, 0u8..24, 0u8..4)), 1..200)
        ) {
            let mut d = Disseminator::default();
            let mut model: BTreeSet<(TaskId, ReplicaIdx, PeriodIdx)> = BTreeSet::new();
            let mut now: PeriodIdx = 2;
            for (step, &((op, task), (replica, p, r))) in ops.iter().enumerate() {
                let period = dealt_period(now, p, r);
                match op {
                    0..=6 => proptest::prop_assert!(
                        d.should_echo(TaskId(task), replica, period)
                            == model.insert((TaskId(task), replica, period)),
                        "step {step}"
                    ),
                    7 | 8 => {
                        now += u64::from(op - 6) * u64::from(r + 1);
                        d.gc_echoes(now.saturating_sub(3));
                        model.retain(|&(_, _, q)| q >= now.saturating_sub(3));
                    }
                    _ => {
                        d.gc_echoes(period);
                        model.retain(|&(_, _, q)| q >= period);
                        now = now.max(period.min(1 << 40));
                    }
                }
            }
            // What is left is remembered, triple for triple.
            for &(task, replica, period) in &model {
                proptest::prop_assert!(!d.should_echo(task, replica, period));
            }
        }
    }

    #[test]
    fn targets_exclude_self_and_source() {
        let t: Vec<NodeId> = Disseminator::targets(NodeId(0), 5, Some(NodeId(1))).collect();
        assert_eq!(t, vec![NodeId(2), NodeId(3), NodeId(4)]);
        // Locally generated evidence (no source) goes to everyone else.
        let t: Vec<NodeId> = Disseminator::targets(NodeId(0), 4, None).collect();
        assert_eq!(t, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }
}
