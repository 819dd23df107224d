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

use btr_model::{EvidenceId, NodeId, PeriodIdx, ReplicaIdx, TaskId};
use std::collections::BTreeSet;

/// Flooding dedup: decides, per evidence record, whether this node still
/// needs to forward it (endorse-once semantics), and per received output,
/// whether it still needs to be echoed to its task's checker.
///
/// The echo channel exists for equivocation detection: conflicting signed
/// outputs are only a *proof* once two copies meet at one node, and an
/// equivocator whose tasks each have a single consumer can keep the
/// copies apart forever. Consumers therefore echo the first copy they
/// accept to the task's checker, making the checker the designated
/// meeting point (one extra message per consumed flow per period).
#[derive(Debug, Default)]
pub(crate) struct Disseminator {
    forwarded: BTreeSet<EvidenceId>,
    echoed: BTreeSet<(TaskId, ReplicaIdx, PeriodIdx)>,
}

impl Disseminator {
    /// Create an empty disseminator.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// True exactly once per record id: the caller should forward the
    /// record to its flooding targets and will get `false` afterwards.
    pub(crate) fn should_forward(&mut self, id: EvidenceId) -> bool {
        self.forwarded.insert(id)
    }

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
        self.echoed.insert((task, replica, period))
    }

    /// Drop echo bookkeeping older than `before` periods (bounded memory;
    /// the checker's own pool dedups any re-echo after GC).
    pub(crate) fn gc_echoes(&mut self, before: PeriodIdx) {
        self.echoed.retain(|&(_, _, p)| p >= before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_exactly_once() {
        let mut d = Disseminator::new();
        let id = EvidenceId(7);
        assert!(d.should_forward(id));
        assert!(!d.should_forward(id));
        assert!(d.should_forward(EvidenceId(8)));
        assert_eq!(d.forwarded.len(), 2);
    }

    #[test]
    fn echo_exactly_once_per_slot_until_gc() {
        let mut d = Disseminator::new();
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

    #[test]
    fn targets_exclude_self_and_source() {
        let t: Vec<NodeId> = Disseminator::targets(NodeId(0), 5, Some(NodeId(1))).collect();
        assert_eq!(t, vec![NodeId(2), NodeId(3), NodeId(4)]);
        // Locally generated evidence (no source) goes to everyone else.
        let t: Vec<NodeId> = Disseminator::targets(NodeId(0), 4, None).collect();
        assert_eq!(t, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }
}
