//! The evidence pool: admission, validation, blame, and blacklisting.

use btr_crypto::KeyStore;
use btr_model::evidence::{EvidenceFlaw, WorkloadView};
use btr_model::{EvidenceClass, EvidenceId, EvidenceRecord, NodeId, PeriodIdx};
use std::collections::{BTreeMap, BTreeSet};

/// Max records admitted to full verification per sender per period
/// (models the bounded `Verify` CPU slot).
const PER_SENDER_BUDGET: u32 = 64;
/// Bogus records before a sender is blacklisted.
const BLACKLIST_THRESHOLD: u32 = 8;

/// Outcome of offering a record to the pool.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AdmitOutcome {
    /// Newly verified: act on it (update fault set) and forward it.
    Verified {
        /// The record's id, as computed for the duplicate check (the
        /// caller's flooding dedup keys on it; hashing the record again
        /// would cost another encoding and SHA-256).
        id: EvidenceId,
        /// Proofs convict this node directly.
        convicts: Option<NodeId>,
        /// The record's class.
        class: EvidenceClass,
    },
    /// Already known; do nothing.
    Duplicate,
    /// Invalid; counted against the sender.
    Rejected(EvidenceFlaw),
    /// Sender exceeded its admission budget this period.
    RateLimited,
    /// Sender is blacklisted for repeated bogus evidence.
    Blacklisted,
}

/// Per-node store of validated evidence.
#[derive(Default)]
pub(crate) struct EvidencePool {
    verified: BTreeMap<EvidenceId, EvidenceRecord>,
    rejected_ids: BTreeSet<EvidenceId>,
    bogus_by: BTreeMap<NodeId, u32>,
    blacklist: BTreeSet<NodeId>,
    used_budget: BTreeMap<NodeId, (PeriodIdx, u32)>,
    convicted: BTreeSet<NodeId>,
    /// Reusable encoding scratch for record ids.
    id_scratch: Vec<u8>,
}

impl EvidencePool {
    /// Create an empty pool.
    pub(crate) fn new() -> Self {
        EvidencePool::default()
    }

    /// Offer a record received from `sender` during `period`.
    ///
    /// Validation order is cheap-first, per the paper's DoS concern:
    /// blacklist check, duplicate check, budget check, then signature
    /// and (for proofs) re-execution.
    pub(crate) fn admit(
        &mut self,
        ks: &KeyStore,
        view: &dyn WorkloadView,
        sender: NodeId,
        record: &EvidenceRecord,
        period: PeriodIdx,
    ) -> AdmitOutcome {
        if self.blacklist.contains(&sender) {
            return AdmitOutcome::Blacklisted;
        }
        let id = record.id_with(&mut self.id_scratch);
        if self.verified.contains_key(&id) || self.rejected_ids.contains(&id) {
            return AdmitOutcome::Duplicate;
        }
        // Budget: full verification is bounded per sender per period.
        let entry = self.used_budget.entry(sender).or_insert((period, 0));
        if entry.0 != period {
            *entry = (period, 0);
        }
        if entry.1 >= PER_SENDER_BUDGET {
            return AdmitOutcome::RateLimited;
        }
        entry.1 += 1;

        match record.verify(ks, view) {
            Ok(()) => {
                if let Some(n) = record.convicts() {
                    self.convicted.insert(n);
                }
                self.verified.insert(id, record.clone());
                AdmitOutcome::Verified {
                    id,
                    convicts: record.convicts(),
                    class: record.class(),
                }
            }
            Err(flaw) => {
                self.rejected_ids.insert(id);
                let count = self.bogus_by.entry(sender).or_insert(0);
                *count += 1;
                if *count >= BLACKLIST_THRESHOLD {
                    self.blacklist.insert(sender);
                }
                AdmitOutcome::Rejected(flaw)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_crypto::{NodeKey, Signer};
    use btr_model::{inputs_digest, sensor_value, SignedOutput, TaskId};

    struct View;
    impl WorkloadView for View {
        fn inputs_of_task(&self, task: TaskId) -> Option<Vec<TaskId>> {
            (task.0 < 3).then(Vec::new)
        }
        fn task_is_source(&self, _task: TaskId) -> bool {
            true
        }
        fn workload_seed(&self) -> u64 {
            5
        }
    }

    fn signer(i: u32) -> Signer {
        Signer::new(NodeKey::derive(41, i))
    }
    fn ks() -> KeyStore {
        KeyStore::derive(41, 8)
    }

    /// A valid bad-computation proof: source 2 lies about its reading.
    fn valid_proof(p: PeriodIdx) -> EvidenceRecord {
        let honest = sensor_value(TaskId(2), p, 5);
        let out = SignedOutput::sign(
            &signer(2),
            TaskId(2),
            0,
            p,
            honest ^ 1,
            inputs_digest(&[]),
            NodeId(2),
        );
        EvidenceRecord::BadComputation {
            accused: NodeId(2),
            output: out,
            inputs: vec![],
        }
    }

    /// Bogus: accusation against an honest reading.
    fn bogus(p: PeriodIdx) -> EvidenceRecord {
        let honest = sensor_value(TaskId(2), p, 5);
        let out = SignedOutput::sign(
            &signer(2),
            TaskId(2),
            0,
            p,
            honest,
            inputs_digest(&[]),
            NodeId(2),
        );
        EvidenceRecord::BadComputation {
            accused: NodeId(2),
            output: out,
            inputs: vec![],
        }
    }

    #[test]
    fn verify_then_duplicate() {
        let mut pool = EvidencePool::new();
        let r = valid_proof(1);
        let out = pool.admit(&ks(), &View, NodeId(1), &r, 0);
        assert!(matches!(
            out,
            AdmitOutcome::Verified {
                convicts: Some(n),
                ..
            } if n == NodeId(2)
        ));
        assert_eq!(
            pool.admit(&ks(), &View, NodeId(3), &r, 0),
            AdmitOutcome::Duplicate
        );
        assert!(pool.convicted.contains(&NodeId(2)));
        assert_eq!(pool.verified.len(), 1);
    }

    #[test]
    fn bogus_leads_to_blacklist() {
        let mut pool = EvidencePool::new();
        for p in 0..BLACKLIST_THRESHOLD as PeriodIdx {
            assert!(!pool.blacklist.contains(&NodeId(6)));
            let out = pool.admit(&ks(), &View, NodeId(6), &bogus(p), 0);
            assert!(matches!(out, AdmitOutcome::Rejected(_)), "{out:?}");
        }
        assert!(pool.blacklist.contains(&NodeId(6)));
        assert_eq!(pool.bogus_by[&NodeId(6)], BLACKLIST_THRESHOLD);
        // Further records from the blacklisted sender are ignored — even
        // valid ones.
        assert_eq!(
            pool.admit(&ks(), &View, NodeId(6), &valid_proof(9), 0),
            AdmitOutcome::Blacklisted
        );
        // But the same record from an honest sender still lands.
        assert!(matches!(
            pool.admit(&ks(), &View, NodeId(1), &valid_proof(9), 0),
            AdmitOutcome::Verified { .. }
        ));
    }

    #[test]
    fn rate_limit_per_period_resets() {
        let mut pool = EvidencePool::new();
        for p in 0..PER_SENDER_BUDGET as PeriodIdx {
            assert!(matches!(
                pool.admit(&ks(), &View, NodeId(1), &valid_proof(p), 7),
                AdmitOutcome::Verified { .. }
            ));
        }
        assert_eq!(
            pool.admit(
                &ks(),
                &View,
                NodeId(1),
                &valid_proof(PER_SENDER_BUDGET as PeriodIdx),
                7
            ),
            AdmitOutcome::RateLimited
        );
        // Next period: budget refreshed.
        assert!(matches!(
            pool.admit(
                &ks(),
                &View,
                NodeId(1),
                &valid_proof(PER_SENDER_BUDGET as PeriodIdx),
                8
            ),
            AdmitOutcome::Verified { .. }
        ));
    }

    #[test]
    fn rejected_records_become_cheap_duplicates() {
        let mut pool = EvidencePool::new();
        let b = bogus(1);
        assert!(matches!(
            pool.admit(&ks(), &View, NodeId(1), &b, 0),
            AdmitOutcome::Rejected(_)
        ));
        // Same bogus record again (any sender): constant-time duplicate.
        assert_eq!(
            pool.admit(&ks(), &View, NodeId(2), &b, 0),
            AdmitOutcome::Duplicate
        );
        assert!(pool.verified.is_empty());
    }

    #[test]
    fn declarations_verify_without_convicting() {
        let mut pool = EvidencePool::new();
        let d = EvidenceRecord::declare_crash(&signer(4), NodeId(4), NodeId(5), 3);
        let out = pool.admit(&ks(), &View, NodeId(4), &d, 0);
        assert_eq!(
            out,
            AdmitOutcome::Verified {
                id: d.id(),
                convicts: None,
                class: EvidenceClass::Declaration
            }
        );
        assert!(pool.convicted.is_empty());
    }
}
