//! The evidence pool: admission, validation, blame, and blacklisting.

use btr_crypto::KeyStore;
use btr_model::evidence::EvidenceFlaw;
use btr_model::workload::Workload;
use btr_model::{EvidenceId, EvidenceRecord, NodeId, PeriodIdx};
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
    Verified,
    /// Already known; do nothing.
    Duplicate,
    /// Invalid; counted against the sender.
    Rejected(EvidenceFlaw),
    /// Sender exceeded its admission budget this period.
    RateLimited,
    /// Sender is blacklisted for repeated bogus evidence.
    Blacklisted,
}

/// Per-node record of validated evidence: the ids it admitted (the
/// records themselves travel and are kept by `Arc` where they are used).
#[derive(Default)]
pub(crate) struct EvidencePool {
    verified: BTreeSet<EvidenceId>,
    rejected_ids: BTreeSet<EvidenceId>,
    bogus_by: BTreeMap<NodeId, u32>,
    blacklist: BTreeSet<NodeId>,
    used_budget: BTreeMap<NodeId, (PeriodIdx, u32)>,
    /// Reusable encoding scratch: record ids, and the signed bytes a
    /// record's verification checks.
    scratch: Vec<u8>,
}

impl EvidencePool {
    /// `record`'s id, computed in the pool's scratch.
    pub(crate) fn id(&mut self, record: &EvidenceRecord) -> EvidenceId {
        record.id_with(&mut self.scratch)
    }

    /// Offer a record, whose id is `id`, received from `sender` during
    /// `period`.
    ///
    /// Validation order is cheap-first, per the paper's DoS concern:
    /// blacklist check, duplicate check, budget check, then signature
    /// and (for proofs) re-execution.
    pub(crate) fn admit(
        &mut self,
        ks: &KeyStore,
        workload: &Workload,
        sender: NodeId,
        id: EvidenceId,
        record: &EvidenceRecord,
        period: PeriodIdx,
    ) -> AdmitOutcome {
        debug_assert_eq!(id, record.id());
        if self.blacklist.contains(&sender) {
            return AdmitOutcome::Blacklisted;
        }
        if self.verified.contains(&id) || self.rejected_ids.contains(&id) {
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

        match record.verify_with(ks, workload, &mut self.scratch) {
            Ok(()) => {
                self.verified.insert(id);
                AdmitOutcome::Verified
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
    use btr_model::workload::WorkloadBuilder;
    use btr_model::{inputs_digest, sensor_value, Criticality, Duration, SignedOutput, TaskId};

    /// Sources 0, 1 and 2 and a sink 3 that reads them; seed 5.
    fn workload() -> Workload {
        let (wcet, d, low) = (Duration(10), Duration::from_millis(10), Criticality::Low);
        let mut b = WorkloadBuilder::new(d, 5);
        let sources = [0, 1, 2].map(|n| b.source("s", NodeId(n), wcet, low, d));
        b.sink("k", NodeId(3), &sources, wcet, low, d);
        b.build().unwrap()
    }

    fn signer(i: u32) -> Signer {
        Signer::new(NodeKey::derive(41, i))
    }
    fn ks() -> KeyStore {
        KeyStore::derive(41, 8)
    }

    /// Offer `record` from `sender` during `period`, under its own id.
    fn offer(
        pool: &mut EvidencePool,
        sender: NodeId,
        record: &EvidenceRecord,
        period: PeriodIdx,
    ) -> AdmitOutcome {
        let id = pool.id(record);
        pool.admit(&ks(), &workload(), sender, id, record, period)
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
        let mut pool = EvidencePool::default();
        let r = valid_proof(1);
        let out = offer(&mut pool, NodeId(1), &r, 0);
        assert_eq!(out, AdmitOutcome::Verified);
        assert_eq!(offer(&mut pool, NodeId(3), &r, 0), AdmitOutcome::Duplicate);
        assert_eq!(pool.verified.len(), 1);
    }

    #[test]
    fn bogus_leads_to_blacklist() {
        let mut pool = EvidencePool::default();
        for p in 0..BLACKLIST_THRESHOLD as PeriodIdx {
            assert!(!pool.blacklist.contains(&NodeId(6)));
            let out = offer(&mut pool, NodeId(6), &bogus(p), 0);
            assert!(matches!(out, AdmitOutcome::Rejected(_)), "{out:?}");
        }
        assert!(pool.blacklist.contains(&NodeId(6)));
        assert_eq!(pool.bogus_by[&NodeId(6)], BLACKLIST_THRESHOLD);
        // Further records from the blacklisted sender are ignored — even
        // valid ones.
        assert_eq!(
            offer(&mut pool, NodeId(6), &valid_proof(9), 0),
            AdmitOutcome::Blacklisted
        );
        // But the same record from an honest sender still lands.
        assert!(matches!(
            offer(&mut pool, NodeId(1), &valid_proof(9), 0),
            AdmitOutcome::Verified
        ));
    }

    #[test]
    fn rate_limit_per_period_resets() {
        let mut pool = EvidencePool::default();
        for p in 0..PER_SENDER_BUDGET as PeriodIdx {
            assert!(matches!(
                offer(&mut pool, NodeId(1), &valid_proof(p), 7),
                AdmitOutcome::Verified
            ));
        }
        assert_eq!(
            offer(
                &mut pool,
                NodeId(1),
                &valid_proof(PER_SENDER_BUDGET as PeriodIdx),
                7
            ),
            AdmitOutcome::RateLimited
        );
        // Next period: budget refreshed.
        assert!(matches!(
            offer(
                &mut pool,
                NodeId(1),
                &valid_proof(PER_SENDER_BUDGET as PeriodIdx),
                8
            ),
            AdmitOutcome::Verified
        ));
    }

    #[test]
    fn rejected_records_become_cheap_duplicates() {
        let mut pool = EvidencePool::default();
        let b = bogus(1);
        assert!(matches!(
            offer(&mut pool, NodeId(1), &b, 0),
            AdmitOutcome::Rejected(_)
        ));
        // Same bogus record again (any sender): constant-time duplicate.
        assert_eq!(offer(&mut pool, NodeId(2), &b, 0), AdmitOutcome::Duplicate);
        assert!(pool.verified.is_empty());
    }

    #[test]
    fn declarations_verify_without_convicting() {
        let mut pool = EvidencePool::default();
        let d = EvidenceRecord::declare_crash(&signer(4), NodeId(4), NodeId(5), 3);
        let out = offer(&mut pool, NodeId(4), &d, 0);
        assert_eq!((out, d.convicts()), (AdmitOutcome::Verified, None));
    }
}
