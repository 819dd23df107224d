//! The fuzzer's bounded schedule corpus.
//!
//! Entries are keyed by the *shrinker-canonical* form of the schedule —
//! faults sorted by `(activation, node)` and rendered in the replay
//! token's `fl=` grammar, prefixed by the cell name — so two mutation
//! paths reaching the same adversarial script collapse to one entry, and
//! a schedule that round-trips through a replay token or the shrinker's
//! re-sort lands on the key it started from. Insertion canonicalizes
//! first, which makes insert-after-canonicalize a fixed point (pinned by
//! a proptest in `tests/determinism.rs`).
//!
//! The corpus is bounded: when full, a candidate must out-score the
//! worst resident to enter, and the worst resident (lowest
//! `(score, key)`) is evicted. All ordering is over `BTreeMap` keys and
//! integer scores — no hashing, no iteration-order dependence — so the
//! corpus evolves identically at any thread count.

use crate::schedule::{FaultSchedule, FaultVariant};
use btr_core::FaultScenario;
use btr_crypto::digest64;
use std::collections::BTreeMap;

/// One resident schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Cell index the schedule runs on.
    pub cell_idx: u16,
    /// The canonical schedule.
    pub schedule: FaultSchedule,
    /// Interest score at admission (base + coverage bonus).
    pub score: u64,
    /// Signature elements this entry was first to produce.
    pub(crate) new_signatures: usize,
}

/// The canonical corpus key of a schedule on a cell: faults re-sorted by
/// `(at, node)` and rendered `variant@at@n<node>` joined with `+`, as the
/// replay token spells them.
pub fn canonical_key(cell_name: &str, schedule: &FaultSchedule) -> String {
    let mut faults = schedule.scenario.faults.clone();
    faults.sort_by_key(|f| (f.at, f.node.0));
    let fl: Vec<String> = faults
        .iter()
        .map(|f| {
            format!(
                "{}@{}@n{}",
                FaultVariant::of(f).label(),
                f.at.as_micros(),
                f.node.0
            )
        })
        .collect();
    format!("{cell_name}:{}", fl.join("+"))
}

/// Canonicalize a schedule to the form its key describes.
fn canonicalize(schedule: &FaultSchedule) -> FaultSchedule {
    let mut faults = schedule.scenario.faults.clone();
    faults.sort_by_key(|f| (f.at, f.node.0));
    FaultSchedule {
        id: 0,
        scenario: FaultScenario { faults },
    }
}

/// A bounded, deterministic corpus of interesting schedules.
#[derive(Debug, Clone)]
pub struct Corpus {
    max: usize,
    entries: BTreeMap<String, CorpusEntry>,
}

impl Corpus {
    /// An empty corpus holding at most `max` entries.
    pub fn new(max: usize) -> Corpus {
        Corpus {
            max: max.max(1),
            entries: BTreeMap::new(),
        }
    }

    /// Resident count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no schedule has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Residents in key order (the deterministic parent-selection order).
    pub fn entries(&self) -> impl Iterator<Item = &CorpusEntry> {
        self.entries.values()
    }

    /// The `i`-th resident in key order (parent selection wraps).
    pub(crate) fn nth(&self, i: usize) -> Option<&CorpusEntry> {
        self.entries.values().nth(i % self.entries.len().max(1))
    }

    /// Offer a schedule. Returns `true` when it was admitted (or
    /// refreshed an existing entry with a higher score).
    ///
    /// The schedule is canonicalized before keying, so offering a mutant
    /// and offering its canonical form are the same operation.
    pub fn offer(
        &mut self,
        cell_idx: u16,
        cell_name: &str,
        schedule: &FaultSchedule,
        score: u64,
        new_signatures: usize,
    ) -> bool {
        let key = canonical_key(cell_name, schedule);
        if let Some(existing) = self.entries.get_mut(&key) {
            if score > existing.score {
                existing.score = score;
                existing.new_signatures = existing.new_signatures.max(new_signatures);
                return true;
            }
            return false;
        }
        if self.entries.len() >= self.max {
            // Must beat the worst resident; ties lose (stability).
            let (worst_key, worst_score) = self
                .entries
                .iter()
                .min_by_key(|(k, e)| (e.score, (*k).clone()))
                .map(|(k, e)| (k.clone(), e.score))
                .expect("non-empty at capacity");
            if score <= worst_score {
                return false;
            }
            self.entries.remove(&worst_key);
        }
        self.entries.insert(
            key,
            CorpusEntry {
                cell_idx,
                schedule: canonicalize(schedule),
                score,
                new_signatures,
            },
        );
        true
    }

    /// Chained digest over the corpus keys and scores in key order — the
    /// report's one-number fingerprint of the final corpus.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xf022_5eed_0c0e_0001;
        for (k, e) in &self.entries {
            h = digest64(&[&h.to_be_bytes(), k.as_bytes(), &e.score.to_be_bytes()]);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_model::{NodeId, Time};

    fn sched(faults: Vec<btr_core::InjectedFault>) -> FaultSchedule {
        FaultSchedule {
            id: 7, // ids are noise; the corpus canonicalizes them away
            scenario: FaultScenario { faults },
        }
    }

    #[test]
    fn keys_are_order_insensitive_and_insertion_is_idempotent() {
        let a = sched(vec![
            FaultVariant::CRASH.inject(NodeId(2), Time(52_000)),
            FaultVariant::OMISSION.inject(NodeId(5), Time(260_000)),
        ]);
        let b = sched(vec![
            FaultVariant::OMISSION.inject(NodeId(5), Time(260_000)),
            FaultVariant::CRASH.inject(NodeId(2), Time(52_000)),
        ]);
        assert_eq!(canonical_key("cell", &a), canonical_key("cell", &b));

        let mut c = Corpus::new(8);
        assert!(c.offer(0, "cell", &a, 100, 1));
        assert!(!c.offer(0, "cell", &b, 100, 1), "same script, same score");
        assert_eq!(c.len(), 1);
        let d1 = c.digest();
        assert!(!c.offer(0, "cell", &a, 50, 0), "lower score never replaces");
        assert_eq!(c.digest(), d1);
        assert!(c.offer(0, "cell", &a, 120, 1), "higher score refreshes");
        assert_ne!(c.digest(), d1);
    }

    #[test]
    fn bounded_eviction_drops_the_worst() {
        let mut c = Corpus::new(2);
        let s1 = sched(vec![FaultVariant::CRASH.inject(NodeId(1), Time(50_000))]);
        let s2 = sched(vec![FaultVariant::CRASH.inject(NodeId(2), Time(50_000))]);
        let s3 = sched(vec![FaultVariant::CRASH.inject(NodeId(3), Time(50_000))]);
        assert!(c.offer(0, "cell", &s1, 10, 0));
        assert!(c.offer(0, "cell", &s2, 30, 0));
        assert!(!c.offer(0, "cell", &s3, 10, 0), "ties lose at capacity");
        assert!(c.offer(0, "cell", &s3, 20, 0));
        assert_eq!(c.len(), 2);
        let scores: Vec<u64> = c.entries().map(|e| e.score).collect();
        assert!(scores.contains(&30) && scores.contains(&20), "{scores:?}");
    }

    #[test]
    fn nth_wraps_in_key_order() {
        let mut c = Corpus::new(8);
        let s1 = sched(vec![FaultVariant::CRASH.inject(NodeId(1), Time(50_000))]);
        let s2 = sched(vec![FaultVariant::CRASH.inject(NodeId(2), Time(60_000))]);
        c.offer(0, "cell", &s1, 10, 0);
        c.offer(0, "cell", &s2, 10, 0);
        assert_eq!(c.nth(0), c.nth(2));
        assert_ne!(c.nth(0), c.nth(1));
    }
}
