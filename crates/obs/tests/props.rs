//! Property tests for the observability primitives.
//!
//! The campaign runner folds per-run slack histograms in work-stealing
//! completion order and must still render a deterministic report, so
//! histogram merge has to be associative and commutative. The timeline
//! fold has to partition the judged window for *any* mark soup, since
//! live mark streams interleave nondeterministically across node
//! threads.

use btr_model::{Duration, NodeId, Time};
use btr_obs::{Histogram, Phase, PhaseMark, Profile, RecoveryTimeline, Subsystem};
use proptest::prelude::*;

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// Interpret a raw op list as profile bumps and wall charges across
/// every subsystem.
fn profile_of(ops: &[(u8, u32, u32)]) -> Profile {
    let mut p = Profile::default();
    for &(s, n, ns) in ops {
        let sub = Subsystem::all()[s as usize % Subsystem::all().len()];
        p.bump_n(sub, n as u64);
        p.add_wall(sub, ns as u64);
    }
    p
}

fn phase_of(raw: u8) -> Phase {
    match raw % 4 {
        0 => Phase::FaultActive,
        1 => Phase::EvidenceObserved,
        2 => Phase::Attributed,
        _ => Phase::SwitchCompleted,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// merge(a, b) == merge(b, a) — the full aggregate state, not just
    /// the buckets.
    #[test]
    fn prop_merge_commutative(
        xs in proptest::collection::vec(any::<u64>(), 0..64),
        ys in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let (a, b) = (hist_of(&xs), hist_of(&ys));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    /// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    #[test]
    fn prop_merge_associative(
        xs in proptest::collection::vec(any::<u64>(), 0..48),
        ys in proptest::collection::vec(any::<u64>(), 0..48),
        zs in proptest::collection::vec(any::<u64>(), 0..48),
    ) {
        let (a, b, c) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Merging empty is the identity.
    #[test]
    fn prop_merge_identity(xs in proptest::collection::vec(any::<u64>(), 0..64)) {
        let a = hist_of(&xs);
        let mut merged = a.clone();
        merged.merge(&Histogram::new());
        prop_assert_eq!(merged, a);
    }

    /// Merge of splits equals recording everything into one histogram
    /// (the "campaign shards vs sequential pass" equivalence).
    #[test]
    fn prop_merge_equals_union(
        xs in proptest::collection::vec(any::<u64>(), 0..64),
        split in any::<usize>(),
    ) {
        let cut = if xs.is_empty() { 0 } else { split % (xs.len() + 1) };
        let mut merged = hist_of(&xs[..cut]);
        merged.merge(&hist_of(&xs[cut..]));
        prop_assert_eq!(merged, hist_of(&xs));
    }

    /// Quantiles are monotone in q and bracketed by min/max.
    #[test]
    fn prop_quantiles_monotone(xs in proptest::collection::vec(0u64..1_000_000, 1..64)) {
        let h = hist_of(&xs);
        let qs = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0];
        let vals: Vec<u64> = qs.iter().map(|&q| h.quantile(q).unwrap()).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1], "{vals:?}");
        }
        prop_assert!(vals[qs.len() - 1] <= h.max().unwrap() || h.max().is_none());
        prop_assert_eq!(vals[qs.len() - 1], h.max().unwrap());
    }

    /// Subsystem profiles merge like histograms: commutative over the
    /// full state (counts and wall ledgers both).
    #[test]
    fn prop_profile_merge_commutative(
        xs in proptest::collection::vec((any::<u8>(), 0u32..1_000, 0u32..1_000_000), 0..48),
        ys in proptest::collection::vec((any::<u8>(), 0u32..1_000, 0u32..1_000_000), 0..48),
    ) {
        let (a, b) = (profile_of(&xs), profile_of(&ys));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    /// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) for profiles, and merging the empty
    /// profile is the identity.
    #[test]
    fn prop_profile_merge_associative_with_identity(
        xs in proptest::collection::vec((any::<u8>(), 0u32..1_000, 0u32..1_000_000), 0..32),
        ys in proptest::collection::vec((any::<u8>(), 0u32..1_000, 0u32..1_000_000), 0..32),
        zs in proptest::collection::vec((any::<u8>(), 0u32..1_000, 0u32..1_000_000), 0..32),
    ) {
        let (a, b, c) = (profile_of(&xs), profile_of(&ys), profile_of(&zs));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        let mut id = left.clone();
        id.merge(&Profile::default());
        prop_assert_eq!(id, left);
    }

    /// A profile recorded in shards and merged equals one recorded in a
    /// single pass (the campaign-runner fold equivalence).
    #[test]
    fn prop_profile_merge_equals_union(
        xs in proptest::collection::vec((any::<u8>(), 0u32..1_000, 0u32..1_000_000), 0..48),
        split in any::<usize>(),
    ) {
        let cut = if xs.is_empty() { 0 } else { split % (xs.len() + 1) };
        let mut merged = profile_of(&xs[..cut]);
        merged.merge(&profile_of(&xs[cut..]));
        prop_assert_eq!(merged, profile_of(&xs));
    }

    /// For any mark soup — arbitrary observers, subjects, phases, and
    /// instants — the folded timeline's five phases partition the
    /// judged window exactly.
    #[test]
    fn prop_timeline_partitions_window(
        raw_marks in proptest::collection::vec(
            (0u32..8, 0u32..8, any::<u8>(), 0u64..500_000), 0..64),
        fault_at in 0u64..200_000,
        window in 0u64..200_000,
    ) {
        let marks: Vec<PhaseMark> = raw_marks
            .iter()
            .map(|&(obs, subj, ph, at)| PhaseMark {
                observer: NodeId(obs),
                subject: NodeId(subj),
                phase: phase_of(ph),
                at: Time(at),
            })
            .collect();
        let t = RecoveryTimeline::fold(
            NodeId(3),
            Time(fault_at),
            Duration(window),
            Duration::from_millis(150),
            &marks,
        );
        prop_assert_eq!(t.phases_sum(), window);
        prop_assert_eq!(t.recovery_us, window);
        prop_assert_eq!(t.recovered_at, Time(fault_at) + Duration(window));
    }
}
