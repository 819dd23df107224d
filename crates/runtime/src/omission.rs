//! Omission-fault attribution.
//!
//! Section 4.2: "In contrast to commission faults, there is no direct way
//! to prove that a faulty node failed to send ... One way to avoid this
//! would be to allow both the sender and the recipient to declare
//! (without further evidence) a problem with the path between them; the
//! system could then ... keep track of which paths have been declared
//! problematic. If a node is on a large number of problematic paths, it
//! may be possible to attribute the problem to that node."
//!
//! The tracker keeps the two ends of every declared path strictly apart,
//! because they carry very different evidentiary weight:
//!
//! * **Accusations** — declarations by *other* nodes naming a suspect as
//!   the remote endpoint. This is direct (if unprovable) observation of
//!   the suspect's silence; enough distinct accusers over enough periods
//!   convict.
//! * **Self-implication** — the declarer's *own* appearances on paths it
//!   declared. Counting these toward conviction at the same bar turned
//!   out to convict honest reporters: a node that truthfully complains
//!   about a crash, then a transient, then an omission has touched three
//!   "problematic paths" without ever misbehaving (the sequential-fault
//!   false-attribution cascade the campaign found — see EXPERIMENTS.md).
//!   Self-implication therefore convicts only at a doubled bar, which
//!   still makes the paper's declaration-flooding attack self-defeating
//!   (a flooder is an endpoint of *every* path it invents) while leaving
//!   honest declarers, who accumulate at most ~f distinct remotes, safe.
//!
//! Thresholds are additionally **fan-in aware**: a suspect whose lanes
//! are consumed by only two distinct nodes can never attract three
//! distinct accusers, so the per-suspect threshold scales down to the
//! accusers the plan actually provides (never below two — one false
//! declarer alone must never convict). The scaled threshold only counts
//! accusers the plan makes *plausible* for that suspect (consumers of
//! its lanes, checkers of its tasks): anyone else — including heartbeat
//! crash suspecters, whose real fan-in is the whole cluster — must meet
//! the full configured threshold, so a colluding pair inside an admitted
//! f = 2 budget cannot fabricate a sparse-fan-in conviction.

use btr_model::{NodeId, PeriodIdx};
use std::collections::{BTreeMap, BTreeSet};

/// Accusation matrix with distinct-peer thresholds.
///
/// Attribution always requires implication in at least two distinct
/// periods, so a single transient burst (e.g. data delayed by an evidence
/// flood during an unrelated recovery) never convicts a healthy node.
#[derive(Debug)]
pub(crate) struct OmissionTracker {
    /// suspect -> distinct nodes that declared against it.
    accusers: BTreeMap<NodeId, BTreeSet<NodeId>>,
    /// suspect -> periods in which it was accused (any accuser).
    accused_periods: BTreeMap<NodeId, BTreeSet<PeriodIdx>>,
    /// suspect -> periods in which a *plan-plausible* accuser accused it.
    /// Tracked separately so the scaled conviction route's two-period
    /// requirement cannot be satisfied by implausible accusers' periods
    /// (which count toward neither threshold).
    plausible_periods: BTreeMap<NodeId, BTreeSet<PeriodIdx>>,
    /// declarer -> distinct remote endpoints of its own declarations.
    declared_remotes: BTreeMap<NodeId, BTreeSet<NodeId>>,
    /// declarer -> periods in which it declared.
    declared_periods: BTreeMap<NodeId, BTreeSet<PeriodIdx>>,
    threshold: usize,
    /// Plan-derived plausible accusers per suspect (see
    /// [`OmissionTracker::set_plausible_accusers`]).
    plausible_accusers: BTreeMap<NodeId, BTreeSet<NodeId>>,
    attributed: BTreeSet<NodeId>,
}

impl OmissionTracker {
    /// Attribute once a node is accused by `threshold` distinct peers.
    pub(crate) fn new(threshold: usize) -> Self {
        OmissionTracker {
            accusers: BTreeMap::new(),
            accused_periods: BTreeMap::new(),
            plausible_periods: BTreeMap::new(),
            declared_remotes: BTreeMap::new(),
            declared_periods: BTreeMap::new(),
            threshold: threshold.max(1),
            plausible_accusers: BTreeMap::new(),
            attributed: BTreeSet::new(),
        }
    }

    /// Install the plan-derived plausible accusers: for each node, the
    /// distinct other nodes that would notice its silence under the
    /// active plan (consumers of its lanes, checkers of its tasks).
    ///
    /// Accusations from this set convict at the scaled threshold
    /// `min(threshold, max(2, |plausible|))`, so sparse-consumer victims
    /// stay attributable; accusations from anyone else must reach the
    /// full configured threshold, so nodes the plan gives no reason to
    /// complain (e.g. a colluding pair fabricating declarations about a
    /// sparse victim) cannot exploit the lowered bar.
    pub(crate) fn set_plausible_accusers(&mut self, accusers: BTreeMap<NodeId, BTreeSet<NodeId>>) {
        self.plausible_accusers = accusers;
    }

    /// Record that `accuser` declared against `suspect` (direct evidence).
    fn accuse(&mut self, suspect: NodeId, accuser: NodeId, period: PeriodIdx) -> bool {
        let plausible = self.plausible_accusers.get(&suspect);
        let from_plausible = plausible.is_some_and(|p| p.contains(&accuser));
        let set = self.accusers.entry(suspect).or_default();
        set.insert(accuser);
        let periods = self.accused_periods.entry(suspect).or_default();
        periods.insert(period);
        let all_periods = periods.len();
        let plausible_periods = {
            let p = self.plausible_periods.entry(suspect).or_default();
            if from_plausible {
                p.insert(period);
            }
            p.len()
        };
        // Each route needs its *own* accusations to span two distinct
        // periods, so a single transient burst never convicts — even when
        // padded with accusations that count toward the other route.
        let full = set.len() >= self.threshold && all_periods >= 2;
        let scaled = plausible.is_some_and(|plausible| {
            let scaled_threshold = self.threshold.min(plausible.len().max(2));
            set.intersection(plausible).count() >= scaled_threshold && plausible_periods >= 2
        });
        (full || scaled) && self.attributed.insert(suspect)
    }

    /// Record that `declarer` put itself on a declared path with `remote`
    /// (anti-flooding bookkeeping; doubled conviction bar).
    fn self_implicate(&mut self, declarer: NodeId, remote: NodeId, period: PeriodIdx) -> bool {
        let set = self.declared_remotes.entry(declarer).or_default();
        set.insert(remote);
        let periods = self.declared_periods.entry(declarer).or_default();
        periods.insert(period);
        set.len() >= 2 * self.threshold && periods.len() >= 2 && self.attributed.insert(declarer)
    }

    /// Record a problematic-path declaration by `declarer` observed in
    /// `period`; returns newly attributed nodes (the remote endpoint via
    /// the accusation count, and/or the declarer via the anti-flooding
    /// count).
    pub(crate) fn record_path(
        &mut self,
        declarer: NodeId,
        from: NodeId,
        to: NodeId,
        period: PeriodIdx,
    ) -> Vec<NodeId> {
        if from == to || (declarer != from && declarer != to) {
            return Vec::new();
        }
        let remote = if declarer == from { to } else { from };
        let mut newly = Vec::new();
        if self.accuse(remote, declarer, period) {
            newly.push(remote);
        }
        if self.self_implicate(declarer, remote, period) {
            newly.push(declarer);
        }
        newly
    }

    /// Record a crash suspicion (declarer suspects `about` in `period`).
    pub(crate) fn record_suspicion(
        &mut self,
        declarer: NodeId,
        about: NodeId,
        period: PeriodIdx,
    ) -> Vec<NodeId> {
        if declarer == about {
            return Vec::new();
        }
        let mut newly = Vec::new();
        if self.accuse(about, declarer, period) {
            newly.push(about);
        }
        if self.self_implicate(declarer, about, period) {
            newly.push(declarer);
        }
        newly
    }

    /// Nodes attributed faulty so far (what the tests read; the
    /// detector acts on each attribution as it is returned).
    #[cfg(test)]
    pub(crate) fn attributed(&self) -> &BTreeSet<NodeId> {
        &self.attributed
    }

    /// Unattributed suspects exactly one distinct accuser short of their
    /// nearest conviction route (full or fan-in-scaled) — the evidence
    /// pool's near misses. The two-period rule is not held against the
    /// deficit: a closing accusation arrives with its own period.
    pub(crate) fn near_miss_suspects(&self) -> usize {
        self.accusers
            .iter()
            .filter(|(suspect, set)| {
                if self.attributed.contains(suspect) {
                    return false;
                }
                let full_short = set.len() + 1 == self.threshold;
                let scaled_short = self
                    .plausible_accusers
                    .get(suspect)
                    .is_some_and(|plausible| {
                        let scaled_threshold = self.threshold.min(plausible.len().max(2));
                        set.intersection(plausible).count() + 1 == scaled_threshold
                    });
                full_short || scaled_short
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_accuser_attributes_nobody_at_threshold_two() {
        let mut t = OmissionTracker::new(2);
        assert!(t.record_path(NodeId(1), NodeId(2), NodeId(1), 0).is_empty());
        assert_eq!(t.accusers[&NodeId(2)].len(), 1);
        assert_eq!(t.declared_remotes[&NodeId(1)].len(), 1);
    }

    #[test]
    fn distinct_accusers_convict_the_suspect() {
        // Node 4 drops traffic to three different recipients over
        // multiple periods; each recipient declares.
        let mut t = OmissionTracker::new(3);
        assert!(t.record_path(NodeId(1), NodeId(4), NodeId(1), 0).is_empty());
        assert!(t.record_path(NodeId(2), NodeId(4), NodeId(2), 1).is_empty());
        let newly = t.record_path(NodeId(3), NodeId(4), NodeId(3), 2);
        assert_eq!(newly, vec![NodeId(4)]);
        assert!(t.attributed().contains(&NodeId(4)));
        // Honest accusers are not attributed.
        assert!(!t.attributed().contains(&NodeId(1)));
    }

    #[test]
    fn single_period_burst_never_attributes() {
        // Three accusations, all in the same period: no attribution.
        let mut t = OmissionTracker::new(3);
        assert!(t.record_path(NodeId(1), NodeId(4), NodeId(1), 5).is_empty());
        assert!(t.record_path(NodeId(2), NodeId(4), NodeId(2), 5).is_empty());
        assert!(t.record_path(NodeId(3), NodeId(4), NodeId(3), 5).is_empty());
        assert!(t.attributed().is_empty());
        // One more in a later period crosses the line.
        assert_eq!(
            t.record_path(NodeId(5), NodeId(4), NodeId(5), 6),
            vec![NodeId(4)]
        );
    }

    #[test]
    fn duplicate_paths_do_not_inflate() {
        let mut t = OmissionTracker::new(2);
        for p in 0..10 {
            assert!(t.record_path(NodeId(2), NodeId(1), NodeId(2), p).is_empty());
        }
        assert_eq!(t.accusers[&NodeId(1)].len(), 1);
    }

    #[test]
    fn honest_reporter_of_sequential_faults_is_not_convicted() {
        // The campaign's cascade: node 1 truthfully complains about a
        // crash (n2), a transient (n7), and an omission (n4). Under the
        // old single counter those three distinct peers convicted n1;
        // now its own declarations never reach the doubled bar.
        let mut t = OmissionTracker::new(3);
        t.record_path(NodeId(1), NodeId(2), NodeId(1), 43);
        t.record_path(NodeId(1), NodeId(7), NodeId(1), 44);
        t.record_path(NodeId(1), NodeId(4), NodeId(1), 57);
        assert!(
            !t.attributed().contains(&NodeId(1)),
            "honest declarer convicted"
        );
        assert_eq!(t.declared_remotes[&NodeId(1)].len(), 3);
    }

    #[test]
    fn false_declarer_still_implicates_itself() {
        // Node 7 floods declarations about everyone: after 2 * threshold
        // distinct victims (threshold 2 -> 4), node 7 itself is
        // attributed. The paper's resource-drain attack stays
        // self-defeating.
        let mut t = OmissionTracker::new(2);
        t.record_path(NodeId(7), NodeId(7), NodeId(0), 0);
        t.record_path(NodeId(7), NodeId(7), NodeId(1), 1);
        t.record_path(NodeId(7), NodeId(7), NodeId(2), 2);
        assert!(!t.attributed().contains(&NodeId(7)));
        let newly = t.record_path(NodeId(7), NodeId(7), NodeId(3), 3);
        assert_eq!(newly, vec![NodeId(7)]);
    }

    #[test]
    fn crash_suspicions_accumulate() {
        let mut t = OmissionTracker::new(2);
        assert!(t.record_suspicion(NodeId(1), NodeId(9), 0).is_empty());
        assert_eq!(t.record_suspicion(NodeId(2), NodeId(9), 1), vec![NodeId(9)]);
        // Already attributed: no re-report.
        assert!(t.record_suspicion(NodeId(3), NodeId(9), 2).is_empty());
    }

    #[test]
    fn fan_in_aware_threshold_scales_down() {
        // Suspect n4's lanes are only visible to nodes 1 and 2 under the
        // active plan: accusations from exactly those two convict, but
        // the full threshold still applies to everyone else.
        let mut t = OmissionTracker::new(3);
        t.set_plausible_accusers(BTreeMap::from([
            (NodeId(4), BTreeSet::from([NodeId(1), NodeId(2)])),
            (
                NodeId(5),
                BTreeSet::from_iter((0..8).map(NodeId).filter(|&n| n != NodeId(5))),
            ),
        ]));
        t.record_path(NodeId(1), NodeId(4), NodeId(1), 0);
        let newly = t.record_path(NodeId(2), NodeId(4), NodeId(2), 1);
        assert_eq!(newly, vec![NodeId(4)]);
        // n5 has plenty of plausible accusers: full threshold applies.
        t.record_path(NodeId(1), NodeId(5), NodeId(1), 0);
        assert!(t.record_path(NodeId(2), NodeId(5), NodeId(2), 1).is_empty());
        assert_eq!(
            t.record_path(NodeId(3), NodeId(5), NodeId(3), 2),
            vec![NodeId(5)]
        );
    }

    #[test]
    fn implausible_accusers_cannot_use_the_scaled_threshold() {
        // Two colluders (an admitted f = 2 pattern) that the plan gives
        // no reason to complain about sparse-fan-in n4 — neither
        // consumes its lanes nor checks its tasks — cannot convict it at
        // the scaled bar of 2, via path declarations or crash
        // suspicions: for them the full threshold (3) stands.
        let mut t = OmissionTracker::new(3);
        t.set_plausible_accusers(BTreeMap::from([(
            NodeId(4),
            BTreeSet::from([NodeId(1), NodeId(2)]),
        )]));
        for p in 0..4 {
            assert!(t.record_path(NodeId(7), NodeId(4), NodeId(7), p).is_empty());
            assert!(t.record_suspicion(NodeId(8), NodeId(4), p).is_empty());
        }
        assert!(!t.attributed().contains(&NodeId(4)));
        // One plausible accuser joining the two colluders still reaches
        // the full threshold (3 distinct accusers) — genuine faults with
        // mixed evidence are not lost.
        assert_eq!(
            t.record_path(NodeId(1), NodeId(4), NodeId(1), 9),
            vec![NodeId(4)]
        );
    }

    #[test]
    fn implausible_periods_cannot_pad_the_scaled_route() {
        // An implausible colluder accuses n4 across two periods (counts
        // toward neither route), then both plausible accusers declare in
        // a single burst period: the scaled route's two-period rule must
        // be judged on plausible accusations alone, so no conviction.
        let mut t = OmissionTracker::new(4);
        t.set_plausible_accusers(BTreeMap::from([(
            NodeId(4),
            BTreeSet::from([NodeId(1), NodeId(2)]),
        )]));
        t.record_path(NodeId(7), NodeId(4), NodeId(7), 3);
        t.record_path(NodeId(7), NodeId(4), NodeId(7), 4);
        assert!(t.record_path(NodeId(1), NodeId(4), NodeId(1), 9).is_empty());
        assert!(t.record_path(NodeId(2), NodeId(4), NodeId(2), 9).is_empty());
        assert!(!t.attributed().contains(&NodeId(4)));
        // A plausible accusation in a second period completes the route.
        assert_eq!(
            t.record_path(NodeId(1), NodeId(4), NodeId(1), 10),
            vec![NodeId(4)]
        );
    }

    #[test]
    fn fan_in_never_drops_below_two() {
        // A suspect with a single plausible accuser can never be
        // convicted through the scaled route (the bar floors at two
        // distinct plausible accusers, and only one exists): one
        // observer's word is he-said-she-said, exactly what the paper's
        // threshold exists to resist. Only the full threshold convicts.
        let mut t = OmissionTracker::new(3);
        t.set_plausible_accusers(BTreeMap::from([(NodeId(4), BTreeSet::from([NodeId(1)]))]));
        for p in 0..5 {
            assert!(t.record_path(NodeId(1), NodeId(4), NodeId(1), p).is_empty());
        }
        assert!(t.record_path(NodeId(2), NodeId(4), NodeId(2), 9).is_empty());
        assert_eq!(
            t.record_path(NodeId(3), NodeId(4), NodeId(3), 10),
            vec![NodeId(4)]
        );
    }

    #[test]
    fn near_misses_track_the_one_accuser_deficit() {
        let mut t = OmissionTracker::new(3);
        assert_eq!(t.near_miss_suspects(), 0);
        // One accuser: still two short of the full threshold.
        t.record_path(NodeId(1), NodeId(4), NodeId(1), 0);
        assert_eq!(t.near_miss_suspects(), 0);
        // A second distinct accuser puts n4 one short.
        t.record_path(NodeId(2), NodeId(4), NodeId(2), 1);
        assert_eq!(t.near_miss_suspects(), 1);
        // Conviction clears the near miss.
        t.record_path(NodeId(3), NodeId(4), NodeId(3), 2);
        assert!(t.attributed().contains(&NodeId(4)));
        assert_eq!(t.near_miss_suspects(), 0);
        // A sparse-fan-in suspect is a near miss after a single
        // plausible accusation (scaled bar of two).
        t.set_plausible_accusers(BTreeMap::from([(
            NodeId(6),
            BTreeSet::from([NodeId(1), NodeId(2)]),
        )]));
        t.record_path(NodeId(1), NodeId(6), NodeId(1), 5);
        assert_eq!(t.near_miss_suspects(), 1);
    }

    #[test]
    fn self_reports_and_offpath_declarers_ignored() {
        let mut t = OmissionTracker::new(1);
        assert!(t.record_path(NodeId(5), NodeId(5), NodeId(5), 0).is_empty());
        assert!(t.record_suspicion(NodeId(5), NodeId(5), 1).is_empty());
        // A declarer that is not a path endpoint carries no weight.
        assert!(t.record_path(NodeId(9), NodeId(1), NodeId(2), 0).is_empty());
    }
}
