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

use crate::tables::PlanTables;
use btr_model::{NodeId, PeriodIdx};
use std::sync::Arc;

/// The nodes one declaration newly attributes: the remote endpoint (by
/// the accusation count), then the declarer (by the anti-flooding count).
pub(crate) type Attributions = [Option<NodeId>; 2];

/// A set of periods as every route asks of it — does it hold two
/// distinct ones: its first period, and whether another followed.
type Periods = (Option<PeriodIdx>, bool);

/// Add `period` to `set`; true once `set` holds two distinct periods.
fn two_periods(set: &mut Periods, period: PeriodIdx) -> bool {
    let first = *set.0.get_or_insert(period);
    set.1 |= first != period;
    set.1
}

/// What the declarations so far say about one node.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Distinct nodes that declared against it.
    accusers: usize,
    /// Distinct remote endpoints of its own declarations.
    remotes: usize,
    /// Periods in which it was accused (any accuser).
    accused: Periods,
    /// Periods in which a *plan-plausible* accuser accused it. Tracked
    /// separately so the scaled conviction route's two-period
    /// requirement cannot be satisfied by implausible accusers' periods
    /// (which count toward neither threshold).
    plausibly: Periods,
    /// Periods in which it declared.
    declared: Periods,
    attributed: bool,
}

/// Accusation matrix with distinct-peer thresholds, dense over the
/// platform's nodes: a [`Tally`] and two bitsets per node, allocated on
/// the first declaration.
///
/// Attribution always requires implication in at least two distinct
/// periods, so a single transient burst (e.g. data delayed by an evidence
/// flood during an unrelated recovery) never convicts a healthy node.
#[derive(Debug)]
pub(crate) struct OmissionTracker {
    threshold: usize,
    /// Platform nodes: what `tallies` and `bits` are sized from.
    nodes: usize,
    /// The active plan's tables, read for each suspect's plausible
    /// accusers (see [`OmissionTracker::set_plausible_accusers`]).
    plan: Option<Arc<PlanTables>>,
    tallies: Vec<Tally>,
    /// Bitsets of `words` words, a bit per node: node `n`'s accusers
    /// are row `2n`, the remotes it declared row `2n + 1`.
    bits: Vec<u64>,
    words: usize,
}

impl OmissionTracker {
    /// Attribute once a node is accused by `threshold` distinct peers of
    /// the `nodes` on the platform.
    pub(crate) fn new(threshold: usize, nodes: usize) -> Self {
        OmissionTracker {
            threshold: threshold.max(1),
            nodes,
            plan: None,
            tallies: Vec::new(),
            bits: Vec::new(),
            words: nodes.div_ceil(64),
        }
    }

    /// Install the active plan's tables, whose plausible accusers the
    /// tracker reads: for each node, the distinct other nodes that would
    /// notice its silence under the plan (consumers of its lanes,
    /// checkers of its tasks; [`PlanTables::accusers`]).
    ///
    /// Accusations from this set convict at the scaled threshold
    /// `min(threshold, max(2, |plausible|))`, so sparse-consumer victims
    /// stay attributable; accusations from anyone else must reach the
    /// full configured threshold, so nodes the plan gives no reason to
    /// complain (e.g. a colluding pair fabricating declarations about a
    /// sparse victim) cannot exploit the lowered bar.
    pub(crate) fn set_plausible_accusers(&mut self, plan: Arc<PlanTables>) {
        self.plan = Some(plan);
    }

    /// Word and mask of `node`'s bit in bitset `row`.
    fn bit(&self, row: usize, node: NodeId) -> (usize, u64) {
        (
            row * self.words + node.index() / 64,
            1 << (node.index() % 64),
        )
    }

    /// Set `node`'s bit in bitset `row`; true if it was clear.
    fn set(&mut self, row: usize, node: NodeId) -> bool {
        let (word, mask) = self.bit(row, node);
        let clear = self.bits[word] & mask == 0;
        self.bits[word] |= mask;
        clear
    }

    /// How many of `suspect`'s accusers are in the `plausible` set.
    fn among(&self, suspect: NodeId, plausible: &[NodeId]) -> usize {
        let accused = |&&a: &&NodeId| {
            let (word, mask) = self.bit(2 * suspect.index(), a);
            self.bits.get(word).is_some_and(|w| w & mask != 0)
        };
        plausible.iter().filter(accused).count()
    }

    /// Record that `accuser` declared against `suspect` (direct evidence).
    fn accuse(&mut self, suspect: NodeId, accuser: NodeId, period: PeriodIdx) -> bool {
        let fresh = self.set(2 * suspect.index(), accuser);
        let plausible = self.plan.as_deref().and_then(|t| t.accusers(suspect));
        let from_plausible = plausible.is_some_and(|p| p.binary_search(&accuser).is_ok());
        let tally = &mut self.tallies[suspect.index()];
        tally.accusers += usize::from(fresh);
        let two = two_periods(&mut tally.accused, period);
        let plausibly_two = match from_plausible {
            true => two_periods(&mut tally.plausibly, period),
            false => tally.plausibly.1,
        };
        // Each route needs its *own* accusations to span two distinct
        // periods, so a single transient burst never convicts — even when
        // padded with accusations that count toward the other route.
        let full = tally.accusers >= self.threshold && two;
        let scaled = plausible.is_some_and(|plausible| {
            let scaled_threshold = self.threshold.min(plausible.len().max(2));
            plausibly_two && self.among(suspect, plausible) >= scaled_threshold
        });
        (full || scaled) && self.attribute(suspect)
    }

    /// Record that `declarer` put itself on a declared path with `remote`
    /// (anti-flooding bookkeeping; doubled conviction bar).
    fn self_implicate(&mut self, declarer: NodeId, remote: NodeId, period: PeriodIdx) -> bool {
        let fresh = self.set(2 * declarer.index() + 1, remote);
        let tally = &mut self.tallies[declarer.index()];
        tally.remotes += usize::from(fresh);
        let two = two_periods(&mut tally.declared, period);
        tally.remotes >= 2 * self.threshold && two && self.attribute(declarer)
    }

    /// Mark `node` attributed; true the first time.
    fn attribute(&mut self, node: NodeId) -> bool {
        !std::mem::replace(&mut self.tallies[node.index()].attributed, true)
    }

    /// Count a declaration by `declarer` with `remote` at the other end,
    /// in `period`: an accusation of the remote, a self-implication of
    /// the declarer. A node past the platform — which verification
    /// rejects (`EvidenceFlaw::UnknownNode`) — is never counted.
    fn record(&mut self, declarer: NodeId, remote: NodeId, period: PeriodIdx) -> Attributions {
        if declarer.index().max(remote.index()) >= self.nodes {
            return [None; 2];
        }
        if self.tallies.is_empty() {
            self.tallies = vec![Tally::default(); self.nodes];
            self.bits = vec![0; 2 * self.nodes * self.words];
        }
        [
            self.accuse(remote, declarer, period).then_some(remote),
            self.self_implicate(declarer, remote, period)
                .then_some(declarer),
        ]
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
    ) -> Attributions {
        if from == to || (declarer != from && declarer != to) {
            return [None; 2];
        }
        let remote = if declarer == from { to } else { from };
        self.record(declarer, remote, period)
    }

    /// Record a crash suspicion (declarer suspects `about` in `period`).
    pub(crate) fn record_suspicion(
        &mut self,
        declarer: NodeId,
        about: NodeId,
        period: PeriodIdx,
    ) -> Attributions {
        if declarer == about {
            return [None; 2];
        }
        self.record(declarer, about, period)
    }

    /// True if `node` has been attributed faulty (what the tests read;
    /// the detector acts on each attribution as it is returned).
    #[cfg(test)]
    pub(crate) fn is_attributed(&self, node: NodeId) -> bool {
        self.tallies.get(node.index()).is_some_and(|t| t.attributed)
    }

    /// Unattributed suspects exactly one distinct accuser short of their
    /// nearest conviction route (full or fan-in-scaled) — the evidence
    /// pool's near misses. The two-period rule is not held against the
    /// deficit: a closing accusation arrives with its own period.
    pub(crate) fn near_miss_suspects(&self) -> usize {
        let short = |(i, tally): (usize, &Tally)| {
            if tally.attributed || tally.accusers == 0 {
                return false;
            }
            let suspect = NodeId(i as u32);
            let plausible = self.plan.as_deref().and_then(|t| t.accusers(suspect));
            let scaled_short = plausible.is_some_and(|plausible| {
                let scaled_threshold = self.threshold.min(plausible.len().max(2));
                self.among(suspect, plausible) + 1 == scaled_threshold
            });
            tally.accusers + 1 == self.threshold || scaled_short
        };
        self.tallies
            .iter()
            .enumerate()
            .filter(|&t| short(t))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NONE: Attributions = [None; 2];

    /// Each test runs on a 10-node platform and on a 70-node one, whose
    /// bitsets span two words: there, test node `i` is platform node
    /// `60 + i`, so the tests' nodes straddle bit 64.
    fn platforms(threshold: usize) -> [(OmissionTracker, impl Fn(u32) -> NodeId); 2] {
        [10, 70].map(|n| {
            (OmissionTracker::new(threshold, n), move |i| {
                NodeId(n as u32 - 10 + i)
            })
        })
    }

    #[test]
    fn single_accuser_attributes_nobody_at_threshold_two() {
        for (mut t, id) in platforms(2) {
            assert_eq!(t.record_path(id(1), id(2), id(1), 0), NONE);
            assert_eq!(t.tallies[id(2).index()].accusers, 1);
            assert_eq!(t.tallies[id(1).index()].remotes, 1);
        }
    }

    #[test]
    fn distinct_accusers_convict_the_suspect() {
        // Node 4 drops traffic to three different recipients over
        // multiple periods; each recipient declares.
        for (mut t, id) in platforms(3) {
            assert_eq!(t.record_path(id(1), id(4), id(1), 0), NONE);
            assert_eq!(t.record_path(id(2), id(4), id(2), 1), NONE);
            assert_eq!(t.record_path(id(3), id(4), id(3), 2), [Some(id(4)), None]);
            assert!(t.is_attributed(id(4)));
            // Honest accusers are not attributed.
            assert!(!t.is_attributed(id(1)));
        }
    }

    #[test]
    fn single_period_burst_never_attributes() {
        // Three accusations, all in the same period: no attribution.
        for (mut t, id) in platforms(3) {
            assert_eq!(t.record_path(id(1), id(4), id(1), 5), NONE);
            assert_eq!(t.record_path(id(2), id(4), id(2), 5), NONE);
            assert_eq!(t.record_path(id(3), id(4), id(3), 5), NONE);
            assert!(t.tallies.iter().all(|t| !t.attributed));
            // One more in a later period crosses the line.
            assert_eq!(t.record_path(id(5), id(4), id(5), 6), [Some(id(4)), None]);
        }
    }

    #[test]
    fn duplicate_paths_do_not_inflate() {
        for (mut t, id) in platforms(2) {
            for p in 0..10 {
                assert_eq!(t.record_path(id(2), id(1), id(2), p), NONE);
            }
            assert_eq!(t.tallies[id(1).index()].accusers, 1);
        }
    }

    #[test]
    fn honest_reporter_of_sequential_faults_is_not_convicted() {
        // The campaign's cascade: node 1 truthfully complains about a
        // crash (n2), a transient (n7), and an omission (n4). Under the
        // old single counter those three distinct peers convicted n1;
        // now its own declarations never reach the doubled bar.
        for (mut t, id) in platforms(3) {
            t.record_path(id(1), id(2), id(1), 43);
            t.record_path(id(1), id(7), id(1), 44);
            t.record_path(id(1), id(4), id(1), 57);
            assert!(!t.is_attributed(id(1)), "honest declarer convicted");
            assert_eq!(t.tallies[id(1).index()].remotes, 3);
        }
    }

    #[test]
    fn false_declarer_still_implicates_itself() {
        // Node 7 floods declarations about everyone: after 2 * threshold
        // distinct victims (threshold 2 -> 4), node 7 itself is
        // attributed. The paper's resource-drain attack stays
        // self-defeating.
        for (mut t, id) in platforms(2) {
            t.record_path(id(7), id(7), id(0), 0);
            t.record_path(id(7), id(7), id(1), 1);
            t.record_path(id(7), id(7), id(2), 2);
            assert!(!t.is_attributed(id(7)));
            assert_eq!(t.record_path(id(7), id(7), id(3), 3), [None, Some(id(7))]);
        }
    }

    #[test]
    fn crash_suspicions_accumulate() {
        for (mut t, id) in platforms(2) {
            assert_eq!(t.record_suspicion(id(1), id(9), 0), NONE);
            assert_eq!(t.record_suspicion(id(2), id(9), 1), [Some(id(9)), None]);
            // Already attributed: no re-report.
            assert_eq!(t.record_suspicion(id(3), id(9), 2), NONE);
        }
    }

    #[test]
    fn fan_in_aware_threshold_scales_down() {
        // Suspect n4's lanes are only visible to nodes 1 and 2 under the
        // active plan: accusations from exactly those two convict, but
        // the full threshold still applies to everyone else.
        for (mut t, id) in platforms(3) {
            let all: Vec<NodeId> = (0..8).filter(|&n| n != 5).map(&id).collect();
            let sparse = [id(1), id(2)];
            t.set_plausible_accusers(PlanTables::with_accusers(&[
                (id(4), &sparse),
                (id(5), &all),
            ]));
            t.record_path(id(1), id(4), id(1), 0);
            assert_eq!(t.record_path(id(2), id(4), id(2), 1), [Some(id(4)), None]);
            // n5 has plenty of plausible accusers: full threshold applies.
            t.record_path(id(1), id(5), id(1), 0);
            assert_eq!(t.record_path(id(2), id(5), id(2), 1), NONE);
            assert_eq!(t.record_path(id(3), id(5), id(3), 2), [Some(id(5)), None]);
        }
    }

    #[test]
    fn implausible_accusers_cannot_use_the_scaled_threshold() {
        // Two colluders (an admitted f = 2 pattern) that the plan gives
        // no reason to complain about sparse-fan-in n4 — neither
        // consumes its lanes nor checks its tasks — cannot convict it at
        // the scaled bar of 2, via path declarations or crash
        // suspicions: for them the full threshold (3) stands.
        for (mut t, id) in platforms(3) {
            t.set_plausible_accusers(PlanTables::with_accusers(&[(id(4), &[id(1), id(2)])]));
            for p in 0..4 {
                assert_eq!(t.record_path(id(7), id(4), id(7), p), NONE);
                assert_eq!(t.record_suspicion(id(8), id(4), p), NONE);
            }
            assert!(!t.is_attributed(id(4)));
            // One plausible accuser joining the two colluders still
            // reaches the full threshold (3 distinct accusers) — genuine
            // faults with mixed evidence are not lost.
            assert_eq!(t.record_path(id(1), id(4), id(1), 9), [Some(id(4)), None]);
        }
    }

    #[test]
    fn implausible_periods_cannot_pad_the_scaled_route() {
        // An implausible colluder accuses n4 across two periods (counts
        // toward neither route), then both plausible accusers declare in
        // a single burst period: the scaled route's two-period rule must
        // be judged on plausible accusations alone, so no conviction.
        for (mut t, id) in platforms(4) {
            t.set_plausible_accusers(PlanTables::with_accusers(&[(id(4), &[id(1), id(2)])]));
            t.record_path(id(7), id(4), id(7), 3);
            t.record_path(id(7), id(4), id(7), 4);
            assert_eq!(t.record_path(id(1), id(4), id(1), 9), NONE);
            assert_eq!(t.record_path(id(2), id(4), id(2), 9), NONE);
            assert!(!t.is_attributed(id(4)));
            // A plausible accusation in a second period completes the route.
            assert_eq!(t.record_path(id(1), id(4), id(1), 10), [Some(id(4)), None]);
        }
    }

    #[test]
    fn fan_in_never_drops_below_two() {
        // A suspect with a single plausible accuser can never be
        // convicted through the scaled route (the bar floors at two
        // distinct plausible accusers, and only one exists): one
        // observer's word is he-said-she-said, exactly what the paper's
        // threshold exists to resist. Only the full threshold convicts.
        for (mut t, id) in platforms(3) {
            t.set_plausible_accusers(PlanTables::with_accusers(&[(id(4), &[id(1)])]));
            for p in 0..5 {
                assert_eq!(t.record_path(id(1), id(4), id(1), p), NONE);
            }
            assert_eq!(t.record_path(id(2), id(4), id(2), 9), NONE);
            assert_eq!(t.record_path(id(3), id(4), id(3), 10), [Some(id(4)), None]);
        }
    }

    #[test]
    fn near_misses_track_the_one_accuser_deficit() {
        for (mut t, id) in platforms(3) {
            assert_eq!(t.near_miss_suspects(), 0);
            // One accuser: still two short of the full threshold.
            t.record_path(id(1), id(4), id(1), 0);
            assert_eq!(t.near_miss_suspects(), 0);
            // A second distinct accuser puts n4 one short.
            t.record_path(id(2), id(4), id(2), 1);
            assert_eq!(t.near_miss_suspects(), 1);
            // Conviction clears the near miss.
            t.record_path(id(3), id(4), id(3), 2);
            assert!(t.is_attributed(id(4)));
            assert_eq!(t.near_miss_suspects(), 0);
            // A sparse-fan-in suspect is a near miss after a single
            // plausible accusation (scaled bar of two).
            t.set_plausible_accusers(PlanTables::with_accusers(&[(id(6), &[id(1), id(2)])]));
            t.record_path(id(1), id(6), id(1), 5);
            assert_eq!(t.near_miss_suspects(), 1);
        }
    }

    #[test]
    fn self_reports_and_offpath_declarers_ignored() {
        for (mut t, id) in platforms(1) {
            assert_eq!(t.record_path(id(5), id(5), id(5), 0), NONE);
            assert_eq!(t.record_suspicion(id(5), id(5), 1), NONE);
            // A declarer that is not a path endpoint carries no weight,
            // nor does a node past the platform, at either end.
            assert_eq!(t.record_path(id(9), id(1), id(2), 0), NONE);
            assert_eq!(t.record_path(id(1), id(1), id(10), 0), NONE);
            assert_eq!(t.record_suspicion(id(10), id(1), 1), NONE);
            assert!(t.tallies.is_empty(), "nothing counted");
        }
    }
}
