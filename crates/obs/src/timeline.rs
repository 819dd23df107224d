//! Phase marks and per-fault recovery timelines.
//!
//! The recovery oracle (`btr_core::oracle`) judges one number per
//! fault: the bad-output window `[fault_at, last_bad]`. This module
//! decomposes that window into the five phases the BTR literature
//! treats as separately engineerable:
//!
//! ```text
//!   fault_at ──detect──▸ first evidence ──agree──▸ last conviction
//!            ──blackout──▸ first switch-in ──switch──▸ last switch-in
//!            ──settle──▸ recovered (fault_at + judged bad window)
//! ```
//!
//! Six boundary instants give five durations. Instrumented code emits
//! [`PhaseMark`]s at four of the boundaries (activation, evidence,
//! attribution, switch completion); the first and last boundaries come
//! from the fault injection itself and from the judged window, so the
//! five durations **sum exactly to the end-to-end recovery number** by
//! construction — every boundary is clamped into `[fault_at,
//! recovered_at]` and made monotone before differencing. The raw
//! (unclamped) observation instants are kept alongside for inspection;
//! clamping only ever matters at period-boundary resolution where the
//! judged window ends before the final switch formally lands.

use btr_model::{Duration, NodeId, Time};

/// A recovery-phase boundary an instrumented component can observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// The fault began manifesting (sim fault injection; live crash
    /// splice). Observer is the substrate, subject the faulty node.
    FaultActive,
    /// A correct node first saw verified evidence implicating the
    /// subject (an admitted evidence record naming it).
    EvidenceObserved,
    /// A correct node convicted the subject and began the mode switch.
    Attributed,
    /// A node finished installing the recovery plan.
    SwitchCompleted,
    /// Synthetic terminal boundary (derived from the judged bad
    /// window, never emitted by instrumentation).
    Recovered,
}

impl Phase {
    /// Stable lowercase label (JSON keys, trace-event names).
    pub fn label(self) -> &'static str {
        match self {
            Phase::FaultActive => "fault_active",
            Phase::EvidenceObserved => "evidence_observed",
            Phase::Attributed => "attributed",
            Phase::SwitchCompleted => "switch_completed",
            Phase::Recovered => "recovered",
        }
    }
}

/// One observed phase boundary: `observer` saw `phase` concerning
/// `subject` at logical time `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseMark {
    /// The node that observed the boundary (the faulty node itself for
    /// `FaultActive`).
    pub observer: NodeId,
    /// The node the observation is about.
    pub subject: NodeId,
    /// Which boundary.
    pub phase: Phase,
    /// Logical time of the observation.
    pub at: Time,
}

/// The five-phase decomposition of one fault's recovery window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryTimeline {
    /// The faulty node.
    pub subject: NodeId,
    /// Fault manifestation instant (start of the judged window).
    pub fault_at: Time,
    /// End of the judged bad-output window (`fault_at` exactly when
    /// the fault was fully masked).
    pub recovered_at: Time,
    /// Activation → first verified evidence at any correct node.
    pub detect_us: u64,
    /// First evidence → last correct node convicting the subject.
    pub agree_us: u64,
    /// Last conviction → first completed switch (the planned
    /// activation wait: switches land on period boundaries).
    pub blackout_us: u64,
    /// First completed switch → last completed switch across nodes.
    pub switch_us: u64,
    /// Last completed switch → end of the judged bad window.
    pub settle_us: u64,
    /// The judged end-to-end window; equals the sum of the five
    /// phases by construction.
    pub recovery_us: u64,
    /// `R − recovery` (negative when the bound was blown).
    pub slack_to_r_us: i64,
    /// Raw (unclamped) first `EvidenceObserved` instant, if any.
    pub(crate) first_evidence: Option<Time>,
    /// Raw last `Attributed` instant, if any.
    pub(crate) last_attributed: Option<Time>,
    /// Raw first `SwitchCompleted` instant, if any.
    pub(crate) first_switch: Option<Time>,
    /// Raw last `SwitchCompleted` instant, if any.
    pub last_switch: Option<Time>,
}

impl RecoveryTimeline {
    /// Fold the marks concerning `subject` into a timeline.
    ///
    /// `fault_at` is the manifestation instant the oracle judged from;
    /// `recovery` is the judged bad window (so `recovered_at` is
    /// `fault_at + recovery`); `r_bound` is the planned R. Marks about
    /// other subjects are ignored, so one pass per fault over a shared
    /// mark stream is fine.
    pub fn fold(
        subject: NodeId,
        fault_at: Time,
        recovery: Duration,
        r_bound: Duration,
        marks: &[PhaseMark],
    ) -> RecoveryTimeline {
        let recovered_at = fault_at + recovery;
        let mut first_evidence: Option<Time> = None;
        let mut last_attributed: Option<Time> = None;
        let mut first_switch: Option<Time> = None;
        let mut last_switch: Option<Time> = None;
        for m in marks.iter().filter(|m| m.subject == subject) {
            match m.phase {
                Phase::EvidenceObserved => {
                    first_evidence = Some(first_evidence.map_or(m.at, |t| t.min(m.at)));
                }
                Phase::Attributed => {
                    last_attributed = Some(last_attributed.map_or(m.at, |t| t.max(m.at)));
                }
                Phase::SwitchCompleted => {
                    first_switch = Some(first_switch.map_or(m.at, |t| t.min(m.at)));
                    last_switch = Some(last_switch.map_or(m.at, |t| t.max(m.at)));
                }
                Phase::FaultActive | Phase::Recovered => {}
            }
        }

        // Clamp the six boundaries into the judged window and force
        // them monotone; a missing observation collapses its phase to
        // zero length. This is what guarantees the five durations
        // partition [fault_at, recovered_at] exactly.
        let clamp = |t: Option<Time>, lo: Time| -> Time {
            t.map_or(lo, |t| t.clamp(lo, recovered_at).max(lo))
        };
        let b1 = clamp(first_evidence, fault_at);
        let b2 = clamp(last_attributed, b1);
        let b3 = clamp(first_switch, b2);
        let b4 = clamp(last_switch, b3);

        let recovery_us = recovery.as_micros();
        RecoveryTimeline {
            subject,
            fault_at,
            recovered_at,
            detect_us: (b1 - fault_at).as_micros(),
            agree_us: (b2 - b1).as_micros(),
            blackout_us: (b3 - b2).as_micros(),
            switch_us: (b4 - b3).as_micros(),
            settle_us: (recovered_at - b4).as_micros(),
            recovery_us,
            slack_to_r_us: r_bound.as_micros() as i64 - recovery_us as i64,
            first_evidence,
            last_attributed,
            first_switch,
            last_switch,
        }
    }

    /// The five durations in boundary order (label, µs).
    pub fn phases(&self) -> [(&'static str, u64); 5] {
        [
            ("detect", self.detect_us),
            ("agree", self.agree_us),
            ("blackout", self.blackout_us),
            ("switch", self.switch_us),
            ("settle", self.settle_us),
        ]
    }

    /// Invariant: the phases partition the judged window.
    pub fn phases_sum(&self) -> u64 {
        self.detect_us + self.agree_us + self.blackout_us + self.switch_us + self.settle_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(observer: u32, subject: u32, phase: Phase, at_us: u64) -> PhaseMark {
        PhaseMark {
            observer: NodeId(observer),
            subject: NodeId(subject),
            phase,
            at: Time(at_us),
        }
    }

    #[test]
    fn full_sequence_partitions_window() {
        let marks = vec![
            mark(6, 6, Phase::FaultActive, 42_000),
            mark(1, 6, Phase::EvidenceObserved, 50_000),
            mark(2, 6, Phase::EvidenceObserved, 52_000),
            mark(1, 6, Phase::Attributed, 55_000),
            mark(2, 6, Phase::Attributed, 56_000),
            mark(0, 6, Phase::SwitchCompleted, 70_000),
            mark(1, 6, Phase::SwitchCompleted, 72_000),
            // A mark about some other subject must be ignored.
            mark(0, 3, Phase::SwitchCompleted, 60_000),
        ];
        let t = RecoveryTimeline::fold(
            NodeId(6),
            Time(42_000),
            Duration(38_000),
            Duration::from_millis(150),
            &marks,
        );
        assert_eq!(t.detect_us, 8_000);
        assert_eq!(t.agree_us, 6_000);
        assert_eq!(t.blackout_us, 14_000);
        assert_eq!(t.switch_us, 2_000);
        assert_eq!(t.settle_us, 8_000);
        assert_eq!(t.phases_sum(), t.recovery_us);
        assert_eq!(t.slack_to_r_us, 112_000);
        assert_eq!(t.first_switch, Some(Time(70_000)));
    }

    #[test]
    fn missing_marks_collapse_to_zero_phases() {
        // A masked fault: no evidence, no switch, zero window.
        let t = RecoveryTimeline::fold(
            NodeId(3),
            Time(42_000),
            Duration::ZERO,
            Duration::from_millis(150),
            &[],
        );
        assert_eq!(t.phases_sum(), 0);
        assert_eq!(t.recovered_at, Time(42_000));
        assert_eq!(t.slack_to_r_us, 150_000);
    }

    #[test]
    fn late_marks_are_clamped_into_the_window() {
        // Judged window ends at a period boundary before the switch
        // formally lands: the raw instant is preserved, the phase math
        // still partitions the judged window.
        let marks = vec![
            mark(1, 6, Phase::EvidenceObserved, 50_000),
            mark(1, 6, Phase::Attributed, 55_000),
            mark(1, 6, Phase::SwitchCompleted, 90_000),
        ];
        let t = RecoveryTimeline::fold(
            NodeId(6),
            Time(42_000),
            Duration(38_000), // recovered_at = 80_000 < switch mark
            Duration::from_millis(150),
            &marks,
        );
        assert_eq!(t.phases_sum(), 38_000);
        assert_eq!(t.settle_us, 0);
        assert_eq!(t.switch_us, 0);
        assert_eq!(t.blackout_us, 25_000);
        assert_eq!(t.last_switch, Some(Time(90_000)));
    }

    #[test]
    fn out_of_order_marks_stay_monotone() {
        // Evidence observed *after* attribution (e.g. a straggler
        // flood arrival): boundaries are forced monotone.
        let marks = vec![
            mark(1, 6, Phase::Attributed, 50_000),
            mark(2, 6, Phase::EvidenceObserved, 60_000),
            mark(1, 6, Phase::SwitchCompleted, 55_000),
        ];
        let t = RecoveryTimeline::fold(
            NodeId(6),
            Time(42_000),
            Duration(30_000),
            Duration::from_millis(150),
            &marks,
        );
        assert_eq!(t.phases_sum(), 30_000);
    }
}
