//! Fuzzer run scoring and the phase-timeline coverage signature.
//!
//! The fuzzer keeps a schedule when it is *interesting*, and interest is
//! an integer so corpus admission is deterministic. Four components:
//!
//! * **Slack-to-R** — the closer the measured bad window came to the
//!   bound, the more the schedule is worth. A blown bound saturates the
//!   component: violations always out-score near-misses.
//! * **Evidence-pool near misses** — suspects left one accuser short of
//!   conviction, plus cascade-gated declaration suppressions. Both count
//!   runs that *almost* changed attribution, which slack alone cannot
//!   see.
//! * **Convictions minus faults** — a correct node ending on more
//!   convictions than the schedule injected faults means attribution
//!   over-fired (the false-cascade family the campaign has caught
//!   before).
//! * **New coverage** — the run's `signature` elements not seen by any
//!   earlier run. This is what keeps structurally novel schedules alive
//!   even when their slack is fat: a schedule that exercises a new
//!   detect/agree/blackout shape is a better mutation parent than a
//!   tight rerun of a known shape.
//!
//! The signature buckets each fault's five recovery phases
//! logarithmically (run-to-run noise within a bucket collapses) and
//! hashes them with the fault's variant, chain position, and chain
//! length, plus one run-level element for the end-to-end shape.

use crate::runner::RunRecord;
use crate::schedule::{FaultSchedule, FaultVariant};
use btr_core::RunReport;
use btr_crypto::digest64;
use btr_model::Duration;
use btr_obs::{PhaseMark, RecoveryTimeline};
use std::collections::BTreeSet;

/// Points a blown or exactly-met bound earns from the slack component.
const SLACK_SATURATION: u64 = 1_000;
/// Slack window (µs) over which the slack component decays to zero.
const SLACK_WINDOW_US: i64 = 1_000_000;
/// Points per evidence-pool near miss.
const NEAR_MISS_PTS: u64 = 50;
/// Points per suppressed declaration (weak signal — they are common).
const SUPPRESSED_PTS: u64 = 2;
/// Points per conviction beyond the injected fault count.
const EXCESS_CONVICTION_PTS: u64 = 200;
/// Points per signature element no earlier run produced.
pub(crate) const NEW_COVERAGE_PTS: u64 = 400;

/// The deterministic interest score of one executed run, before the
/// coverage bonus (which depends on global fuzzer state and is added by
/// the batch loop).
pub(crate) fn base_score(rec: &RunRecord) -> u64 {
    let slack = if rec.slack_us <= 0 {
        SLACK_SATURATION
    } else {
        (SLACK_SATURATION as i64 * (SLACK_WINDOW_US - rec.slack_us.min(SLACK_WINDOW_US))
            / SLACK_WINDOW_US) as u64
    };
    let evidence =
        (rec.near_misses * NEAR_MISS_PTS + rec.suppressed * SUPPRESSED_PTS).min(SLACK_SATURATION);
    let excess = (rec.convictions as u64).saturating_sub(rec.n_faults as u64);
    slack + evidence + excess * EXCESS_CONVICTION_PTS
}

/// Logarithmic duration bucket: 0 for 0 µs, else `floor(log2(us)) + 1`.
/// Collapses within-bucket jitter so the signature captures the *shape*
/// of a recovery, not its exact microsecond count.
fn log2_bucket(us: u64) -> u8 {
    if us == 0 {
        0
    } else {
        (64 - us.leading_zeros()) as u8
    }
}

/// The phase-timeline coverage signature of one observed run.
///
/// One element per injected fault — the five-phase decomposition of that
/// fault's recovery, log-bucketed and hashed together with the variant,
/// the fault's position in the chain, and the chain length — plus one
/// run-level element hashing the schedule label with the bucketed
/// end-to-end window, convergence, and violation kinds. Deterministic:
/// marks come from the deterministic simulator and the fold is pure.
pub(crate) fn signature(
    sched: &FaultSchedule,
    report: &RunReport,
    marks: &[PhaseMark],
    r_bound: Duration,
) -> BTreeSet<u64> {
    let mut out = BTreeSet::new();
    let n = sched.scenario.faults.len() as u8;
    for (i, f) in sched.scenario.faults.iter().enumerate() {
        // Per-fault window: from this fault's activation to the end of
        // the judged bad window (zero when the fault never produced a
        // bad output or was masked before it could).
        let recovery = report
            .recovery
            .last_bad
            .map(|lb| lb.saturating_since(f.at))
            .unwrap_or(Duration::ZERO);
        let t = RecoveryTimeline::fold(f.node, f.at, recovery, r_bound, marks);
        let buckets = [
            log2_bucket(t.detect_us),
            log2_bucket(t.agree_us),
            log2_bucket(t.blackout_us),
            log2_bucket(t.switch_us),
            log2_bucket(t.settle_us),
        ];
        out.insert(digest64(&[
            b"fault",
            FaultVariant::of(f).label().as_bytes(),
            &[i as u8, n],
            &buckets,
        ]));
    }
    // The run-level element folds in convergence and the bucketed global
    // window, so a fault-free run still contributes exactly one element.
    out.insert(digest64(&[
        b"run",
        sched.label().as_bytes(),
        &[
            log2_bucket(report.recovery.bad_window().as_micros()),
            report.converged as u8,
        ],
    ]));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{plan_cells, CampaignConfig};
    use btr_model::{NodeId, Time};

    fn record(slack_us: i64, near: u64, sup: u64, conv: u32, n_faults: u8) -> RunRecord {
        RunRecord {
            run_idx: 0,
            cell_idx: 0,
            schedule_id: 0,
            sim_seed: 1,
            label: "crash".into(),
            n_faults,
            admissible: true,
            recovery_us: 0,
            slack_us,
            bad_outputs: 0,
            total_outputs: 100,
            converged: true,
            near_misses: near,
            suppressed: sup,
            convictions: conv,
            violations: Vec::new(),
        }
    }

    #[test]
    fn tighter_slack_scores_higher_and_violations_saturate() {
        let fat = base_score(&record(900_000, 0, 0, 1, 1));
        let tight = base_score(&record(20_000, 0, 0, 1, 1));
        let blown = base_score(&record(-5_000, 0, 0, 1, 1));
        assert!(tight > fat, "{tight} vs {fat}");
        assert!(blown >= tight);
        assert_eq!(blown, SLACK_SATURATION);
    }

    #[test]
    fn evidence_and_excess_convictions_add_points() {
        let base = base_score(&record(500_000, 0, 0, 1, 1));
        let near = base_score(&record(500_000, 3, 10, 1, 1));
        assert_eq!(near - base, 3 * NEAR_MISS_PTS + 10 * SUPPRESSED_PTS);
        let excess = base_score(&record(500_000, 0, 0, 3, 1));
        assert_eq!(excess - base, 2 * EXCESS_CONVICTION_PTS);
    }

    #[test]
    fn log_buckets_collapse_jitter() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(1500), log2_bucket(1900));
        assert_ne!(log2_bucket(1000), log2_bucket(5000));
    }

    #[test]
    fn signatures_are_deterministic_and_shape_sensitive() {
        let cfg = CampaignConfig {
            combos: true,
            cells: crate::grid::fuzz_grid(),
            ..CampaignConfig::new(5, 4, 1)
        };
        let cells = plan_cells(&cfg).expect("plans");
        let cell = &cells[0];
        let sched = FaultSchedule {
            id: 0,
            scenario: btr_core::FaultScenario {
                faults: vec![FaultVariant::CRASH.inject(NodeId(2), Time::from_millis(52))],
            },
        };
        let (report_a, rec_a) = cell.system.run_observed(&sched.scenario, cell.horizon, 7);
        let (report_b, rec_b) = cell.system.run_observed(&sched.scenario, cell.horizon, 7);
        let sig_a = signature(&sched, &report_a, rec_a.marks(), cell.spec.r_bound);
        let sig_b = signature(&sched, &report_b, rec_b.marks(), cell.spec.r_bound);
        assert_eq!(sig_a, sig_b, "signature must be a pure function of the run");
        assert_eq!(sig_a.len(), 2, "one fault element + one run element");

        // A different variant on the same node at the same instant is a
        // different shape.
        let sched2 = FaultSchedule {
            id: 0,
            scenario: btr_core::FaultScenario {
                faults: vec![FaultVariant::OMISSION.inject(NodeId(2), Time::from_millis(52))],
            },
        };
        let (report_c, rec_c) = cell.system.run_observed(&sched2.scenario, cell.horizon, 7);
        let sig_c = signature(&sched2, &report_c, rec_c.marks(), cell.spec.r_bound);
        assert_ne!(sig_a, sig_c);
    }
}
