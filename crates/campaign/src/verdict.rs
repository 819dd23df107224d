//! Oracle scoring: turn one run's [`RunReport`] into campaign verdicts.
//!
//! A run *violates* when it breaks one of the paper's checkable claims:
//!
//! * **R-bound (Definition 3.1).** Bad outputs may only occur in the
//!   union of `[T_i, T_i + R)` over the injected manifestation times, so
//!   the last bad output must land by `last activation + R`.
//! * **Unconditional pre-fault correctness.** No output may go bad
//!   before the first fault manifests.
//! * **Criticality-ordered shedding.** The degraded plan the strategy
//!   prescribes for the injected pattern must never shed a sink while
//!   keeping a *less* critical one.
//!
//! Runs that hit the simulator event cap are violations too — a run the
//! judge could not finish proves nothing.

use crate::schedule::FaultSchedule;
use btr_core::{BtrSystem, FaultScenario, NodeRow, RecoveryStats, RunReport};
use btr_model::{Duration, FaultSet, TaskId};

/// One broken claim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The bad-output window outlived `last activation + R`.
    RBoundExceeded {
        /// Measured window: last bad instant minus first manifestation (µs).
        window_us: u64,
        /// Allowed: (last activation - first manifestation) + R (µs).
        budget_us: u64,
    },
    /// An output went bad before any fault manifested.
    PreFaultBad {
        /// End of the first bad period (µs).
        first_bad_us: u64,
        /// First manifestation (µs).
        fault_at_us: u64,
    },
    /// The prescribed degraded plan sheds a sink while keeping a less
    /// critical one.
    ShedInversion {
        /// The higher-criticality sink that was shed.
        shed: TaskId,
        /// The lower-criticality sink that was kept.
        kept: TaskId,
    },
    /// The run hit the simulator event cap before the horizon.
    Truncated,
}

impl Violation {
    /// Stable kind tag for reports.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Violation::RBoundExceeded { .. } => "r-bound",
            Violation::PreFaultBad { .. } => "pre-fault-bad",
            Violation::ShedInversion { .. } => "shed-inversion",
            Violation::Truncated => "truncated",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::RBoundExceeded {
                window_us,
                budget_us,
            } => write!(
                f,
                "R-bound exceeded: bad window {:.1} ms > budget {:.1} ms",
                *window_us as f64 / 1e3,
                *budget_us as f64 / 1e3
            ),
            Violation::PreFaultBad {
                first_bad_us,
                fault_at_us,
            } => write!(
                f,
                "output bad at {:.1} ms before the fault at {:.1} ms",
                *first_bad_us as f64 / 1e3,
                *fault_at_us as f64 / 1e3
            ),
            Violation::ShedInversion { shed, kept } => {
                write!(f, "plan sheds sink {shed} but keeps less-critical {kept}")
            }
            Violation::Truncated => write!(f, "run hit the simulator event cap"),
        }
    }
}

/// A finished run as the judge reads it: what the simulator's
/// [`RunReport`] and the live fleet's report (with
/// [`BtrSystem::judge_actuations`] over its trace) can both hand over.
#[derive(Debug, Clone, Copy)]
pub struct Finished<'a> {
    /// The judged bad-output window.
    pub recovery: &'a RecoveryStats,
    /// The correct nodes' end states.
    pub node_stats: &'a [NodeRow],
    /// All correct nodes ended on identical fault sets and plans.
    pub converged: bool,
    /// The run was cut short (simulator event cap).
    pub truncated: bool,
}

impl<'a> From<&'a RunReport> for Finished<'a> {
    fn from(report: &'a RunReport) -> Self {
        Finished {
            recovery: &report.recovery,
            node_stats: &report.node_stats,
            converged: report.converged,
            truncated: report.truncated,
        }
    }
}

/// The recovery budget a schedule has, counted from its first
/// manifestation: a sequential schedule may legitimately stay degraded
/// until R past its *last* fault, so `(last − first) + R`; `R` when
/// fault-free. The R-bound verdict and the record's slack both read it
/// here.
pub(crate) fn budget(scenario: &FaultScenario, r: Duration) -> Duration {
    let ats = || scenario.faults.iter().map(|f| f.at);
    match (ats().min(), ats().max()) {
        (Some(first), Some(last)) => (last - first) + r,
        _ => r,
    }
}

/// Score one simulator run against the cell's claims.
pub fn score(
    sys: &BtrSystem,
    schedule: &FaultSchedule,
    report: &RunReport,
    slack: Duration,
) -> Vec<Violation> {
    violations(sys, &schedule.scenario, report.into(), slack)
}

/// Score one finished run against the cell's claims.
///
/// `slack` widens the R check to absorb judging granularity (bad windows
/// are measured at period-end resolution); zero is correct for the
/// default grids because measured clean-run windows sit far below R.
pub(crate) fn violations(
    sys: &BtrSystem,
    scenario: &FaultScenario,
    run: Finished<'_>,
    slack: Duration,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if run.truncated {
        out.push(Violation::Truncated);
    }
    if let Some(first_at) = scenario.first_manifestation() {
        if let Some(first_bad) = run.recovery.first_bad {
            // `first_bad` is a period end: a bad period that closed at or
            // before the first manifestation was entirely fault-free.
            if first_bad <= first_at {
                out.push(Violation::PreFaultBad {
                    first_bad_us: first_bad.as_micros(),
                    fault_at_us: first_at.as_micros(),
                });
            }
        }
        if let Some(last_bad) = run.recovery.last_bad {
            let budget = budget(scenario, sys.strategy().r_bound);
            if last_bad > first_at + budget + slack {
                out.push(Violation::RBoundExceeded {
                    window_us: last_bad.saturating_since(first_at).as_micros(),
                    budget_us: budget.as_micros(),
                });
            }
        }
        out.extend(shed_inversions(sys, scenario.compromised()));
    } else if run.recovery.bad_outputs > 0 {
        // Fault-free runs must be perfect; report the earliest bad slot.
        let first_bad = run.recovery.first_bad.expect("bad outputs imply a window");
        out.push(Violation::PreFaultBad {
            first_bad_us: first_bad.as_micros(),
            fault_at_us: 0,
        });
    }
    out
}

/// Tasks that are *structurally unservable* under a fault set: sources
/// and sinks are pinned to physical nodes (sensors and actuators cannot
/// migrate), so a pinned task on a compromised node is gone no matter
/// what the planner chooses, and everything that transitively loses all
/// of its inputs goes with it. Shedding these is forced, not a choice,
/// so they are exempt from the criticality-ordering check.
fn forced_shed(sys: &BtrSystem, injected: &FaultSet) -> std::collections::BTreeSet<TaskId> {
    let w = sys.workload();
    let mut dead = std::collections::BTreeSet::new();
    // Walk in dataflow order (id order is not guaranteed topological),
    // so starvation propagates through the whole chain in one pass.
    for &id in w.topo_order() {
        let t = w.task(id);
        let pinned_dead = t.kind.pinned_node().is_some_and(|n| injected.contains(n));
        let starved = !t.inputs.is_empty() && t.inputs.iter().all(|u| dead.contains(u));
        if pinned_dead || starved {
            dead.insert(id);
        }
    }
    dead
}

/// Check the prescribed degraded plan for criticality-inverted shedding.
fn shed_inversions(sys: &BtrSystem, compromised: Vec<btr_model::NodeId>) -> Vec<Violation> {
    if compromised.is_empty() {
        return Vec::new();
    }
    let injected: FaultSet = compromised.into_iter().collect();
    let plan = sys.strategy().plan(sys.strategy().best_plan_for(&injected));
    let forced = forced_shed(sys, &injected);
    let mut shed_sinks = Vec::new();
    let mut kept_sinks = Vec::new();
    for sink in sys.workload().sinks() {
        if plan.shed.contains(&sink.id) {
            if !forced.contains(&sink.id) {
                shed_sinks.push(sink);
            }
        } else {
            kept_sinks.push(sink);
        }
    }
    let mut out = Vec::new();
    for shed in &shed_sinks {
        if let Some(kept) = kept_sinks
            .iter()
            .filter(|k| k.criticality < shed.criticality)
            .min_by_key(|k| k.criticality)
        {
            out.push(Violation::ShedInversion {
                shed: shed.id,
                kept: kept.id,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FaultVariant;
    use btr_model::{NodeId, Time, Topology};
    use btr_planner::PlannerConfig;

    fn system() -> BtrSystem {
        let workload = btr_model::workload::generators::avionics(9);
        let topo = Topology::bus(9, 100_000, Duration(5));
        let mut cfg = PlannerConfig::new(1, Duration::from_millis(150));
        cfg.admit_best_effort = true;
        BtrSystem::plan(workload, topo, cfg).expect("plannable")
    }

    fn schedule(faults: Vec<btr_core::InjectedFault>) -> FaultSchedule {
        FaultSchedule {
            id: 0,
            scenario: FaultScenario { faults },
        }
    }

    #[test]
    fn clean_crash_run_passes() {
        let sys = system();
        let s = schedule(vec![
            FaultVariant::CRASH.inject(NodeId(6), Time::from_millis(42))
        ]);
        let report = sys.run(&s.scenario, Duration::from_millis(400), 3);
        assert_eq!(score(&sys, &s, &report, Duration::ZERO), Vec::new());
    }

    #[test]
    fn fault_free_run_passes() {
        let sys = system();
        let s = schedule(vec![]);
        let report = sys.run(&s.scenario, Duration::from_millis(200), 3);
        assert_eq!(score(&sys, &s, &report, Duration::ZERO), Vec::new());
    }

    #[test]
    fn equivocation_now_recovers_within_r() {
        // PR 2's campaign found this exact run violating the R-bound:
        // equivocation by node 0 never produced conflicting-signature
        // evidence (single-consumer victim), so outputs stayed wrong to
        // the horizon. With consumers echoing accepted outputs to the
        // task's checker, the conflict is proven and the run is clean.
        let sys = system();
        let s = schedule(vec![
            FaultVariant::EQUIVOCATION.inject(NodeId(0), Time::from_millis(52))
        ]);
        let report = sys.run(&s.scenario, Duration::from_millis(500), 7);
        assert_eq!(score(&sys, &s, &report, Duration::ZERO), Vec::new());
    }

    #[test]
    fn unrecovered_run_scores_an_r_bound_violation() {
        // The oracle's R-bound arm, exercised against a bound the run
        // genuinely cannot meet: crash detection alone takes several
        // periods, so R = 1 ms is unachievable and must be flagged.
        let workload = btr_model::workload::generators::avionics(9);
        let topo = Topology::bus(9, 100_000, Duration(5));
        let mut cfg = PlannerConfig::new(1, Duration::from_millis(1));
        cfg.admit_best_effort = true;
        let sys = BtrSystem::plan(workload, topo, cfg).expect("plannable");
        let s = schedule(vec![
            FaultVariant::CRASH.inject(NodeId(6), Time::from_millis(42))
        ]);
        let report = sys.run(&s.scenario, Duration::from_millis(400), 3);
        let v = score(&sys, &s, &report, Duration::ZERO);
        assert!(
            v.iter().any(|v| v.kind() == "r-bound"),
            "expected an R-bound violation, got {v:?}"
        );
    }

    #[test]
    fn truncated_runs_are_flagged() {
        let sys = system().with_max_events(500);
        let s = schedule(vec![
            FaultVariant::CRASH.inject(NodeId(6), Time::from_millis(42))
        ]);
        let report = sys.run(&s.scenario, Duration::from_millis(400), 3);
        assert!(report.truncated);
        let v = score(&sys, &s, &report, Duration::ZERO);
        assert!(v.contains(&Violation::Truncated), "{v:?}");
    }

    #[test]
    fn default_plans_shed_in_criticality_order() {
        let sys = system();
        for n in 0..9u32 {
            assert_eq!(shed_inversions(&sys, vec![NodeId(n)]), Vec::new());
        }
    }
}
