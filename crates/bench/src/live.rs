//! Live-runtime measurement: pinned fault scenarios on the live fleet,
//! with the simulator as trace oracle.
//!
//! Each scenario runs twice — once on the discrete-event `World`, once
//! on the live fleet via [`run_live`] — and the two canonical logical
//! actuation traces are compared by digest. On top of the trace gate,
//! the live run contributes what the simulator cannot: *wall-clock*
//! recovery latency, measured from the fault's paced activation instant
//! to the last mode-switch completion, held against the planned R bound
//! (scaled by the pace) plus a scheduling-jitter allowance.

use btr_core::supervisor::{run_live, EventKind, LiveConfig, LiveReport};
use btr_core::{BtrSystem, FaultScenario};
use btr_model::{Duration, FaultKind, NodeId, Time, Topology};
use btr_obs::{ObsRecorder, PhaseMark, RecoveryTimeline, TraceBuilder};
use btr_planner::PlannerConfig;

/// Node count for the full pinned scenarios (the bus of the driver's
/// tests in `btr_core::supervisor`).
pub(crate) const LIVE_NODES: usize = 9;
/// Node count for the CI smoke pass.
pub(crate) const LIVE_SMOKE_NODES: usize = 5;
/// Pinned seed (keys, skews, RNG streams, loss — both substrates).
pub const LIVE_SEED: u64 = 7;
/// Wall-µs per logical-µs for the full run: real time, so the measured
/// recovery latencies are the paper's wall-clock seconds.
pub const LIVE_PACE: f64 = 1.0;
/// Smoke pace: twice real time (halves the CI wall budget; logical
/// outcomes are pace-independent, which the trace gate enforces).
pub const LIVE_SMOKE_PACE: f64 = 0.5;
/// Wall-clock slack added to the paced R bound before the wall gate
/// fires: scheduling jitter on a loaded box delays dispatch past
/// `epoch + pace·t` without moving any logical outcome.
pub const LIVE_WALL_SLACK_US: u64 = 50_000;

/// One pinned live scenario.
#[derive(Debug, Clone)]
pub struct LiveScenario {
    /// Scenario name (stable; keys the JSON section).
    pub name: &'static str,
    /// Platform size (avionics workload on a bus).
    pub nodes: usize,
    /// Judging horizon.
    pub(crate) horizon: Duration,
    /// The injected fault, if any.
    pub(crate) fault: Option<(NodeId, FaultKind, Time)>,
    /// Downtime before a crashed node restarts (ZERO = stays down).
    pub(crate) restart_after: Duration,
}

/// The pinned scenario set. The smoke set is small and short (CI runs
/// it under `timeout`); the full set adds restart and a byzantine
/// manifestation.
pub fn pinned_scenarios(smoke: bool) -> Vec<LiveScenario> {
    if smoke {
        return vec![
            LiveScenario {
                name: "fault-free",
                nodes: LIVE_SMOKE_NODES,
                horizon: Duration::from_millis(120),
                fault: None,
                restart_after: Duration::ZERO,
            },
            LiveScenario {
                name: "crash",
                nodes: LIVE_SMOKE_NODES,
                horizon: Duration::from_millis(300),
                fault: Some((NodeId(3), FaultKind::Crash, Time::from_millis(42))),
                restart_after: Duration::ZERO,
            },
        ];
    }
    vec![
        LiveScenario {
            name: "fault-free",
            nodes: LIVE_NODES,
            horizon: Duration::from_millis(200),
            fault: None,
            restart_after: Duration::ZERO,
        },
        LiveScenario {
            name: "crash",
            nodes: LIVE_NODES,
            horizon: Duration::from_millis(400),
            fault: Some((NodeId(6), FaultKind::Crash, Time::from_millis(42))),
            restart_after: Duration::ZERO,
        },
        LiveScenario {
            name: "crash-restart",
            nodes: LIVE_NODES,
            horizon: Duration::from_millis(400),
            fault: Some((NodeId(6), FaultKind::Crash, Time::from_millis(42))),
            restart_after: Duration::from_millis(120),
        },
        LiveScenario {
            name: "omission",
            nodes: LIVE_NODES,
            horizon: Duration::from_millis(400),
            fault: Some((NodeId(3), FaultKind::Omission, Time::from_millis(42))),
            restart_after: Duration::ZERO,
        },
    ]
}

/// Plan the pinned live platform: the avionics workload on an n-node
/// bus, f = 1, R = 150 ms, best-effort tasks admitted.
pub fn live_system(nodes: usize) -> BtrSystem {
    let workload = btr_workload::generators::avionics(nodes);
    let topo = Topology::bus(nodes, 100_000, Duration(5));
    let mut cfg = PlannerConfig::new(1, Duration::from_millis(150));
    cfg.admit_best_effort = true;
    BtrSystem::plan(workload, topo, cfg).expect("pinned live platform plans")
}

/// One measured live scenario.
#[derive(Debug, Clone)]
pub struct LiveMeasurement {
    /// Scenario name.
    pub name: &'static str,
    /// Platform size.
    pub nodes: usize,
    /// Judging horizon (µs).
    pub horizon_us: u64,
    /// The injected fault as `variant@at_us@n<node>` ("" = fault-free).
    pub fault: String,
    /// Live trace digest == simulator trace digest.
    pub trace_match: bool,
    /// Actuations in the live trace.
    pub actuations: usize,
    /// No panics, no deadline overruns.
    pub healthy: bool,
    /// Caught behaviour panics.
    pub panics: usize,
    /// Nodes that missed the wall deadline and were detached.
    pub overruns: usize,
    /// Correct live nodes agree on fault set and plan.
    pub converged: bool,
    /// Judged logical bad-output window of the live trace (µs).
    pub recovery_us: u64,
    /// The planned R bound (µs).
    pub r_bound_us: u64,
    /// `recovery_us <= r_bound_us` (always true when fault-free).
    pub within_r: bool,
    /// Wall µs (since run epoch) of the fault's paced activation.
    pub fault_wall_us: Option<u64>,
    /// Wall µs of the last mode-switch completion.
    pub switch_wall_us: Option<u64>,
    /// Measured wall-clock recovery latency (switch − activation).
    pub recovery_wall_us: Option<u64>,
    /// Wall recovery within `pace·R` plus the jitter allowance.
    pub within_r_wall: bool,
    /// Messages that entered the live network.
    pub msgs_sent: u64,
    /// Median wall lateness of timer dispatches past their paced
    /// instant (µs; 0 when no timers fired).
    pub timer_lag_p50_us: u64,
    /// p95 wall timer lateness (µs).
    pub timer_lag_p95_us: u64,
    /// p99 wall lateness of timer dispatches past their paced instant
    /// (µs; 0 when no timers fired).
    pub timer_lag_p99_us: u64,
    /// The per-fault recovery timeline folded from the live phase
    /// marks: five phase durations that partition `recovery_us` exactly
    /// (None when fault-free).
    pub timeline: Option<RecoveryTimeline>,
    /// Wall time of the whole live run (ms).
    pub wall_ms: u64,
}

impl LiveMeasurement {
    /// The gate `harness live` exits non-zero on.
    pub fn ok(&self) -> bool {
        // The folded timeline must partition the judged recovery window
        // exactly — five phase durations summing to the end-to-end
        // number the oracle reports.
        let timeline_ok = self
            .timeline
            .as_ref()
            .is_none_or(|t| t.phases_sum() == t.recovery_us && t.recovery_us == self.recovery_us);
        self.healthy
            && self.converged
            && self.trace_match
            && self.within_r
            && self.within_r_wall
            && timeline_ok
    }
}

fn fault_label(fault: &Option<(NodeId, FaultKind, Time)>) -> String {
    match fault {
        None => String::new(),
        Some((node, kind, at)) => {
            format!("{}@{}@n{}", kind.label(), at.as_micros(), node.0)
        }
    }
}

/// Run one pinned scenario on both substrates and measure the live run
/// against the oracle and the R bound. Returns the raw [`LiveReport`]
/// (trace export) and the simulator run's recorder (phase marks,
/// latency histograms) alongside the measurement.
pub fn measure_live(
    sys: &BtrSystem,
    spec: &LiveScenario,
    seed: u64,
    pace: f64,
) -> (LiveMeasurement, LiveReport, ObsRecorder) {
    let scenario = match spec.fault {
        None => FaultScenario::none(),
        Some((node, kind, at)) => FaultScenario::single(node, kind, at),
    };
    // The simulator side of the differential: same scenario, seed and
    // horizon (the recorder is inert by contract, so the trace is the
    // one an unobserved world produces).
    let (reference, sim_rec) = sys.observed_world(&scenario, spec.horizon, seed);
    let reference = reference.logical_trace();
    let mut cfg = LiveConfig::new(seed);
    cfg.pace = pace;
    cfg.restart_after = spec.restart_after;
    let live = run_live(sys, &scenario, spec.horizon, &cfg);

    let judgment = sys.judge_actuations(&scenario, spec.horizon, &live.trace.events);
    let recovery_us = judgment.recovery.bad_window().as_micros();
    let r_bound_us = sys.strategy().r_bound.as_micros();

    let fault_wall_us = spec
        .fault
        .map(|(_, _, at)| (at.as_micros() as f64 * pace) as u64);
    let switch_wall_us = live.last_switch_wall_us();
    let recovery_wall_us = match (fault_wall_us, switch_wall_us) {
        (Some(f), Some(s)) => Some(s.saturating_sub(f)),
        _ => None,
    };
    let wall_r = (r_bound_us as f64 * pace) as u64 + LIVE_WALL_SLACK_US;
    let timeline = spec.fault.map(|(node, _, at)| {
        RecoveryTimeline::fold(
            node,
            at,
            judgment.recovery.bad_window(),
            sys.strategy().r_bound,
            &live.phase_marks,
        )
    });
    let m = LiveMeasurement {
        name: spec.name,
        nodes: spec.nodes,
        horizon_us: spec.horizon.as_micros(),
        fault: fault_label(&spec.fault),
        trace_match: live.trace.digest() == reference.digest(),
        actuations: live.trace.len(),
        healthy: live.healthy(),
        panics: live.panics.len(),
        overruns: live.deadline_overruns.len(),
        converged: live.converged,
        recovery_us,
        r_bound_us,
        within_r: recovery_us <= r_bound_us,
        fault_wall_us,
        switch_wall_us,
        recovery_wall_us,
        // A fault that produced no switch is caught by `within_r`
        // (the bad window would blow R); the wall gate only constrains
        // switches that did happen.
        within_r_wall: recovery_wall_us.is_none_or(|w| w <= wall_r),
        msgs_sent: live.drops.sent,
        timer_lag_p50_us: live.timer_lag.quantile(0.5).unwrap_or(0),
        timer_lag_p95_us: live.timer_lag.quantile(0.95).unwrap_or(0),
        timer_lag_p99_us: live.timer_lag.quantile(0.99).unwrap_or(0),
        timeline,
        wall_ms: live.wall.as_millis() as u64,
    };
    (m, live, sim_rec)
}

/// A live run as the campaign's judge reads it: the judged trace beside
/// the fleet's own end state (nothing truncates a live run).
pub fn finished<'a>(
    judgment: &'a btr_core::ActuationJudgment,
    live: &'a LiveReport,
) -> btr_campaign::Finished<'a> {
    btr_campaign::Finished {
        recovery: &judgment.recovery,
        node_stats: &live.node_stats,
        converged: live.converged,
        truncated: false,
    }
}

fn event_label(kind: &EventKind) -> String {
    match kind {
        EventKind::Started => "started".to_string(),
        EventKind::Finished => "finished".to_string(),
        EventKind::Crashed => "crashed".to_string(),
        EventKind::SwitchCompleted { count } => format!("switch#{count}"),
        EventKind::Panicked(msg) => format!("panicked: {msg}"),
    }
}

/// Export one scenario's observability onto a Chrome trace builder as
/// three process groups: the simulator's logical phase marks, the live
/// runtime's logical marks plus the folded per-fault phase spans, and
/// the live runtime's wall-clock events. Lanes (`tid`) are node ids.
pub fn export_scenario_trace(
    t: &mut TraceBuilder,
    base_pid: u32,
    name: &str,
    sim_marks: &[PhaseMark],
    live: &LiveReport,
    timeline: Option<&RecoveryTimeline>,
) {
    let sim_pid = base_pid;
    let live_pid = base_pid + 1;
    let wall_pid = base_pid + 2;
    t.process_name(sim_pid, &format!("sim:{name} (logical us)"));
    t.process_name(live_pid, &format!("live:{name} (logical us)"));
    t.process_name(wall_pid, &format!("live:{name} (wall us)"));
    for m in sim_marks {
        t.instant(
            &format!("{}:{}", m.phase.label(), m.subject),
            sim_pid,
            m.observer.0,
            m.at.as_micros(),
        );
    }
    for m in &live.phase_marks {
        t.instant(
            &format!("{}:{}", m.phase.label(), m.subject),
            live_pid,
            m.observer.0,
            m.at.as_micros(),
        );
    }
    if let Some(tl) = timeline {
        let mut ts = tl.fault_at.as_micros();
        for (label, dur) in tl.phases() {
            t.span(label, live_pid, tl.subject.0, ts, dur);
            ts += dur;
        }
    }
    for e in &live.events {
        t.instant(&event_label(&e.kind), wall_pid, e.node.0, e.wall_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_platform_plans_and_fault_free_scenario_passes() {
        // The CI smoke pass in miniature: the 5-node platform plans,
        // and its fault-free live run digest-matches the simulator.
        let specs = pinned_scenarios(true);
        let sys = live_system(specs[0].nodes);
        let (m, _, sim_rec) = measure_live(&sys, &specs[0], LIVE_SEED, LIVE_SMOKE_PACE);
        assert!(m.trace_match, "live diverged from simulator");
        assert!(m.ok(), "{m:?}");
        assert!(m.actuations > 0);
        assert!(m.fault.is_empty());
        assert!(sim_rec.lat(btr_obs::Lat::Delivery).count() > 0);
        // Every term of the gate bites on its own.
        let fails = |break_it: fn(&mut LiveMeasurement)| {
            let mut broken = m.clone();
            break_it(&mut broken);
            !broken.ok()
        };
        assert!(fails(|m| m.trace_match = false));
        assert!(fails(|m| m.within_r = false));
        assert!(fails(|m| m.within_r_wall = false));
        assert!(fails(|m| m.converged = false));
        assert!(fails(|m| m.healthy = false));
    }

    #[test]
    fn live_and_simulator_runs_fold_to_the_same_record() {
        // One judge for both substrates: on the pinned bus-9 crash and
        // omission the fleet's run folds to the simulator's record.
        use btr_campaign::{FaultSchedule, RunRecord};
        let sys = live_system(LIVE_NODES);
        let mut cfg = LiveConfig::new(LIVE_SEED);
        cfg.pace = 0.1;
        for spec in pinned_scenarios(false) {
            if !matches!(spec.name, "crash" | "omission") {
                continue;
            }
            let (node, kind, at) = spec.fault.expect("a faulted scenario");
            let sched = FaultSchedule {
                id: 0,
                scenario: FaultScenario::single(node, kind, at),
            };
            let sim = sys.run(&sched.scenario, spec.horizon, LIVE_SEED);
            let live = run_live(&sys, &sched.scenario, spec.horizon, &cfg);
            assert!(
                live.healthy(),
                "{}: panics {:?}, overruns {:?}",
                spec.name,
                live.panics,
                live.deadline_overruns
            );
            let judgment = sys.judge_actuations(&sched.scenario, spec.horizon, &live.trace.events);
            let fold = |run| RunRecord::judge(&sys, &sched, LIVE_SEED, run, Duration::ZERO);
            let (live, sim) = (fold(finished(&judgment, &live)), fold((&sim).into()));
            assert!(sim.recovery_us > 0 && sim.convictions == 1, "{sim:?}");
            assert_eq!(live, sim, "{}", spec.name);
        }
    }

    #[test]
    fn pinned_scenario_sets_are_well_formed() {
        for smoke in [false, true] {
            let specs = pinned_scenarios(smoke);
            assert!(!specs.is_empty());
            // Names are unique (they key the JSON section) and every
            // set opens with the fault-free trace gate.
            let mut names: Vec<_> = specs.iter().map(|s| s.name).collect();
            assert_eq!(specs[0].fault, None);
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), specs.len());
            for s in &specs {
                assert!(s.restart_after == Duration::ZERO || s.fault.is_some());
            }
        }
    }
}
