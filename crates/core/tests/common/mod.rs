//! The fleet held to the simulator: a paced run compared with the
//! simulator's run of the same world. Shared by `tests/live.rs`, which
//! runs the planned system's own behaviours through `run_live`, and the
//! driver's unit tests (`supervisor::tests`), which also run behaviours
//! `run_live` does not build.

use btr_core::supervisor::{run_live, EventKind, LiveConfig, LiveReport, RuntimeEvent};
use btr_core::{judge_world, BtrSystem, FaultScenario};
use btr_model::{Duration, FaultKind, NodeId, Time, Topology};
use btr_obs::{ObsRecorder, Phase};
use btr_planner::PlannerConfig;
use btr_sim::{LogicalTrace, World};
use std::collections::BTreeSet;

pub(crate) const SEED: u64 = 7;

/// Unpaced: at 0.01 wall-µs per logical-µs the worker never waits for
/// the wall, and the world's own order alone orders the run.
pub(crate) const UNPACED: f64 = 0.01;

/// Slower than the wall: the worker waits out nearly every instant.
pub(crate) const SLOW: f64 = 2.0;

/// The avionics workload planned on nine nodes of `topo`, f = 1.
pub(crate) fn system_on(topo: Topology) -> BtrSystem {
    let workload = btr_workload::generators::avionics(9);
    let mut cfg = PlannerConfig::new(1, Duration::from_millis(150));
    cfg.admit_best_effort = true;
    BtrSystem::plan(workload, topo, cfg).expect("plannable")
}

pub(crate) fn bus9() -> BtrSystem {
    system_on(Topology::bus(9, 100_000, Duration(5)))
}

pub(crate) fn mesh9() -> BtrSystem {
    system_on(Topology::mesh(3, 3, 100_000, Duration(5)))
}

pub(crate) fn live_cfg(pace: f64) -> LiveConfig {
    let mut cfg = LiveConfig::new(SEED);
    cfg.pace = pace;
    // A debug build steps the protocol's crypto an order of magnitude
    // slower than a release build: room before a healthy run overruns.
    cfg.join_grace = std::time::Duration::from_secs(10);
    cfg
}

/// The pacer's contract: no event before its paced instant (`Finished`
/// is stamped at the horizon when the queue ran dry before it).
pub(crate) fn assert_paced(name: &str, live: &LiveReport, pace: f64) {
    for e in live.events.iter().filter(|e| e.kind != EventKind::Finished) {
        let due = (e.logical.as_micros() as f64 * pace) as u64;
        assert!(e.wall_us + 1 >= due, "{name}: {e:?} before wall {due} µs");
    }
}

/// The instants of `node`'s events of `kind`.
pub(crate) fn instants(live: &LiveReport, node: NodeId, kind: EventKind) -> Vec<Time> {
    let of = live
        .events
        .iter()
        .filter(|e| e.node == node && e.kind == kind);
    of.map(|e| e.logical).collect()
}

/// Run `scenario` on `sys`'s fleet through `run_live` under `cfg` and
/// hold it to the simulator's run of `build_world`'s world.
pub(crate) fn assert_live_matches(
    name: &str,
    sys: &BtrSystem,
    scenario: &FaultScenario,
    horizon: Duration,
    cfg: &LiveConfig,
) -> LiveReport {
    let live = run_live(sys, scenario, horizon, cfg);
    let world = sys.build_world(scenario, SEED);
    assert_matches(name, sys, scenario, horizon, cfg, world, &live);
    live
}

/// Hold `live`, a run of `scenario` on `sys`'s fleet under `cfg`, to the
/// simulator's run of `world` (built, not started): the trace, the rows,
/// the judged recovery, the phase marks, and what the driver counts of
/// the world's steps. Returns the simulator's trace.
pub(crate) fn assert_matches(
    name: &str,
    sys: &BtrSystem,
    scenario: &FaultScenario,
    horizon: Duration,
    cfg: &LiveConfig,
    mut world: World,
    live: &LiveReport,
) -> LogicalTrace {
    world.set_recorder(Box::new(ObsRecorder::new()));
    world.start();
    world.run_until(Time::ZERO + horizon + sys.grace());
    // The shed set moves only the verdicts; the recovery below is
    // judged by `BtrSystem::run`'s pipeline on both sides.
    let sim = judge_world(sys.workload(), &BTreeSet::new(), scenario, horizon, &world);
    let sim_recovery = sys.judge_actuations(scenario, horizon, world.actuations());
    let reference = world.logical_trace();
    let sim_marks = world.take_obs().marks().to_vec();

    let name = format!("{name} at pace {}", cfg.pace);
    assert!(
        live.healthy(),
        "{name}: {:?} {:?}",
        live.panics,
        live.deadline_overruns
    );
    assert!(!reference.is_empty(), "{name}: nothing actuated");
    assert_eq!(
        live.trace.digest(),
        reference.digest(),
        "{name}: {:?}",
        live.trace
            .first_divergence(&reference, ["live", "simulator"])
    );
    assert_eq!(live.node_stats, sim.node_stats, "{name}: node stats");
    assert_eq!(live.converged, sim.converged, "{name}: convergence");
    let judged = sys.judge_actuations(scenario, horizon, &live.trace.events);
    assert_eq!(judged.recovery, sim_recovery.recovery, "{name}: recovery");
    let marks = if cfg.obs { &sim_marks[..] } else { &[] };
    assert_eq!(live.phase_marks, marks, "{name}: phase marks");
    assert_eq!(live.drops.sent, sim.metrics.msgs_sent, "{name}: sends");
    assert_eq!(live.timer_lag.count(), sim.metrics.timers, "{name}: timers");
    // A node's switch completes where it marks the switch for its faults.
    let switch = |e: &&RuntimeEvent| matches!(e.kind, EventKind::SwitchCompleted { .. });
    let switches = live
        .events
        .iter()
        .filter(switch)
        .map(|e| (e.node, e.logical));
    let marked = sim_marks
        .iter()
        .filter(|m| m.phase == Phase::SwitchCompleted);
    let marked: BTreeSet<_> = marked.map(|m| (m.observer, m.at)).collect();
    assert_eq!(
        switches.collect::<BTreeSet<_>>(),
        marked,
        "{name}: switches"
    );
    let nodes = (0..sys.topology().node_count() as u32).map(NodeId);
    for node in nodes {
        let fault = scenario.fault_of(node);
        let crash = fault.filter(|f| f.kind == FaultKind::Crash).map(|f| f.at);
        assert_eq!(
            instants(live, node, EventKind::Started),
            [Time::ZERO],
            "{name}"
        );
        let crashed = instants(live, node, EventKind::Crashed);
        assert_eq!(crashed, Vec::from_iter(crash), "{name}: {node} crashed");
        let finished = instants(live, node, EventKind::Finished);
        assert_eq!(
            finished.len(),
            usize::from(crash.is_none()),
            "{name}: {node}"
        );
    }
    assert_paced(&name, live, cfg.pace);
    reference
}
