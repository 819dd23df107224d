//! Observability inertness on the simulator substrate.
//!
//! The obs layer's contract is that it can never change a run: the
//! recorder receives copies of facts out-of-band and nothing flows
//! back. These tests pin the contract end to end — a full BTR stack
//! with an injected crash runs once bare and once with a collecting
//! recorder installed, and the logical trace digests and `SimMetrics`
//! must be bit-identical. On top of inertness, the recorder must have
//! actually *seen* the recovery: phase marks for every boundary, and a
//! folded timeline whose five phases partition the judged window.

use btr_core::{BtrSystem, FaultScenario};
use btr_model::{Duration, FaultKind, NodeId, Time, Topology};
use btr_obs::{Counter, ObsRecorder, Phase, RecoveryTimeline, Subsystem};
use btr_planner::PlannerConfig;
use proptest::prelude::*;

fn pinned_system(nodes: usize) -> BtrSystem {
    let workload = btr_model::workload::generators::avionics(nodes);
    let topo = Topology::bus(nodes, 100_000, Duration(5));
    let mut cfg = PlannerConfig::new(1, Duration::from_millis(150));
    cfg.admit_best_effort = true;
    BtrSystem::plan(workload, topo, cfg).expect("pinned platform plans")
}

/// Run a scenario to `horizon`, optionally observed; return the trace
/// digest, the metrics, and the recorder (when installed).
fn run(
    sys: &BtrSystem,
    scenario: &FaultScenario,
    horizon: Duration,
    seed: u64,
    observed: bool,
) -> (u64, btr_sim::SimMetrics, Option<ObsRecorder>) {
    let mut world = sys.build_world(scenario, seed);
    if observed {
        world.set_recorder(Box::new(ObsRecorder::new()));
    }
    world.start();
    world.run_until(Time::ZERO + horizon + sys.grace());
    let digest = world.logical_trace().digest();
    let metrics = *world.metrics();
    (digest, metrics, observed.then(|| world.take_obs()))
}

#[test]
fn obs_on_and_off_are_bit_identical_with_crash() {
    let sys = pinned_system(9);
    let scenario = FaultScenario::single(NodeId(6), FaultKind::Crash, Time::from_millis(42));
    let horizon = Duration::from_millis(400);
    let (d_off, m_off, _) = run(&sys, &scenario, horizon, 7, false);
    let (d_on, m_on, rec) = run(&sys, &scenario, horizon, 7, true);
    assert_eq!(d_off, d_on, "recorder changed the logical trace");
    assert_eq!(m_off, m_on, "recorder changed the metrics");
    let rec = rec.unwrap();
    assert!(rec.counter(Counter::Events) > 0);
    assert_eq!(rec.counter(Counter::Events), m_on.events);
    assert_eq!(rec.counter(Counter::Actuations), m_on.actuations);
    assert_eq!(rec.counter(Counter::Sends), m_on.msgs_sent);
    assert_eq!(rec.counter(Counter::Delivers), m_on.msgs_delivered);
    // The crash is control-plane work: the profile counts it.
    assert!(rec.subsystem_profile().count(Subsystem::ModeSwitch) > 0);
}

#[test]
fn recorder_sees_all_phase_boundaries_and_timeline_partitions() {
    let sys = pinned_system(9);
    let subject = NodeId(6);
    let fault_at = Time::from_millis(42);
    let scenario = FaultScenario::single(subject, FaultKind::Crash, fault_at);
    let horizon = Duration::from_millis(400);
    let (_, _, rec) = run(&sys, &scenario, horizon, 7, true);
    let rec = rec.unwrap();

    let has = |p: Phase| {
        rec.marks()
            .iter()
            .any(|m| m.phase == p && m.subject == subject)
    };
    assert!(has(Phase::FaultActive), "no activation mark");
    assert!(has(Phase::EvidenceObserved), "no evidence mark");
    assert!(has(Phase::Attributed), "no attribution mark");
    assert!(has(Phase::SwitchCompleted), "no switch mark");

    // Replay the actuations through the oracle and fold the timeline:
    // the five phases must partition the judged bad window.
    let mut world = sys.build_world(&scenario, 7);
    world.start();
    world.run_until(Time::ZERO + horizon + sys.grace());
    let judgment = sys.judge_actuations(&scenario, horizon, world.actuations());
    let recovery = judgment.recovery.bad_window();
    assert!(recovery > Duration::ZERO, "crash should cost a window");
    let t = RecoveryTimeline::fold(
        subject,
        fault_at,
        recovery,
        sys.strategy().r_bound,
        rec.marks(),
    );
    assert_eq!(t.phases_sum(), t.recovery_us);
    assert_eq!(t.recovery_us, recovery.as_micros());
    assert!(t.slack_to_r_us > 0, "pinned crash recovers within R");
    assert!(t.detect_us > 0, "detection takes at least a heartbeat gap");
}

/// Wall-clock sampling is the one obs feature that reads a real clock,
/// so it gets its own inertness pin: profiling on must leave the
/// logical digest and metrics bit-identical to a bare run, while still
/// charging nonzero wall time to the subsystem ledger, and no more than
/// the run took: scopes charge self time only, so they never overlap.
#[test]
fn wall_profiling_is_inert() {
    let sys = pinned_system(9);
    let scenario = FaultScenario::single(NodeId(6), FaultKind::Crash, Time::from_millis(42));
    let horizon = Duration::from_millis(400);
    let (d_off, m_off, _) = run(&sys, &scenario, horizon, 7, false);

    let mut world = sys.build_world(&scenario, 7);
    world.set_recorder(Box::new(ObsRecorder::new()));
    world.set_wall_profiling(true);
    let started = std::time::Instant::now();
    world.start();
    world.run_until(Time::ZERO + horizon + sys.grace());
    let elapsed_ns = started.elapsed().as_nanos();
    let d_on = world.logical_trace().digest();
    let m_on = *world.metrics();
    let rec = world.take_obs();

    assert_eq!(d_off, d_on, "wall profiling changed the logical trace");
    assert_eq!(m_off, m_on, "wall profiling changed the metrics");
    let prof = rec.subsystem_profile();
    assert!(prof.total_count() > 0, "profiling saw no events");
    assert!(prof.total_wall_ns() > 0, "wall sampling charged nothing");
    assert!(
        u128::from(prof.total_wall_ns()) <= elapsed_ns,
        "scoped wall {} ns exceeds the run's {elapsed_ns} ns",
        prof.total_wall_ns()
    );
}

proptest! {
    // Each case plans a platform and runs a full simulation, so keep
    // the case count far below the pure-function props in btr-obs.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On *any* single-fault scenario the recorder's counters must
    /// reconcile with `SimMetrics` exactly: every accepted send is one
    /// `Sends`, every delivery one `Delivers`, every dispatched event,
    /// timer and actuation one of its own, and the profile's `Dispatch`
    /// one per delivery and per timer. The pinned crash above checks
    /// one scenario; here the whole fault-kind space.
    #[test]
    fn prop_counters_reconcile_with_metrics(
        nodes in 4usize..10,
        kind_idx in 0usize..FaultKind::ALL.len(),
        node in 0u32..10,
        at_ms in 1u64..200,
        seed in 0u64..64,
    ) {
        let sys = pinned_system(nodes);
        let scenario = FaultScenario::single(
            NodeId(node % nodes as u32),
            FaultKind::ALL[kind_idx],
            Time::from_millis(at_ms),
        );
        let horizon = Duration::from_millis(250);
        let (_, m, rec) = run(&sys, &scenario, horizon, seed, true);
        let rec = rec.unwrap();
        prop_assert_eq!(rec.counter(Counter::Sends), m.msgs_sent);
        prop_assert_eq!(rec.counter(Counter::Delivers), m.msgs_delivered);
        prop_assert_eq!(rec.counter(Counter::Events), m.events);
        prop_assert_eq!(rec.counter(Counter::Timers), m.timers);
        prop_assert_eq!(rec.counter(Counter::Actuations), m.actuations);
        prop_assert_eq!(
            rec.subsystem_profile().count(Subsystem::Dispatch),
            m.msgs_delivered + m.timers
        );
    }
}

#[test]
fn obs_on_and_off_are_bit_identical_fault_free() {
    let sys = pinned_system(5);
    let scenario = FaultScenario::none();
    let horizon = Duration::from_millis(120);
    let (d_off, m_off, _) = run(&sys, &scenario, horizon, 7, false);
    let (d_on, m_on, rec) = run(&sys, &scenario, horizon, 7, true);
    assert_eq!(d_off, d_on);
    assert_eq!(m_off, m_on);
    let rec = rec.unwrap();
    assert!(rec.marks().is_empty(), "no faults, no phase marks");
    assert!(rec.counter(Counter::Marks) == 0);
}
