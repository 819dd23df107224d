//! Pinned differential tests: the simulator is the live runtime's
//! trace oracle.
//!
//! These run the same planned system on both substrates — the
//! discrete-event `World` and the live fleet — and compare canonical
//! logical actuation traces by digest. Wall-clock jitter must not leak
//! into logical outcomes; these tests are the enforcement.

use btr_core::{BtrSystem, FaultScenario, InjectedFault};
use btr_model::{Duration, FaultKind, NodeId, Time, Topology};
use btr_node::{run_live, EventKind, LiveConfig};
use btr_obs::{Phase, RecoveryTimeline};
use btr_planner::PlannerConfig;

const SEED: u64 = 7;

fn system(f: u8) -> BtrSystem {
    system_on(Topology::bus(9, 100_000, Duration(5)), f)
}

/// The avionics workload planned on nine nodes of `topo`.
fn system_on(topo: Topology, f: u8) -> BtrSystem {
    let workload = btr_workload::generators::avionics(9);
    let mut cfg = PlannerConfig::new(f, Duration::from_millis(150));
    cfg.admit_best_effort = true;
    BtrSystem::plan(workload, topo, cfg).expect("plannable")
}

fn sim_trace(
    sys: &BtrSystem,
    scenario: &FaultScenario,
    horizon: Duration,
) -> btr_sim::LogicalTrace {
    let mut world = sys.build_world(scenario, SEED);
    world.start();
    world.run_until(Time::ZERO + horizon + sys.grace());
    world.logical_trace()
}

/// Test pace: 0.5 wall-µs per logical-µs keeps a 400 ms scenario near
/// 200 ms of wall time while leaving sub-millisecond scheduling jitter
/// far inside the protocol's logical margins. Debug binaries run the
/// per-message crypto an order of magnitude slower, so they get
/// proportionally more wall room — otherwise a slow machine flags the
/// whole fleet as deadline overruns (the restart scenario, with its
/// catch-up backlog, is the first to go).
fn live_cfg() -> LiveConfig {
    let mut cfg = LiveConfig::new(SEED);
    cfg.pace = if cfg!(debug_assertions) { 4.0 } else { 0.5 };
    cfg
}

#[test]
fn fault_free_live_run_is_trace_identical_to_simulator() {
    let sys = system(1);
    let horizon = Duration::from_millis(120);
    let scenario = FaultScenario::none();
    let reference = sim_trace(&sys, &scenario, horizon);
    let live = run_live(&sys, &scenario, horizon, &live_cfg());
    assert!(
        live.healthy(),
        "panics: {:?}, overruns: {:?}",
        live.panics,
        live.deadline_overruns
    );
    assert!(!reference.is_empty());
    assert_eq!(
        live.trace.digest(),
        reference.digest(),
        "live diverged from simulator: {:?}",
        live.trace
            .first_divergence(&reference, ["live", "simulator"])
    );
    // The per-node runtime counters must agree too — same messages
    // sent, same evidence flow, on both substrates.
    let report = sys.run(&scenario, horizon, SEED);
    assert_eq!(live.node_stats, report.node_stats, "node stats diverged");
    assert!(live.converged);
}

#[test]
fn fault_free_mesh_run_is_trace_identical_to_simulator() {
    // Multi-hop: on a 3 x 3 mesh most routes cross a relay, so the
    // fleet's trace is the simulator's only if both charge a hop alike
    // (the originator's slice, then each later link's hop term).
    let sys = system_on(Topology::mesh(3, 3, 100_000, Duration(5)), 1);
    let horizon = Duration::from_millis(120);
    let scenario = FaultScenario::none();
    let reference = sim_trace(&sys, &scenario, horizon);
    let live = run_live(&sys, &scenario, horizon, &live_cfg());
    assert!(
        live.healthy(),
        "panics: {:?}, overruns: {:?}",
        live.panics,
        live.deadline_overruns
    );
    assert!(!reference.is_empty());
    assert_eq!(
        live.trace.digest(),
        reference.digest(),
        "live diverged from simulator: {:?}",
        live.trace
            .first_divergence(&reference, ["live", "simulator"])
    );
    let report = sys.run(&scenario, horizon, SEED);
    assert_eq!(live.node_stats, report.node_stats, "node stats diverged");
}

#[test]
fn lossy_mesh_runs_are_trace_identical_to_simulator() {
    // The 3 x 3 mesh with lossy links, plain and under FEC(4, 2): both
    // substrates roll a sender's losses from its own stream, so they lose
    // the same messages, fault-free and across n6's crash.
    let mesh = || system_on(Topology::mesh(3, 3, 100_000, Duration(5)), 1);
    for (links, sys) in [
        ("5 000 ppm", mesh().with_loss_ppm(5_000)),
        (
            "20 000 ppm + FEC(4, 2)",
            mesh().with_loss_ppm(20_000).with_fec(4, 2),
        ),
    ] {
        for (faults, scenario, horizon) in [
            (
                "fault-free",
                FaultScenario::none(),
                Duration::from_millis(120),
            ),
            ("crash", crash_at_42ms(), Duration::from_millis(250)),
        ] {
            let reference = sim_trace(&sys, &scenario, horizon);
            let live = run_live(&sys, &scenario, horizon, &live_cfg());
            assert!(
                live.healthy(),
                "{links}, {faults}: panics: {:?}, overruns: {:?}",
                live.panics,
                live.deadline_overruns
            );
            assert_eq!(
                live.trace.digest(),
                reference.digest(),
                "{links}, {faults}: live diverged from simulator: {:?}",
                live.trace
                    .first_divergence(&reference, ["live", "simulator"])
            );
            let report = sys.run(&scenario, horizon, SEED);
            assert_eq!(
                live.node_stats, report.node_stats,
                "{links}, {faults}: node stats diverged"
            );
            assert_eq!(
                (live.drops.sent, live.drops.drops_other),
                (report.metrics.msgs_sent, report.metrics.drops_other),
                "{links}, {faults}: sends and losses"
            );
        }
    }
}

#[test]
fn live_crash_scenario_matches_sim_and_recovers_within_r() {
    let sys = system(1);
    let horizon = Duration::from_millis(400);
    let scenario = FaultScenario::single(NodeId(6), FaultKind::Crash, Time::from_millis(42));
    let reference = sim_trace(&sys, &scenario, horizon);
    let live = run_live(&sys, &scenario, horizon, &live_cfg());
    assert!(
        live.healthy(),
        "panics: {:?}, overruns: {:?}",
        live.panics,
        live.deadline_overruns
    );
    assert_eq!(
        live.trace.digest(),
        reference.digest(),
        "live diverged from simulator: {:?}",
        live.trace
            .first_divergence(&reference, ["live", "simulator"])
    );
    // The dead node crashed …
    assert!(live
        .events
        .iter()
        .any(|e| e.node == NodeId(6) && e.kind == EventKind::Crashed));
    // … the survivors completed a real mode switch …
    assert!(!live.switch_events().is_empty(), "no live mode switch seen");
    assert!(live.converged, "survivors did not converge");
    // … and the judged recovery window honours the planned R bound.
    let judgment = sys.judge_actuations(&scenario, horizon, &live.trace.events);
    assert!(
        judgment.recovery.bad_window() <= sys.strategy().r_bound,
        "live recovery {:?} exceeded R = {:?}",
        judgment.recovery.bad_window(),
        sys.strategy().r_bound
    );
    // Wall-clock recovery: the last switch completed after the fault
    // was activated on the wall clock (sanity of the measured latency).
    let fault_wall_us = (42_000.0 * 0.5) as u64;
    let switch_wall = live.last_switch_wall_us().expect("switch events");
    assert!(
        switch_wall > fault_wall_us,
        "switch at {switch_wall}µs before fault activation {fault_wall_us}µs"
    );
}

#[test]
fn a_node_named_twice_suffers_its_first_fault_on_both_substrates() {
    // n6 is scripted to commit commission at 42 ms and to crash at 60
    // ms. Both hosts read the node's first entry only, so n6 lies and
    // never crashes, on the fleet as in the simulator.
    let sys = system(1);
    let horizon = Duration::from_millis(400);
    let scenario = FaultScenario {
        faults: vec![
            InjectedFault::new(NodeId(6), FaultKind::Commission, Time::from_millis(42)),
            InjectedFault::new(NodeId(6), FaultKind::Crash, Time::from_millis(60)),
        ],
    };
    let reference = sim_trace(&sys, &scenario, horizon);
    let live = run_live(&sys, &scenario, horizon, &live_cfg());
    assert!(
        live.healthy(),
        "panics: {:?}, overruns: {:?}",
        live.panics,
        live.deadline_overruns
    );
    assert_eq!(
        live.trace.digest(),
        reference.digest(),
        "live diverged from simulator: {:?}",
        live.trace
            .first_divergence(&reference, ["live", "simulator"])
    );
    assert!(!live.events.iter().any(|e| e.kind == EventKind::Crashed));
}

#[test]
fn live_obs_on_and_off_are_trace_identical() {
    // The live inertness pin: phase-mark collection must not perturb
    // the logical outcome. Both runs must also match the simulator
    // reference, and the obs run must have actually seen the recovery.
    let sys = system(1);
    let horizon = Duration::from_millis(400);
    let subject = NodeId(6);
    let fault_at = Time::from_millis(42);
    let scenario = FaultScenario::single(subject, FaultKind::Crash, fault_at);
    let reference = sim_trace(&sys, &scenario, horizon);

    let mut off_cfg = live_cfg();
    off_cfg.obs = false;
    let off = run_live(&sys, &scenario, horizon, &off_cfg);
    let on = run_live(&sys, &scenario, horizon, &live_cfg());
    assert!(off.healthy() && on.healthy());
    assert_eq!(off.trace.digest(), reference.digest());
    assert_eq!(
        on.trace.digest(),
        off.trace.digest(),
        "observation changed the live trace"
    );
    assert!(off.phase_marks.is_empty(), "obs off must collect nothing");

    // All four mark phases present for the crashed subject …
    let has = |p: Phase| {
        on.phase_marks
            .iter()
            .any(|m| m.phase == p && m.subject == subject)
    };
    assert!(has(Phase::FaultActive), "no activation mark");
    assert!(has(Phase::EvidenceObserved), "no evidence mark");
    assert!(has(Phase::Attributed), "no attribution mark");
    assert!(has(Phase::SwitchCompleted), "no switch mark");

    // … and the folded timeline partitions the judged bad window.
    let judgment = sys.judge_actuations(&scenario, horizon, &on.trace.events);
    let recovery = judgment.recovery.bad_window();
    assert!(recovery > Duration::ZERO);
    let t = RecoveryTimeline::fold(
        subject,
        fault_at,
        recovery,
        sys.strategy().r_bound,
        &on.phase_marks,
    );
    assert_eq!(t.phases_sum(), t.recovery_us);
    assert!(t.slack_to_r_us > 0, "pinned crash recovers within R");
}

#[test]
fn crashed_node_restarts_rejoins_and_stays_healthy() {
    let sys = system(1);
    let horizon = Duration::from_millis(400);
    let scenario = FaultScenario::single(NodeId(6), FaultKind::Crash, Time::from_millis(42));
    let mut cfg = live_cfg();
    cfg.restart_after = Duration::from_millis(120);
    let live = run_live(&sys, &scenario, horizon, &cfg);
    assert!(
        live.healthy(),
        "panics: {:?}, overruns: {:?}",
        live.panics,
        live.deadline_overruns
    );
    // The node came up twice: cold boot and supervised restart.
    let started: Vec<_> = live
        .events
        .iter()
        .filter(|e| e.node == NodeId(6) && e.kind == EventKind::Started)
        .collect();
    assert_eq!(started.len(), 2, "expected cold start + restart");
    assert!(
        started[1].logical >= Time::from_millis(162),
        "restart began at {:?}, before crash + downtime",
        started[1].logical
    );
    // The restarted incarnation reached the horizon (no second crash).
    let terminal: Vec<_> = live
        .events
        .iter()
        .filter(|e| e.node == NodeId(6) && matches!(e.kind, EventKind::Finished))
        .collect();
    assert_eq!(terminal.len(), 1, "restarted node should finish cleanly");
    // Recovery still holds with the node back in the fleet.
    let judgment = sys.judge_actuations(&scenario, horizon, &live.trace.events);
    assert!(
        judgment.recovery.bad_window() <= sys.strategy().r_bound,
        "recovery {:?} exceeded R = {:?}",
        judgment.recovery.bad_window(),
        sys.strategy().r_bound
    );
}

fn crash_at_42ms() -> FaultScenario {
    FaultScenario::single(NodeId(6), FaultKind::Crash, Time::from_millis(42))
}
