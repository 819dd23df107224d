//! End-to-end integration tests: the full pipeline (plan -> run under
//! attack -> judge) across fault kinds, workloads, and approaches.

use btr::baselines::{Baseline, BaselineSystem};
use btr::core::{BtrSystem, FaultScenario, Plant};
use btr::model::{Duration, FaultKind, NodeId, Time, Topology};
use btr::planner::PlannerConfig;
use btr::sched::SchedParams;

fn avionics_system(f: u8) -> BtrSystem {
    let workload = btr::workload::generators::avionics(9);
    let topo = Topology::bus(9, 100_000, Duration(5));
    let mut cfg = PlannerConfig::new(f, Duration::from_millis(150));
    cfg.admit_best_effort = true;
    BtrSystem::plan(workload, topo, cfg).expect("plannable")
}

#[test]
fn every_fault_kind_recovers_within_r() {
    let sys = avionics_system(1);
    let r = sys.strategy().r_bound;
    for kind in [
        FaultKind::Crash,
        FaultKind::Commission,
        FaultKind::Omission,
        FaultKind::Equivocation,
        FaultKind::EvidenceSpam,
    ] {
        let scenario = FaultScenario::single(NodeId(2), kind, Time::from_millis(52));
        let report = sys.run(&scenario, Duration::from_millis(500), 13);
        assert!(
            report.recovery.bad_window() <= r,
            "{kind}: window {} > R {r}",
            report.recovery.bad_window()
        );
        let tl = report.timeline();
        let tail = &tl[tl.len().saturating_sub(3)..];
        assert!(
            tail.iter().all(|(_, f)| *f >= 0.99),
            "{kind}: tail not clean: {tail:?}"
        );
    }
}

#[test]
fn runs_are_deterministic() {
    let sys = avionics_system(1);
    let scenario = FaultScenario::single(NodeId(4), FaultKind::Commission, Time::from_millis(40));
    let a = sys.run(&scenario, Duration::from_millis(300), 99);
    let b = sys.run(&scenario, Duration::from_millis(300), 99);
    assert_eq!(a.verdicts, b.verdicts);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.recovery, b.recovery);
}

#[test]
fn different_seeds_still_recover() {
    let sys = avionics_system(1);
    for seed in [1u64, 2, 3] {
        let scenario = FaultScenario::single(NodeId(5), FaultKind::Crash, Time::from_millis(47));
        let report = sys.run(&scenario, Duration::from_millis(400), seed);
        assert!(report.converged, "seed {seed} diverged");
        assert!(report.recovery.bad_window() <= sys.strategy().r_bound);
    }
}

#[test]
fn automotive_and_scada_workloads_run() {
    for (workload, n, bw) in [
        (btr::workload::generators::automotive(8), 8usize, 200_000u32),
        (btr::workload::generators::scada(6), 6, 100_000),
    ] {
        let topo = Topology::bus(n, bw, Duration(5));
        let mut cfg = PlannerConfig::new(1, Duration::from_millis(200));
        cfg.admit_best_effort = true;
        let sys = BtrSystem::plan(workload, topo, cfg).expect("plannable");
        let report = sys.run(&FaultScenario::none(), Duration::from_millis(200), 3);
        assert!(
            report.acceptable_fraction() >= 0.99,
            "fault-free fraction {}",
            report.acceptable_fraction()
        );
    }
}

#[test]
fn btr_vs_baselines_shape() {
    // The E1 headline: BFT masks (window 0), BTR bounded (window <= R),
    // self-stab eventual (window > BTR's).
    let w = btr::workload::generators::avionics(9);
    let topo = Topology::bus(9, 200_000, Duration(5));
    let scenario = FaultScenario::single(NodeId(1), FaultKind::Commission, Time::from_millis(52));
    let horizon = Duration::from_millis(500);

    let mut cfg = PlannerConfig::new(1, Duration::from_millis(150));
    cfg.admit_best_effort = true;
    let btr_sys = BtrSystem::plan(w.clone(), topo.clone(), cfg).expect("plannable");
    let btr_window = btr_sys.run(&scenario, horizon, 7).recovery.bad_window();

    let bft = BaselineSystem::plan(
        Baseline::BftMask,
        w.clone(),
        topo.clone(),
        1,
        &SchedParams::default(),
    )
    .expect("plannable");
    let bft_window = bft.run(&scenario, horizon, 7).recovery.bad_window();

    let stab = BaselineSystem::plan(Baseline::SelfStab, w, topo, 1, &SchedParams::default())
        .expect("plannable");
    let stab_window = stab.run(&scenario, horizon, 7).recovery.bad_window();

    assert_eq!(bft_window, Duration::ZERO, "BFT must mask");
    assert!(btr_window > Duration::ZERO, "BTR detects, not masks");
    assert!(
        btr_window <= btr_sys.strategy().r_bound,
        "BTR window {btr_window} > R"
    );
    assert!(
        stab_window > btr_window,
        "self-stab ({stab_window}) should be slower than BTR ({btr_window})"
    );
}

#[test]
fn plant_survives_btr_but_not_unbounded_outage() {
    let sys = avionics_system(1);
    let scenario = FaultScenario::single(NodeId(3), FaultKind::Commission, Time::from_millis(52));
    let report = sys.run(&scenario, Duration::from_millis(400), 7);
    // D = 2R: the plant tolerates the bounded window.
    let plant = Plant::drive(sys.workload(), Duration::from_millis(300), &report.verdicts);
    assert!(!plant.damaged());

    // A hypothetical unbounded outage (all bad from the fault onward)
    // would damage it — the five-second rule is doing real work.
    let mut unbounded = Plant::new(Duration::from_millis(300), sys.workload().period);
    for _ in 0..40 {
        unbounded.step(false);
    }
    assert!(unbounded.damaged());
}

#[test]
fn sequential_faults_stay_within_budget() {
    let sys = avionics_system(2);
    let scenario = FaultScenario::sequential(
        &[NodeId(2), NodeId(7)],
        FaultKind::Crash,
        Time::from_millis(50),
        Duration::from_millis(200),
    );
    let report = sys.run(&scenario, Duration::from_millis(600), 7);
    assert!(report.converged);
    // Total bad time <= gap + R (the windows cannot overlap).
    let budget = Duration::from_millis(200) + sys.strategy().r_bound;
    assert!(
        report.recovery.bad_window() <= budget,
        "window {} > {budget}",
        report.recovery.bad_window()
    );
}

#[test]
fn crash_restart_handles_crash_but_not_commission() {
    let w = btr::workload::generators::avionics(9);
    let topo = Topology::bus(9, 100_000, Duration(5));
    let sys =
        btr::baselines::crash_restart_system(w, topo, Duration::from_millis(150)).expect("plans");

    // Crash: recovered.
    let crash = FaultScenario::single(NodeId(2), FaultKind::Crash, Time::from_millis(52));
    let report = sys.run(&crash, Duration::from_millis(500), 7);
    let tl = report.timeline();
    let tail = &tl[tl.len().saturating_sub(3)..];
    assert!(
        tail.iter().all(|(_, f)| *f >= 0.99),
        "crash-restart should recover crashes: {tail:?}"
    );

    // Commission: sails through undetected (no checkers).
    let bad = FaultScenario::single(NodeId(2), FaultKind::Commission, Time::from_millis(52));
    let report = sys.run(&bad, Duration::from_millis(400), 7);
    let tl = report.timeline();
    let tail = &tl[tl.len().saturating_sub(3)..];
    assert!(
        tail.iter().any(|(_, f)| *f < 1.0),
        "commission should persist: {tail:?}"
    );
}
