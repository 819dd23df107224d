//! Substrate integration tests: the network, simulator, and crypto
//! layers working together underneath the protocol.

use btr::core::{BtrSystem, FaultScenario};
use btr::model::{Duration, FaultKind, NodeId, Time, Topology};
use btr::net::RoutingTable;
use btr::planner::PlannerConfig;
use std::collections::BTreeSet;

#[test]
fn residual_loss_does_not_destabilise_btr() {
    // With FEC in place, the simulator's residual loss is tiny; BTR must
    // shrug it off without convicting healthy nodes or losing output
    // quality beyond the lost slots themselves.
    let workload = btr::workload::generators::avionics(9);
    let topo = Topology::bus(9, 100_000, Duration(5));
    let mut cfg = PlannerConfig::new(1, Duration::from_millis(150));
    cfg.admit_best_effort = true;
    let sys = BtrSystem::plan(workload, topo, cfg)
        .expect("plannable")
        .with_loss_ppm(500);
    let report = sys.run(&FaultScenario::none(), Duration::from_millis(400), 5);
    assert!(
        report.acceptable_fraction() >= 0.98,
        "loss hurt too much: {}",
        report.acceptable_fraction()
    );
    assert!(report.converged);
}

#[test]
fn loss_plus_real_fault_still_recovers() {
    let workload = btr::workload::generators::avionics(9);
    let topo = Topology::bus(9, 100_000, Duration(5));
    let mut cfg = PlannerConfig::new(1, Duration::from_millis(150));
    cfg.admit_best_effort = true;
    let sys = BtrSystem::plan(workload, topo, cfg)
        .expect("plannable")
        .with_loss_ppm(300);
    let scenario = FaultScenario::single(NodeId(4), FaultKind::Crash, Time::from_millis(62));
    let report = sys.run(&scenario, Duration::from_millis(500), 5);
    // The victim is found and the tail is clean despite background loss.
    let tl = report.timeline();
    let tail = &tl[tl.len().saturating_sub(3)..];
    assert!(
        tail.iter().all(|(_, f)| *f >= 0.95),
        "tail not clean under loss: {tail:?}"
    );
}

#[test]
fn routing_survives_any_single_fault_on_redundant_topologies() {
    // Dual-bus and mesh platforms keep full connectivity under any
    // single-node fault — the redundancy CPS platforms are built with.
    for topo in [
        Topology::dual_bus(8, 50_000, Duration(5)),
        Topology::mesh(3, 3, 50_000, Duration(5)),
    ] {
        for i in 0..topo.node_count() as u32 {
            let avoid = BTreeSet::from([NodeId(i)]);
            let table = RoutingTable::avoiding(&topo, &avoid);
            assert!(
                table.fully_connected(&avoid),
                "node {i} disconnects the topology"
            );
        }
    }
}

#[test]
fn btr_runs_on_a_ring_with_multi_hop_flows() {
    // Multi-hop platform: relays forward transparently; a crash both
    // removes a worker and a relay, and BTR still recovers.
    let workload = btr::workload::generators::fusion_chain(3, 8);
    let topo = Topology::ring(8, 400_000, Duration(3));
    let mut cfg = PlannerConfig::new(1, Duration::from_millis(200));
    cfg.admit_best_effort = true;
    let sys = BtrSystem::plan(workload, topo, cfg).expect("plannable");
    let scenario = FaultScenario::single(NodeId(5), FaultKind::Crash, Time::from_millis(55));
    let report = sys.run(&scenario, Duration::from_millis(500), 9);
    assert!(report.converged, "ring recovery diverged");
    let tl = report.timeline();
    let tail = &tl[tl.len().saturating_sub(3)..];
    assert!(tail.iter().all(|(_, f)| *f >= 0.99), "tail: {tail:?}");
}
