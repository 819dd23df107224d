//! The paper's Section 2 motivating scenario: "when a sensor indicates a
//! pressure increase in some part of the system, the system may need to
//! respond within seconds — e.g., by opening a safety valve — to prevent
//! an explosion."
//!
//! A SCADA plant loses its PLC-hosting node to a Byzantine compromise;
//! BTR must restore correct valve commands before the vessel's thermal
//! capacity (deadline D) runs out.
//!
//! ```text
//! cargo run --example scada_pressure
//! ```

use btr::core::{BtrSystem, FaultScenario, Plant};
use btr::model::{ATask, Duration, FaultKind, Time, Topology};
use btr::planner::PlannerConfig;

fn main() {
    // Six controllers on a plant bus; 20 ms control period.
    let workload = btr::workload::generators::scada(6);
    let topo = Topology::bus(6, 100_000, Duration(10));

    // The vessel tolerates D = 800 ms without correct valve commands;
    // with f = 1 the paper's rule says provision R = D/f... but be
    // prudent and halve it again.
    let d = Duration::from_millis(800);
    let r = Duration(d.as_micros() / 2);
    let mut cfg = PlannerConfig::new(1, r);
    cfg.admit_best_effort = true;
    let system = BtrSystem::plan(workload, topo, cfg).expect("plannable");
    println!(
        "plant deadline D = {d}, provisioned R = {r}, strategy has {} plans",
        system.strategy().plan_count()
    );

    // Compromise the node computing the PLC logic.
    let plc = system
        .workload()
        .tasks()
        .iter()
        .find(|t| t.name == "plc-logic")
        .unwrap()
        .id;
    let victim = system
        .strategy()
        .initial_plan()
        .node_of(ATask::Work {
            task: plc,
            replica: 0,
        })
        .unwrap();
    println!("adversary compromises {victim} (hosts plc-logic lane 0)");

    let scenario = FaultScenario::single(victim, FaultKind::Commission, Time::from_millis(104));
    let report = system.run(&scenario, Duration::from_millis(1_200), 23);

    println!(
        "bad-output window: {} (R = {r})",
        report.recovery.bad_window()
    );
    let plant = Plant::drive(system.workload(), d, &report.verdicts);
    println!(
        "vessel stress peaked at {:.0}% of envelope; damaged: {}",
        plant.peak_stress() * 100.0,
        plant.damaged()
    );
    println!(
        "safety-valve outputs acceptable: {:.1}%",
        report.survival[&btr::model::Criticality::Safety] * 100.0
    );
    assert!(!plant.damaged(), "the valve must reopen in time");
    println!("=> the safety valve recovered before the vessel left its envelope.");
}
