//! A compromised flight-control node sends wrong actuator commands; BTR
//! detects it by re-execution, floods the proof, and reconfigures — all
//! while the airframe's inertia (the plant envelope) absorbs the bounded
//! window of bad output.
//!
//! ```text
//! cargo run --example avionics_attack
//! ```

use btr::core::{BtrSystem, FaultScenario, Plant};
use btr::model::{ATask, Duration, FaultKind, Time, Topology};
use btr::planner::PlannerConfig;

fn main() {
    let topo = Topology::bus(9, 100_000, Duration(5));
    let workload = btr::workload::generators::avionics(9);
    let mut cfg = PlannerConfig::new(1, Duration::from_millis(150));
    cfg.admit_best_effort = true;
    let system = BtrSystem::plan(workload, topo, cfg).expect("plannable");

    // Compromise the node hosting the primary flight-control replica.
    let ctl = system
        .workload()
        .tasks()
        .iter()
        .find(|t| t.name == "flight-control")
        .unwrap()
        .id;
    let victim = system
        .strategy()
        .initial_plan()
        .node_of(ATask::Work {
            task: ctl,
            replica: 0,
        })
        .unwrap();
    println!("adversary compromises {victim} (hosts flight-control lane 0)");

    let scenario = FaultScenario::single(victim, FaultKind::Commission, Time::from_millis(52));
    let report = system.run(&scenario, Duration::from_millis(400), 11);

    // Correctness timeline, one row per period.
    println!("\nperiod | acceptable outputs");
    for (p, frac) in report.timeline() {
        let bar: String = std::iter::repeat_n('#', (frac * 30.0) as usize).collect();
        println!("{p:>6} | {bar:<30} {:.0}%", frac * 100.0);
    }

    println!(
        "\nbad-output window: {} (R = {})",
        report.recovery.bad_window(),
        system.strategy().r_bound
    );

    // The plant: damage only if bad output persists past D = 2R.
    let plant = Plant::drive(
        system.workload(),
        Duration::from_millis(300),
        &report.verdicts,
    );
    println!(
        "plant peak stress: {:.0}% of envelope, damaged: {}",
        plant.peak_stress() * 100.0,
        plant.damaged()
    );
    assert!(!plant.damaged(), "inertia must absorb a bounded window");
}
