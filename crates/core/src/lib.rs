//! Bounded-time recovery, end to end.
//!
//! This crate is the public face of the reproduction: it ties the offline
//! planner, the per-node runtime, and the simulator together behind
//! [`BtrSystem`], adds a scriptable fault injector ([`faults`]), an
//! output-correctness oracle implementing Definition 3.1 ([`oracle`]),
//! and the physical-plant envelope model that motivates the whole idea
//! ([`plant`]): "because of inertia, a short malfunction will not be
//! enough to push the airplane out of this envelope and can thus be
//! tolerated, as long as the system returns to correct operation quickly
//! enough" (Section 1). The live fleet ([`supervisor`]) runs the same
//! world on the wall clock.
//!
//! # Quickstart
//!
//! ```
//! use btr_core::{BtrSystem, FaultScenario, InjectedFault};
//! use btr_model::{Duration, FaultKind, NodeId, Time, Topology};
//! use btr_planner::PlannerConfig;
//!
//! let workload = btr_workload::generators::avionics(9);
//! let topo = Topology::bus(9, 100_000, Duration(5));
//! let mut cfg = PlannerConfig::new(1, Duration::from_millis(150));
//! cfg.admit_best_effort = true;
//! let system = BtrSystem::plan(workload, topo, cfg).expect("plannable");
//!
//! let scenario = FaultScenario::single(NodeId(2), FaultKind::Crash, Time::from_millis(40));
//! let report = system.run(&scenario, Duration::from_millis(300), 7);
//! assert!(report.recovery.recovered());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod oracle;
pub mod plant;
pub mod supervisor;
pub mod system;

// The fleet's unit tests share their helpers with `tests/live.rs`, which
// names this crate `btr_core`.
#[cfg(test)]
extern crate self as btr_core;

pub use faults::{FaultMods, FaultScenario, InjectedFault};
pub use oracle::{reference_value, RecoveryStats, Verdict};
pub use plant::{Plant, PlantConfig};
pub use system::{
    judge_world, scenario_world, ActuationJudgment, BtrSystem, NodeRow, RunReport, SystemError,
};
