//! The offline BTR planner (Section 4.1 of the paper).
//!
//! "Before the system can run a given workload, it must first find a
//! strategy that can ensure BTR. ... The planner first augments the
//! dataflow graph with additional tasks. It adds 1) replicas; 2) checking
//! tasks, which compare the outputs of the replicas to detect faults and
//! generate evidence; and 3) verification tasks, which distribute and
//! verify incoming evidence from other nodes. ... Next, the planner
//! computes a plan for each mode."
//!
//! The pipeline:
//!
//! 1. [`lane_counts`] decides replica lane counts per task (f+1 for
//!    detection; 2f+1 when configured for masking-cost comparisons).
//! 2. [`placement`] maps augmented tasks to nodes for one fault pattern,
//!    honouring hard constraints (replica anti-affinity, sensor/actuator
//!    pinning) and heuristics (bandwidth locality, load balance, checker
//!    co-location, minimal distance from the parent plan).
//! 3. `btr-sched` synthesises per-node schedules and link budgets; on
//!    failure the planner sheds the least-critical tasks and retries
//!    ("the planner removes some of the less critical tasks and
//!    retries").
//! 4. [`strategy`] walks fault patterns breadth-first up to the fault
//!    budget `f`, derives transition metadata (migrations, state bytes,
//!    time bounds), and admits the strategy against the recovery bound R.
//! 5. [`strategy_quality`] scores strategies adversarially — "computing a
//!    strategy is a bit like building a game tree for a game like chess".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod augment;
mod gametree;
pub mod placement;
pub mod strategy;

pub use augment::{lane_counts, ReplicationMode};
pub use gametree::{plan_utility, strategy_quality, QualityReport};
pub use placement::place;
pub use strategy::{build_strategy, StrategyError, StrategyStats};

use btr_model::Duration;
use btr_sched::SchedParams;
use placement::PlaceOpts;

/// Detection-latency component assumed by the R admission check (one
/// period for the checker to see a bad output, plus slack): a strategy
/// is admitted when `DETECT_MARGIN + bound` of every transition is
/// within R.
pub const DETECT_MARGIN: Duration = Duration::from_millis(12);

/// How aggressively the planner sheds tasks when a mode is infeasible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Shed lowest criticality first; Safety tasks only as a last resort.
    ByCriticality,
    /// Never shed; infeasible modes make the whole strategy fail.
    Never,
}

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Fault budget: the strategy covers every fault set with at most
    /// this many nodes.
    pub f: u8,
    /// The recovery bound R to admit the strategy against.
    pub r_bound: Duration,
    /// Replication mode (detection vs masking lane counts).
    pub replication: ReplicationMode,
    /// Scheduling parameters (speed, reserves); the period is the
    /// workload's.
    pub sched: SchedParams,
    /// Shedding policy for infeasible modes.
    pub shed: ShedPolicy,
    /// The placement switches: keep each child plan close to its parent
    /// (`minimize_delta`, off in the A1 ablation) and checkers close to
    /// their replicas (`checker_colocate`, off in A2).
    pub place: PlaceOpts,
    /// If true, a strategy whose worst transition violates R is still
    /// returned (with the violation recorded) instead of failing.
    pub admit_best_effort: bool,
    /// Number of worker threads for plan enumeration (1 = sequential).
    pub threads: usize,
}

impl PlannerConfig {
    /// A reasonable default configuration for a fault budget.
    pub fn new(f: u8, r_bound: Duration) -> PlannerConfig {
        PlannerConfig {
            f,
            r_bound,
            replication: ReplicationMode::Detection,
            sched: SchedParams::default(),
            shed: ShedPolicy::ByCriticality,
            place: PlaceOpts::default(),
            admit_best_effort: false,
            threads: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = PlannerConfig::new(2, Duration::from_millis(100));
        assert_eq!(c.f, 2);
        assert_eq!(c.replication, ReplicationMode::Detection);
        assert!(c.place.minimize_delta);
        assert!(c.place.checker_colocate);
        assert_eq!(c.threads, 1);
    }
}
