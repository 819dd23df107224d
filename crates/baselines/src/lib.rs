//! Baseline fault-tolerance schemes on the BTR substrate.
//!
//! The paper positions BTR against the existing toolbox (Sections 1, 3.1,
//! 5). To make the comparisons measurable rather than rhetorical, this
//! crate implements the alternatives *on the same simulator, network,
//! and workload substrate*:
//!
//! * [`Baseline::BftMask`] — classical masking: 2f+1 replicas per task,
//!   plurality voting on every input ("for R = 0, BTR is analogous to
//!   classical fault tolerance — as in BFT — where all faults must be
//!   masked").
//! * [`Baseline::PbftLite`] — 3f+1 replicas plus an all-to-all echo
//!   round per output, pricing the message cost of agreement-based SMR.
//! * [`Baseline::Zz`] — ZZ-style reactive replication \[71\]: f+1 active
//!   replicas, f dormant ones woken on disagreement ("ZZ ... runs only
//!   f+1 replicas by default, and ... changes to agreement only if these
//!   replicas disagree").
//! * [`Baseline::SelfStab`] — self-stabilisation (Section 3.1's R → ∞
//!   strawman): one copy of everything, periodic audits, reboot on
//!   divergence; recovery is *eventual* with no bound, and only benign
//!   faults repair at all.
//! * [`crash_restart_system`] — crash-only restart recovery, expressed
//!   as a BTR configuration with single lanes (no checkers): heartbeats
//!   detect crashes, plans reassign work; commission faults sail through
//!   undetected — the gap the paper's threat model highlights.
//!
//! The four schemes run on one engine, `BaselineNode`, and are built
//! and judged by the same functions as [`btr_core::BtrSystem`]
//! (DESIGN.md "Baselines").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod node;

use btr_core::{FaultScenario, RunReport};
use btr_model::{Duration, FaultSet, Plan, PlanId, Time, Topology};
use btr_net::RoutingTable;
use btr_planner::PlannerConfig;
use btr_sched::{round_robin_placement, synthesize, SchedParams};
use btr_sim::SimConfig;
use btr_workload::Workload;
use node::BaselineNode;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Which baseline scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// 2f+1 replicas, plurality voting, no reconfiguration.
    BftMask,
    /// 3f+1 replicas + echo round (agreement cost model).
    PbftLite,
    /// f+1 active + f dormant replicas, woken on disagreement.
    Zz,
    /// Single copy + audits + reboots; eventual recovery only.
    SelfStab,
}

impl Baseline {
    /// Replica lanes this scheme runs per task for fault budget `f`.
    pub fn lanes(self, f: u8) -> u8 {
        match self {
            Baseline::BftMask => 2 * f + 1,
            Baseline::PbftLite => 3 * f + 1,
            Baseline::Zz => 2 * f + 1, // f+1 active, f dormant.
            Baseline::SelfStab => 1,
        }
    }

    /// Human-readable label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Baseline::BftMask => "BFT-mask(2f+1)",
            Baseline::PbftLite => "PBFT-lite(3f+1)",
            Baseline::Zz => "ZZ(f+1+f)",
            Baseline::SelfStab => "self-stab(1)",
        }
    }
}

/// A planned baseline deployment (single static plan; baselines do not
/// reconfigure).
pub struct BaselineSystem {
    /// Which scheme.
    pub(crate) baseline: Baseline,
    /// Fault budget the replication was sized for.
    pub(crate) f: u8,
    workload: Arc<Workload>,
    topo: Topology,
    plan: Arc<Plan>,
}

/// Errors from baseline planning.
#[derive(Debug, Clone)]
pub struct BaselineError(pub String);

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "baseline planning failed: {}", self.0)
    }
}

impl std::error::Error for BaselineError {}

/// Compute the static plan a baseline runs (round-robin placement of its
/// lane count, scheduled by the shared scheduler). A lane count past the
/// node count is an error: the scheme would run short of the replicas it
/// is sized for.
pub(crate) fn baseline_plan(
    workload: &Workload,
    topo: &Topology,
    lanes_per_task: u8,
    params: &SchedParams,
) -> Result<Plan, BaselineError> {
    if usize::from(lanes_per_task) > topo.node_count() {
        return Err(BaselineError(format!(
            "{lanes_per_task} lanes per task do not fit {} nodes",
            topo.node_count()
        )));
    }
    let mut params = params.clone();
    params.consume_all_lanes = lanes_per_task > 1;
    let params = &params;
    let routing = RoutingTable::new(topo);
    let mut lanes: BTreeMap<_, u8> = BTreeMap::new();
    for t in workload.tasks() {
        let n = match t.kind {
            btr_workload::TaskKind::Sink { .. } => 1,
            _ => lanes_per_task,
        };
        lanes.insert(t.id, n);
    }
    let placement = round_robin_placement(workload, topo, &lanes, &[]);
    let synth = synthesize(workload, topo, &routing, &placement, &lanes, params)
        .map_err(|e| BaselineError(e.to_string()))?;
    Ok(Plan {
        id: PlanId(0),
        fault_set: FaultSet::empty(),
        placement,
        schedules: synth.schedules,
        shed: BTreeSet::new(),
    })
}

impl BaselineSystem {
    /// Plan a baseline deployment.
    pub fn plan(
        baseline: Baseline,
        workload: Workload,
        topo: Topology,
        f: u8,
        params: &SchedParams,
    ) -> Result<BaselineSystem, BaselineError> {
        let plan = baseline_plan(&workload, &topo, baseline.lanes(f), params)?;
        Ok(BaselineSystem {
            baseline,
            f,
            workload: Arc::new(workload),
            topo,
            plan: Arc::new(plan),
        })
    }

    /// The static plan.
    pub fn plan_ref(&self) -> &Plan {
        &self.plan
    }

    /// The workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Run a scenario and judge it with the system's own pipeline.
    /// Baselines never degrade by plan, so nothing is legitimately shed
    /// and any wrong or missing output counts against them.
    pub fn run(&self, scenario: &FaultScenario, horizon: Duration, seed: u64) -> RunReport {
        let mut sim_cfg = SimConfig::new(seed);
        sim_cfg.period = self.workload.period;
        let mut world =
            btr_core::scenario_world(self.topo.clone(), sim_cfg, scenario, |node, attack| {
                Box::new(BaselineNode::new(
                    node,
                    self.baseline,
                    self.f,
                    Arc::clone(&self.workload),
                    Arc::clone(&self.plan),
                    attack,
                ))
            });
        world.start();
        world.run_until(Time::ZERO + horizon + Duration::from_millis(30));
        btr_core::judge_world(&self.workload, &BTreeSet::new(), scenario, horizon, &world)
    }
}

/// Crash-restart recovery expressed as a BTR configuration: single lanes
/// (no checkers, so no commission detection), heartbeat-driven crash
/// suspicion, plan-based reassignment. The classical "reboot and
/// reassign" recovery most deployed systems use.
pub fn crash_restart_system(
    workload: Workload,
    topo: Topology,
    r_bound: Duration,
) -> Result<btr_core::BtrSystem, btr_core::SystemError> {
    let mut cfg = PlannerConfig::new(1, r_bound);
    cfg.replication = btr_planner::ReplicationMode::None;
    cfg.admit_best_effort = true;
    btr_core::BtrSystem::plan(workload, topo, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_model::{FaultKind, NodeId};

    fn setup(b: Baseline, f: u8) -> BaselineSystem {
        let w = btr_workload::generators::avionics(9);
        let topo = Topology::bus(9, 200_000, Duration(5));
        BaselineSystem::plan(b, w, topo, f, &SchedParams::default()).expect("plannable")
    }

    #[test]
    fn lane_counts_per_scheme() {
        assert_eq!(Baseline::BftMask.lanes(1), 3);
        assert_eq!(Baseline::PbftLite.lanes(1), 4);
        assert_eq!(Baseline::Zz.lanes(1), 3);
        assert_eq!(Baseline::SelfStab.lanes(2), 1);
    }

    #[test]
    fn lanes_past_the_node_count_are_an_error() {
        // PBFT-lite at f = 3 needs 3f + 1 = 10 lanes per task; a 9-node
        // bus has 9 nodes to put them on.
        let w = btr_workload::generators::avionics(9);
        let topo = Topology::bus(9, 200_000, Duration(5));
        let err = BaselineSystem::plan(Baseline::PbftLite, w, topo, 3, &SchedParams::default())
            .err()
            .expect("10 lanes per task do not fit 9 nodes");
        assert!(err.to_string().contains("10 lanes"), "{err}");
    }

    #[test]
    fn bft_masks_commission_fault_completely() {
        let sys = setup(Baseline::BftMask, 1);
        let scenario =
            FaultScenario::single(NodeId(1), FaultKind::Commission, Time::from_millis(30));
        let report = sys.run(&scenario, Duration::from_millis(200), 3);
        // Masking: zero bad outputs, ever.
        assert_eq!(
            report.recovery.bad_outputs, 0,
            "BFT must mask: {:?}",
            report.recovery
        );
    }

    #[test]
    fn bft_fault_free_correct() {
        let sys = setup(Baseline::BftMask, 1);
        let report = sys.run(&FaultScenario::none(), Duration::from_millis(150), 3);
        assert_eq!(report.acceptable_fraction(), 1.0, "{:?}", report.recovery);
    }

    #[test]
    fn pbft_lite_also_masks_at_higher_cost() {
        let mask = setup(Baseline::BftMask, 1);
        let pbft = setup(Baseline::PbftLite, 1);
        let scenario =
            FaultScenario::single(NodeId(2), FaultKind::Commission, Time::from_millis(30));
        let rm = mask.run(&scenario, Duration::from_millis(150), 3);
        let rp = pbft.run(&scenario, Duration::from_millis(150), 3);
        assert_eq!(rp.recovery.bad_outputs, 0);
        // Agreement costs strictly more traffic than plain voting.
        assert!(
            rp.metrics.bytes_sent > rm.metrics.bytes_sent,
            "pbft {} <= mask {}",
            rp.metrics.bytes_sent,
            rm.metrics.bytes_sent
        );
    }

    #[test]
    fn zz_masks_after_wake() {
        let sys = setup(Baseline::Zz, 1);
        let scenario =
            FaultScenario::single(NodeId(1), FaultKind::Commission, Time::from_millis(35));
        let report = sys.run(&scenario, Duration::from_millis(300), 3);
        // Brief disruption allowed (wake latency), then masked.
        let tl = report.timeline();
        let tail = &tl[tl.len().saturating_sub(3)..];
        assert!(tail.iter().all(|(_, frac)| *frac >= 0.99), "tail: {tail:?}");
    }

    #[test]
    fn selfstab_eventually_recovers_from_benign_fault() {
        let sys = setup(Baseline::SelfStab, 1);
        let scenario =
            FaultScenario::single(NodeId(1), FaultKind::Commission, Time::from_millis(35));
        let report = sys.run(&scenario, Duration::from_millis(600), 3);
        // Eventual: recovered by the end of a long run, but with a bad
        // window far larger than BTR's.
        let tl = report.timeline();
        let tail = &tl[tl.len().saturating_sub(2)..];
        assert!(tail.iter().all(|(_, frac)| *frac >= 0.99), "tail: {tail:?}");
        assert!(report.recovery.bad_outputs > 0, "fault had no effect?");
    }

    #[test]
    fn crash_restart_cannot_see_commission() {
        let w = btr_workload::generators::avionics(9);
        let topo = Topology::bus(9, 100_000, Duration(5));
        let sys = crash_restart_system(w, topo, Duration::from_millis(150)).unwrap();
        let scenario =
            FaultScenario::single(NodeId(0), FaultKind::Commission, Time::from_millis(30));
        let report = sys.run(&scenario, Duration::from_millis(300), 3);
        // No checkers -> the corruption persists to the end of the run.
        let tl = report.timeline();
        let tail = &tl[tl.len().saturating_sub(2)..];
        assert!(
            tail.iter().any(|(_, frac)| *frac < 1.0),
            "commission should persist undetected: {tail:?}"
        );
    }
}
