//! Plans, schedules, and strategies.
//!
//! Section 4 of the paper: "Our approach to BTR is centered around the
//! concept of a plan, which is basically a distributed schedule: it maps
//! the tasks from the workload (and some additional tasks, such as
//! replicas) to specific nodes, and it prescribes a schedule for each of
//! the nodes." The set of plans plus the conditions for switching between
//! them is the [`Strategy`] ("the plans, and the conditions for switching
//! between them, form the system's strategy for responding to faults").

use crate::fault::FaultSet;
use crate::ids::{NodeId, PlanId, ReplicaIdx, TaskId};
use crate::time::Duration;
use crate::topology::Topology;
use std::collections::{BTreeMap, BTreeSet};

/// An *augmented* task: a workload task replica, or one of the auxiliary
/// tasks the planner adds (Section 4.1: "It adds 1) replicas; 2) checking
/// tasks ...; and 3) verification tasks").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ATask {
    /// Replica `replica` of workload task `task`.
    Work {
        /// The workload task.
        task: TaskId,
        /// Replica index (0 = primary).
        replica: ReplicaIdx,
    },
    /// The checking task comparing the replicas of `task`.
    Check {
        /// The checked workload task.
        task: TaskId,
    },
    /// The evidence-verification reserve slot on `node`.
    Verify {
        /// The node whose schedule carries the reserve.
        node: NodeId,
    },
}

impl ATask {
    /// The underlying workload task, if this is a work or check task.
    pub fn work_task(&self) -> Option<TaskId> {
        match self {
            ATask::Work { task, .. } | ATask::Check { task } => Some(*task),
            ATask::Verify { .. } => None,
        }
    }

    /// True for `Work` entries.
    pub fn is_work(&self) -> bool {
        matches!(self, ATask::Work { .. })
    }
}

impl std::fmt::Display for ATask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ATask::Work { task, replica } => write!(f, "{task}/r{replica}"),
            ATask::Check { task } => write!(f, "chk({task})"),
            ATask::Verify { node } => write!(f, "ver({node})"),
        }
    }
}

/// One slot in a node's static cyclic schedule (offsets within the period).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// What runs.
    pub atask: ATask,
    /// Start offset from the period boundary.
    pub start: Duration,
    /// Budgeted execution time on this node.
    pub wcet: Duration,
}

impl ScheduleEntry {
    /// End offset of the slot.
    pub fn end(&self) -> Duration {
        self.start + self.wcet
    }
}

/// A node's static cyclic schedule for one plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeSchedule {
    /// Slots sorted by start offset.
    pub entries: Vec<ScheduleEntry>,
}

/// Why a schedule or plan is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Two slots on the same node overlap in time.
    Overlap(NodeId),
    /// A slot extends past the period.
    ExceedsPeriod(NodeId),
    /// A task is placed on a node in the plan's fault set.
    PlacedOnFaulty(NodeId),
    /// A scheduled task is missing from the placement (or vice versa).
    PlacementMismatch,
    /// A placement references a node outside the topology.
    UnknownNode(NodeId),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Overlap(n) => write!(f, "overlapping slots on {n}"),
            PlanError::ExceedsPeriod(n) => write!(f, "slot exceeds period on {n}"),
            PlanError::PlacedOnFaulty(n) => write!(f, "task placed on faulty node {n}"),
            PlanError::PlacementMismatch => write!(f, "placement and schedules disagree"),
            PlanError::UnknownNode(n) => write!(f, "placement references unknown node {n}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl NodeSchedule {
    /// Validate sortedness, non-overlap, and fit within `period`.
    pub fn validate(&self, node: NodeId, period: Duration) -> Result<(), PlanError> {
        let mut prev_end = Duration::ZERO;
        for e in &self.entries {
            if e.start < prev_end {
                return Err(PlanError::Overlap(node));
            }
            if e.end() > period {
                return Err(PlanError::ExceedsPeriod(node));
            }
            prev_end = e.end();
        }
        Ok(())
    }

    /// Fraction of the period spent executing.
    pub fn utilization(&self, period: Duration) -> f64 {
        if period.0 == 0 {
            return 0.0;
        }
        let busy: u64 = self.entries.iter().map(|e| e.wcet.0).sum();
        busy as f64 / period.0 as f64
    }

    /// Find the slot for an augmented task.
    pub fn slot(&self, atask: ATask) -> Option<&ScheduleEntry> {
        self.entries.iter().find(|e| e.atask == atask)
    }
}

/// A distributed schedule for one fault pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// This plan's id (index into the strategy's plan store).
    pub id: PlanId,
    /// The fault pattern this plan handles.
    pub fault_set: FaultSet,
    /// Where every augmented task runs.
    pub placement: BTreeMap<ATask, NodeId>,
    /// Per-node cyclic schedules.
    pub schedules: BTreeMap<NodeId, NodeSchedule>,
    /// Workload tasks shed in this mode (mixed-criticality degradation).
    pub shed: BTreeSet<TaskId>,
}

impl Plan {
    /// The node hosting an augmented task, if placed.
    pub fn node_of(&self, atask: ATask) -> Option<NodeId> {
        self.placement.get(&atask).copied()
    }

    /// All replicas of a workload task, as (replica, node) pairs.
    pub fn replicas_of(&self, task: TaskId) -> Vec<(ReplicaIdx, NodeId)> {
        self.placement
            .iter()
            .filter_map(|(a, n)| match a {
                ATask::Work { task: t, replica } if *t == task => Some((*replica, *n)),
                _ => None,
            })
            .collect()
    }

    /// The node hosting the checker of a task, if any.
    pub fn checker_of(&self, task: TaskId) -> Option<NodeId> {
        self.node_of(ATask::Check { task })
    }

    /// True if the plan sheds this workload task.
    pub fn is_shed(&self, task: TaskId) -> bool {
        self.shed.contains(&task)
    }

    /// Augmented tasks placed on a given node.
    pub fn tasks_on(&self, node: NodeId) -> Vec<ATask> {
        self.placement
            .iter()
            .filter_map(|(a, n)| (*n == node).then_some(*a))
            .collect()
    }

    /// Validate the plan against a topology and period.
    pub fn validate(&self, topo: &Topology, period: Duration) -> Result<(), PlanError> {
        for (&atask, &node) in &self.placement {
            if node.index() >= topo.node_count() {
                return Err(PlanError::UnknownNode(node));
            }
            if self.fault_set.contains(node) {
                return Err(PlanError::PlacedOnFaulty(node));
            }
            // Every placed task must be scheduled on its node.
            let sched = self
                .schedules
                .get(&node)
                .ok_or(PlanError::PlacementMismatch)?;
            if sched.slot(atask).is_none() {
                return Err(PlanError::PlacementMismatch);
            }
        }
        for (&node, sched) in &self.schedules {
            sched.validate(node, period)?;
            for e in &sched.entries {
                if self.placement.get(&e.atask) != Some(&node) {
                    return Err(PlanError::PlacementMismatch);
                }
            }
        }
        Ok(())
    }

    /// Peak CPU utilisation over all nodes.
    pub fn max_utilization(&self, period: Duration) -> f64 {
        self.schedules
            .values()
            .map(|s| s.utilization(period))
            .fold(0.0, f64::max)
    }
}

/// A migration of one augmented task during a mode transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Migration {
    /// The migrating task.
    pub atask: ATask,
    /// Node it ran on in the old plan (`None` if newly started).
    pub from: Option<NodeId>,
    /// Node it runs on in the new plan.
    pub to: NodeId,
    /// Bytes of task state that must move.
    pub state_bytes: u32,
}

/// Metadata for one mode transition (edge in the strategy graph).
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Plan the system is leaving.
    pub from: PlanId,
    /// Plan the system is entering.
    pub to: PlanId,
    /// The newly faulty node that triggers this transition.
    pub trigger: NodeId,
    /// Task migrations required.
    pub migrations: Vec<Migration>,
    /// Planner's bound on the transition duration (state transfer +
    /// alignment); part of the R admission check.
    pub bound: Duration,
}

impl Transition {
    /// Total state bytes moved by this transition.
    pub fn state_bytes(&self) -> u64 {
        self.migrations.iter().map(|m| m.state_bytes as u64).sum()
    }

    /// Number of task reassignments (the paper's plan-distance notion:
    /// "it should otherwise change as little as possible").
    pub fn distance(&self) -> usize {
        self.migrations.len()
    }
}

/// The complete offline strategy: plans plus switching conditions.
#[derive(Debug, Clone, PartialEq)]
pub struct Strategy {
    /// Fault budget: max simultaneous faulty nodes planned for.
    pub f: u8,
    /// The recovery bound R the strategy was admitted against.
    pub r_bound: Duration,
    /// The system period P.
    pub period: Duration,
    /// All plans; `plans[p.index()]` has id `p`.
    pub plans: Vec<Plan>,
    /// Deterministic fault-set -> plan mapping.
    pub index: BTreeMap<FaultSet, PlanId>,
    /// Transition metadata keyed by (from, to).
    pub transitions: BTreeMap<(PlanId, PlanId), Transition>,
}

impl Strategy {
    /// The plan for the empty fault set.
    ///
    /// # Panics
    /// Panics if the strategy has no initial plan (never produced by the
    /// planner).
    pub fn initial_plan(&self) -> &Plan {
        let pid = self.index[&FaultSet::empty()];
        &self.plans[pid.index()]
    }

    /// Look up a plan by id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn plan(&self, id: PlanId) -> &Plan {
        &self.plans[id.index()]
    }

    /// The plan indexed for exactly this fault set, if any.
    pub fn plan_for(&self, fs: &FaultSet) -> Option<PlanId> {
        self.index.get(fs).copied()
    }

    /// Deterministic best-effort lookup: the exact plan if indexed,
    /// otherwise the plan of the largest indexed subset (ties broken by
    /// the `BTreeMap` order, which is canonical). All correct nodes with
    /// the same fault set therefore choose the same plan — the convergence
    /// argument of Section 4.4.
    pub fn best_plan_for(&self, fs: &FaultSet) -> PlanId {
        if let Some(p) = self.plan_for(fs) {
            return p;
        }
        let mut best: Option<(usize, &FaultSet, PlanId)> = None;
        for (key, &pid) in &self.index {
            if key.is_subset(fs) {
                let candidate = (key.len(), key, pid);
                best = match best {
                    None => Some(candidate),
                    Some(b) if candidate.0 > b.0 => Some(candidate),
                    Some(b) => Some(b),
                };
            }
        }
        best.map(|(_, _, pid)| pid)
            .unwrap_or_else(|| self.index[&FaultSet::empty()])
    }

    /// Transition metadata between two plans, if precomputed.
    pub fn transition(&self, from: PlanId, to: PlanId) -> Option<&Transition> {
        self.transitions.get(&(from, to))
    }

    /// Number of plans in the strategy.
    pub fn plan_count(&self) -> usize {
        self.plans.len()
    }

    /// The worst transition bound across the strategy (drives R admission).
    pub fn worst_transition_bound(&self) -> Duration {
        self.transitions
            .values()
            .map(|t| t.bound)
            .max()
            .unwrap_or(Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(atask: ATask, start: u64, wcet: u64) -> ScheduleEntry {
        ScheduleEntry {
            atask,
            start: Duration(start),
            wcet: Duration(wcet),
        }
    }

    fn work(t: u32, r: ReplicaIdx) -> ATask {
        ATask::Work {
            task: TaskId(t),
            replica: r,
        }
    }

    #[test]
    fn schedule_validation() {
        let node = NodeId(0);
        let period = Duration(100);
        let good = NodeSchedule {
            entries: vec![entry(work(0, 0), 0, 10), entry(work(1, 0), 10, 20)],
        };
        assert_eq!(good.validate(node, period), Ok(()));

        let overlap = NodeSchedule {
            entries: vec![entry(work(0, 0), 0, 15), entry(work(1, 0), 10, 20)],
        };
        assert_eq!(
            overlap.validate(node, period),
            Err(PlanError::Overlap(node))
        );

        let too_long = NodeSchedule {
            entries: vec![entry(work(0, 0), 95, 10)],
        };
        assert_eq!(
            too_long.validate(node, period),
            Err(PlanError::ExceedsPeriod(node))
        );
    }

    #[test]
    fn utilization() {
        let s = NodeSchedule {
            entries: vec![entry(work(0, 0), 0, 25), entry(work(1, 0), 50, 25)],
        };
        assert!((s.utilization(Duration(100)) - 0.5).abs() < 1e-9);
        assert_eq!(NodeSchedule::default().utilization(Duration(100)), 0.0);
    }

    fn tiny_plan() -> Plan {
        let mut placement = BTreeMap::new();
        placement.insert(work(0, 0), NodeId(0));
        placement.insert(work(0, 1), NodeId(1));
        placement.insert(ATask::Check { task: TaskId(0) }, NodeId(1));
        let mut schedules = BTreeMap::new();
        schedules.insert(
            NodeId(0),
            NodeSchedule {
                entries: vec![entry(work(0, 0), 0, 10)],
            },
        );
        schedules.insert(
            NodeId(1),
            NodeSchedule {
                entries: vec![
                    entry(work(0, 1), 0, 10),
                    entry(ATask::Check { task: TaskId(0) }, 20, 5),
                ],
            },
        );
        Plan {
            id: PlanId(0),
            fault_set: FaultSet::empty(),
            placement,
            schedules,
            shed: BTreeSet::new(),
        }
    }

    #[test]
    fn plan_queries() {
        let p = tiny_plan();
        assert_eq!(p.node_of(work(0, 0)), Some(NodeId(0)));
        assert_eq!(
            p.replicas_of(TaskId(0)),
            vec![(0, NodeId(0)), (1, NodeId(1))]
        );
        assert_eq!(p.checker_of(TaskId(0)), Some(NodeId(1)));
        assert!(!p.is_shed(TaskId(0)));
        assert_eq!(p.tasks_on(NodeId(1)).len(), 2);
    }

    #[test]
    fn plan_validate_ok_and_errors() {
        let topo = Topology::bus(3, 100, Duration(1));
        let period = Duration(100);
        let p = tiny_plan();
        assert_eq!(p.validate(&topo, period), Ok(()));

        // Placing on a faulty node is rejected.
        let mut bad = tiny_plan();
        bad.fault_set.insert(NodeId(0));
        assert_eq!(
            bad.validate(&topo, period),
            Err(PlanError::PlacedOnFaulty(NodeId(0)))
        );

        // Placement without a schedule slot is rejected.
        let mut bad = tiny_plan();
        bad.placement.insert(work(5, 0), NodeId(0));
        assert_eq!(
            bad.validate(&topo, period),
            Err(PlanError::PlacementMismatch)
        );

        // Unknown node is rejected.
        let mut bad = tiny_plan();
        bad.placement.insert(work(6, 0), NodeId(9));
        assert_eq!(
            bad.validate(&topo, period),
            Err(PlanError::UnknownNode(NodeId(9)))
        );
    }

    fn tiny_strategy() -> Strategy {
        let p0 = tiny_plan();
        let mut p1 = tiny_plan();
        p1.id = PlanId(1);
        p1.fault_set = FaultSet::from_nodes(&[NodeId(2)]);
        let mut index = BTreeMap::new();
        index.insert(FaultSet::empty(), PlanId(0));
        index.insert(FaultSet::from_nodes(&[NodeId(2)]), PlanId(1));
        let mut transitions = BTreeMap::new();
        transitions.insert(
            (PlanId(0), PlanId(1)),
            Transition {
                from: PlanId(0),
                to: PlanId(1),
                trigger: NodeId(2),
                migrations: vec![Migration {
                    atask: work(0, 1),
                    from: Some(NodeId(2)),
                    to: NodeId(1),
                    state_bytes: 128,
                }],
                bound: Duration(500),
            },
        );
        Strategy {
            f: 1,
            r_bound: Duration(1_000),
            period: Duration(100),
            plans: vec![p0, p1],
            index,
            transitions,
        }
    }

    #[test]
    fn strategy_lookup() {
        let s = tiny_strategy();
        assert_eq!(s.initial_plan().id, PlanId(0));
        assert_eq!(
            s.plan_for(&FaultSet::from_nodes(&[NodeId(2)])),
            Some(PlanId(1))
        );
        assert_eq!(s.plan_for(&FaultSet::from_nodes(&[NodeId(1)])), None);
        assert_eq!(s.plan_count(), 2);
    }

    #[test]
    fn best_plan_falls_back_to_largest_subset() {
        let s = tiny_strategy();
        // {n1, n2} is not indexed; {n2} is the largest indexed subset.
        let fs = FaultSet::from_nodes(&[NodeId(1), NodeId(2)]);
        assert_eq!(s.best_plan_for(&fs), PlanId(1));
        // {n1} only has the empty subset indexed.
        let fs = FaultSet::from_nodes(&[NodeId(1)]);
        assert_eq!(s.best_plan_for(&fs), PlanId(0));
    }

    #[test]
    fn transition_metadata() {
        let s = tiny_strategy();
        let t = s.transition(PlanId(0), PlanId(1)).unwrap();
        assert_eq!(t.distance(), 1);
        assert_eq!(t.state_bytes(), 128);
        assert_eq!(s.worst_transition_bound(), Duration(500));
        assert!(s.transition(PlanId(1), PlanId(0)).is_none());
    }

    #[test]
    fn atask_display_and_accessors() {
        assert_eq!(work(3, 1).to_string(), "t3/r1");
        assert_eq!(ATask::Check { task: TaskId(2) }.to_string(), "chk(t2)");
        assert_eq!(ATask::Verify { node: NodeId(1) }.to_string(), "ver(n1)");
        assert_eq!(work(3, 1).work_task(), Some(TaskId(3)));
        assert_eq!(ATask::Verify { node: NodeId(1) }.work_task(), None);
        assert!(work(0, 0).is_work());
    }

    #[test]
    fn strategy_value_semantics() {
        // Serialization proper is stubbed offline (see vendor/README.md);
        // equal construction and faithful clones are what the mode-change
        // convergence argument needs from the strategy value type.
        let s = tiny_strategy();
        assert_eq!(s, tiny_strategy());
        assert_eq!(s, s.clone());
        let mut other = tiny_strategy();
        other.r_bound = Duration(2_000);
        assert_ne!(s, other);
    }
}
