//! Per-node view of the active plan: schedule slots, output routes,
//! expected inputs, and checker configurations.

use crate::checker::CheckerConfig;
use btr_model::{ATask, Duration, NodeId, Plan, ReplicaIdx, ScheduleEntry, TaskId};
use btr_sched::input_lane;
use btr_workload::{TaskKind, Workload};
use std::collections::{BTreeMap, BTreeSet};

/// Everything a node needs to execute its part of one plan.
#[derive(Debug, Clone)]
pub struct PlanView {
    /// My schedule slots, in plan order (indices stable for timers).
    pub(crate) entries: Vec<ScheduleEntry>,
    /// For each Work task I host: destination nodes for its output.
    pub(crate) out_routes: BTreeMap<ATask, Vec<NodeId>>,
    /// For each Work task I host: (input task, lane, producer node).
    pub(crate) in_flows: BTreeMap<ATask, Vec<(TaskId, ReplicaIdx, NodeId)>>,
    /// The distinct (task, lane) pairs of `in_flows`, sorted: the outputs
    /// this node stores when they arrive (see [`PlanView::wants`]).
    pub(crate) wanted: Vec<(TaskId, ReplicaIdx)>,
    /// Checker configurations for Check tasks I host.
    pub(crate) checkers: Vec<CheckerConfig>,
    /// The checker host of every checked task in the plan (all nodes, not
    /// just mine): consumers echo received outputs there so conflicting
    /// signed copies meet in one place (equivocation detection even when
    /// every victim task has a single consumer).
    pub(crate) checker_nodes: BTreeMap<TaskId, NodeId>,
    /// When each work lane is scheduled to *emit* within its period
    /// (slot start + WCET), for every lane in the plan. Receivers derive
    /// arrival deadlines from this: an output arriving much later than
    /// its emit instant is a timing fault, even if it beats the task's
    /// end-to-end deadline.
    pub(crate) emit_offsets: BTreeMap<(TaskId, ReplicaIdx), Duration>,
    /// For every node: the *distinct* other nodes that would notice its
    /// silence under this plan (consumers of its lanes plus checkers of
    /// its tasks). This is the accuser fan-in the omission tracker can
    /// expect — a suspect with only two plausible accusers can never
    /// accumulate three distinct peers, so its attribution threshold
    /// scales down, but only for accusations from exactly this set.
    pub(crate) accuser_sets: BTreeMap<NodeId, BTreeSet<NodeId>>,
    /// For every task: the nodes hosting any lane of any *transitive*
    /// input task under this plan. A producer whose upstream set
    /// intersects the known fault set is starved, not faulty — its
    /// silence is explainable and must not be declared (the
    /// false-attribution-cascade gate).
    pub(crate) upstream_hosts: BTreeMap<TaskId, BTreeSet<NodeId>>,
}

impl PlanView {
    /// True if one of this node's tasks consumes lane `replica` of
    /// `task` under this plan. Asked once per arriving output message.
    pub(crate) fn wants(&self, task: TaskId, replica: ReplicaIdx) -> bool {
        self.wanted.binary_search(&(task, replica)).is_ok()
    }

    /// The remote nodes this node's slice of the plan exchanges traffic
    /// with: destinations of its output routes (consumers and checkers),
    /// producers of its input flows, and — when it receives any remote
    /// flow — itself (the row producers route *toward*).
    ///
    /// This is the plan-derived routing demand: the demand-driven
    /// backend (`btr_net::DemandRoutes`) materialises one BFS row per
    /// destination on first use, so warming exactly this set
    /// (`btr_sim::World::warm_routes`) pre-builds every row the plan's
    /// data plane will touch. Heartbeats and evidence floods reach all
    /// peers and fill the remaining rows on demand.
    pub fn route_demand(&self, me: NodeId) -> BTreeSet<NodeId> {
        let mut out = BTreeSet::new();
        for targets in self.out_routes.values() {
            out.extend(targets.iter().copied());
        }
        let mut receives_remote = false;
        for (u, _, pnode) in self.in_flows.values().flatten() {
            if *pnode != me {
                receives_remote = true;
            }
            // Consumers echo the first accepted copy of each input to
            // its checker (equivocation detection), so the checker
            // host's row is demanded as well.
            if let Some(&chk) = self.checker_nodes.get(u) {
                if chk != me {
                    out.insert(chk);
                }
            }
        }
        // Checkers receive every checked lane's output, and remote
        // producers route toward this node: its own row is demanded.
        if receives_remote || !self.checkers.is_empty() {
            out.insert(me);
        }
        out
    }
}

/// Lane counts implied by a plan's placement.
pub(crate) fn plan_lanes(plan: &Plan) -> BTreeMap<TaskId, u8> {
    let mut lanes: BTreeMap<TaskId, u8> = BTreeMap::new();
    for atask in plan.placement.keys() {
        if let ATask::Work { task, replica } = atask {
            let e = lanes.entry(*task).or_insert(0);
            *e = (*e).max(replica + 1);
        }
    }
    lanes
}

/// Derive the node-local view of a plan.
pub fn derive_view(node: NodeId, plan: &Plan, workload: &Workload) -> PlanView {
    let lanes = plan_lanes(plan);
    let entries: Vec<ScheduleEntry> = plan
        .schedules
        .get(&node)
        .map(|s| s.entries.clone())
        .unwrap_or_default();

    let mut out_routes: BTreeMap<ATask, Vec<NodeId>> = BTreeMap::new();
    let mut in_flows: BTreeMap<ATask, Vec<(TaskId, ReplicaIdx, NodeId)>> = BTreeMap::new();
    let mut checkers = Vec::new();

    // Plan-global derivations (identical on every node).
    let mut checker_nodes: BTreeMap<TaskId, NodeId> = BTreeMap::new();
    for (atask, &n) in &plan.placement {
        if let ATask::Check { task } = atask {
            checker_nodes.insert(*task, n);
        }
    }
    let mut emit_offsets: BTreeMap<(TaskId, ReplicaIdx), Duration> = BTreeMap::new();
    for sched in plan.schedules.values() {
        for e in &sched.entries {
            if let ATask::Work { task, replica } = e.atask {
                emit_offsets.insert((task, replica), e.start + e.wcet);
            }
        }
    }
    let accuser_sets = derive_accuser_sets(plan, workload, &lanes, &checker_nodes);
    let upstream_hosts = derive_upstream_hosts(plan, workload, &lanes);

    for e in &entries {
        match e.atask {
            ATask::Work { task, replica } => {
                // Output routes: consumer lanes reading this lane, plus
                // the task's checker.
                let my_lanes = lanes.get(&task).copied().unwrap_or(1);
                let mut targets = Vec::new();
                for &c in workload.consumers_of(task) {
                    let Some(&c_lanes) = lanes.get(&c) else {
                        continue; // Consumer shed.
                    };
                    for rc in 0..c_lanes {
                        if input_lane(rc, my_lanes) == replica {
                            if let Some(n) = plan.node_of(ATask::Work {
                                task: c,
                                replica: rc,
                            }) {
                                targets.push(n);
                            }
                        }
                    }
                }
                if let Some(chk) = plan.checker_of(task) {
                    targets.push(chk);
                }
                targets.sort_unstable();
                targets.dedup();
                targets.retain(|&n| n != node); // Local delivery is direct.
                out_routes.insert(e.atask, targets);

                // Input flows.
                let spec = workload.task(task);
                let mut flows = Vec::new();
                for &u in &spec.inputs {
                    let Some(&u_lanes) = lanes.get(&u) else {
                        continue; // Input shed: degraded.
                    };
                    let lane = input_lane(replica, u_lanes);
                    if let Some(pnode) = plan.node_of(ATask::Work {
                        task: u,
                        replica: lane,
                    }) {
                        flows.push((u, lane, pnode));
                    }
                }
                in_flows.insert(e.atask, flows);
            }
            ATask::Check { task } => {
                let n_lanes = lanes.get(&task).copied().unwrap_or(0);
                let lane_nodes: Vec<NodeId> = (0..n_lanes)
                    .filter_map(|r| plan.node_of(ATask::Work { task, replica: r }))
                    .collect();
                let spec = workload.task(task);
                checkers.push(CheckerConfig {
                    task,
                    lanes: n_lanes,
                    lane_nodes,
                    is_source: matches!(spec.kind, TaskKind::Source { .. }),
                    inputs: spec.inputs.clone(),
                    seed: workload.seed,
                });
            }
            ATask::Verify { .. } => {}
        }
    }

    let mut wanted: Vec<(TaskId, ReplicaIdx)> = in_flows
        .values()
        .flatten()
        .map(|&(u, lane, _)| (u, lane))
        .collect();
    wanted.sort_unstable();
    wanted.dedup();

    PlanView {
        entries,
        out_routes,
        in_flows,
        wanted,
        checkers,
        checker_nodes,
        emit_offsets,
        accuser_sets,
        upstream_hosts,
    }
}

/// The distinct other nodes that would notice each node's silence under
/// `plan`: hosts of consumer lanes reading its lanes, plus checkers of the
/// tasks it hosts lanes of.
fn derive_accuser_sets(
    plan: &Plan,
    workload: &Workload,
    lanes: &BTreeMap<TaskId, u8>,
    checker_nodes: &BTreeMap<TaskId, NodeId>,
) -> BTreeMap<NodeId, BTreeSet<NodeId>> {
    let mut accusers: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
    for (atask, &host) in &plan.placement {
        let ATask::Work { task, replica } = *atask else {
            continue;
        };
        let set = accusers.entry(host).or_default();
        let my_lanes = lanes.get(&task).copied().unwrap_or(1);
        for &c in workload.consumers_of(task) {
            let Some(&c_lanes) = lanes.get(&c) else {
                continue;
            };
            for rc in 0..c_lanes {
                if input_lane(rc, my_lanes) == replica {
                    if let Some(n) = plan.node_of(ATask::Work {
                        task: c,
                        replica: rc,
                    }) {
                        if n != host {
                            set.insert(n);
                        }
                    }
                }
            }
        }
        if let Some(&chk) = checker_nodes.get(&task) {
            if chk != host {
                set.insert(chk);
            }
        }
    }
    accusers
}

/// Hosts of every lane of every transitive input task, per task.
fn derive_upstream_hosts(
    plan: &Plan,
    workload: &Workload,
    lanes: &BTreeMap<TaskId, u8>,
) -> BTreeMap<TaskId, BTreeSet<NodeId>> {
    // One forward pass in dataflow order (inputs strictly precede
    // consumers — id order is NOT guaranteed topological) closes the
    // transitive sets.
    let mut out: BTreeMap<TaskId, BTreeSet<NodeId>> = BTreeMap::new();
    for &t in workload.topo_order() {
        let spec = workload.task(t);
        let mut set = BTreeSet::new();
        for &u in &spec.inputs {
            if let Some(up) = out.get(&u) {
                set.extend(up.iter().copied());
            }
            let u_lanes = lanes.get(&u).copied().unwrap_or(0);
            for r in 0..u_lanes {
                if let Some(n) = plan.node_of(ATask::Work {
                    task: u,
                    replica: r,
                }) {
                    set.insert(n);
                }
            }
        }
        out.insert(spec.id, set);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_model::{Criticality, Duration, FaultSet, NodeSchedule, PlanId};
    use btr_workload::WorkloadBuilder;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    /// source(2 lanes) -> ctl(2 lanes) -> sink; checker for ctl on n3.
    fn setup() -> (Workload, Plan) {
        let mut b = WorkloadBuilder::new(ms(10), 1);
        let s = b.source("s", NodeId(0), Duration(100), Criticality::High, ms(10));
        let c = b.compute("c", &[s], Duration(200), Criticality::High, ms(10), 64);
        b.sink("k", NodeId(2), &[c], Duration(50), Criticality::High, ms(9));
        let w = b.build().unwrap();

        let mut placement = BTreeMap::new();
        let work = |t: u32, r: u8| ATask::Work {
            task: TaskId(t),
            replica: r,
        };
        placement.insert(work(0, 0), NodeId(0));
        placement.insert(work(0, 1), NodeId(1));
        placement.insert(work(1, 0), NodeId(0));
        placement.insert(work(1, 1), NodeId(1));
        placement.insert(work(2, 0), NodeId(2));
        placement.insert(ATask::Check { task: TaskId(1) }, NodeId(3));
        placement.insert(ATask::Check { task: TaskId(0) }, NodeId(3));

        let mut schedules: BTreeMap<NodeId, NodeSchedule> = BTreeMap::new();
        let mut add = |node: NodeId, atask: ATask, start: u64, wcet: u64| {
            schedules
                .entry(node)
                .or_default()
                .entries
                .push(ScheduleEntry {
                    atask,
                    start: Duration(start),
                    wcet: Duration(wcet),
                });
        };
        add(NodeId(0), work(0, 0), 0, 100);
        add(NodeId(0), work(1, 0), 200, 200);
        add(NodeId(1), work(0, 1), 0, 100);
        add(NodeId(1), work(1, 1), 200, 200);
        add(NodeId(2), work(2, 0), 600, 50);
        add(NodeId(3), ATask::Check { task: TaskId(0) }, 300, 30);
        add(NodeId(3), ATask::Check { task: TaskId(1) }, 500, 30);

        let plan = Plan {
            id: PlanId(0),
            fault_set: FaultSet::empty(),
            placement,
            schedules,
            shed: Default::default(),
        };
        (w, plan)
    }

    #[test]
    fn lanes_derived_from_placement() {
        let (_, plan) = setup();
        let lanes = plan_lanes(&plan);
        assert_eq!(lanes[&TaskId(0)], 2);
        assert_eq!(lanes[&TaskId(1)], 2);
        assert_eq!(lanes[&TaskId(2)], 1);
    }

    #[test]
    fn node0_routes_and_flows() {
        let (w, plan) = setup();
        let v = derive_view(NodeId(0), &plan, &w);
        assert_eq!(v.entries.len(), 2);
        // Source lane 0 output: consumed by ctl lane 0 (local, excluded)
        // and the checker on n3.
        let w00 = ATask::Work {
            task: TaskId(0),
            replica: 0,
        };
        assert_eq!(v.out_routes[&w00], vec![NodeId(3)]);
        // Ctl lane 0: feeds sink on n2 and checker on n3.
        let w10 = ATask::Work {
            task: TaskId(1),
            replica: 0,
        };
        assert_eq!(v.out_routes[&w10], vec![NodeId(2), NodeId(3)]);
        // Ctl lane 0 consumes source lane 0, produced locally on n0.
        assert_eq!(v.in_flows[&w10], vec![(TaskId(0), 0, NodeId(0))]);
        assert_eq!(v.wanted, vec![(TaskId(0), 0)]);
        assert!(v.wants(TaskId(0), 0) && !v.wants(TaskId(0), 1) && !v.wants(TaskId(1), 0));
        assert!(v.checkers.is_empty());
    }

    #[test]
    fn sink_consumes_primary_lane() {
        let (w, plan) = setup();
        let v = derive_view(NodeId(2), &plan, &w);
        let w20 = ATask::Work {
            task: TaskId(2),
            replica: 0,
        };
        assert_eq!(v.in_flows[&w20], vec![(TaskId(1), 0, NodeId(0))]);
        // Sink output goes nowhere (actuator).
        assert!(v.out_routes[&w20].is_empty());
    }

    #[test]
    fn checker_node_gets_configs() {
        let (w, plan) = setup();
        let v = derive_view(NodeId(3), &plan, &w);
        assert_eq!(v.checkers.len(), 2);
        let chk1 = v.checkers.iter().find(|c| c.task == TaskId(1)).unwrap();
        assert_eq!(chk1.lanes, 2);
        assert_eq!(chk1.lane_nodes, vec![NodeId(0), NodeId(1)]);
        assert!(!chk1.is_source);
        let chk0 = v.checkers.iter().find(|c| c.task == TaskId(0)).unwrap();
        assert!(chk0.is_source);
    }

    #[test]
    fn unplaced_node_has_empty_view() {
        let (w, plan) = setup();
        let v = derive_view(NodeId(7), &plan, &w);
        assert!(v.entries.is_empty());
        assert!(v.out_routes.is_empty());
        assert!(v.checkers.is_empty());
        assert!(v.route_demand(NodeId(7)).is_empty());
    }

    #[test]
    fn route_demand_covers_plan_flows() {
        let (w, plan) = setup();
        // Node 0 hosts source+ctl lane 0: sends to the sink host (n2)
        // and the checker (n3); consumes only locally, so its own row
        // is not demanded.
        let d0 = derive_view(NodeId(0), &plan, &w).route_demand(NodeId(0));
        assert_eq!(d0, BTreeSet::from([NodeId(2), NodeId(3)]));
        // Node 2 hosts the sink: receives the remote ctl lane (its own
        // row is demanded by the producer) and echoes to the checker.
        let d2 = derive_view(NodeId(2), &plan, &w).route_demand(NodeId(2));
        assert!(d2.contains(&NodeId(2)) && d2.contains(&NodeId(3)), "{d2:?}");
        // Node 3 hosts the checkers: every checked lane routes toward it.
        let d3 = derive_view(NodeId(3), &plan, &w).route_demand(NodeId(3));
        assert!(d3.contains(&NodeId(3)), "{d3:?}");
    }
}
