//! Task placement for one fault pattern.
//!
//! Section 4.1: "Each task is mapped to a node; this involves some 'hard'
//! constraints — for instance, no two replicas of the same task can run
//! on the same node — but also some heuristics: for instance, putting
//! replicas close to each other may save bandwidth, and putting checking
//! tasks close to replicas can make it easier to detect omission faults."
//!
//! The placer is greedy and deterministic: tasks are visited in dataflow
//! order; each lane picks the feasible node minimising a cost blending
//! (a) current CPU load, (b) communication distance to its input
//! producers, and (c) a reassignment penalty against the parent plan when
//! delta minimisation is on.

use btr_model::{ATask, Duration, NodeId, TaskId, Topology};
use btr_net::RoutingTable;
use btr_sched::comm_bound;
use btr_workload::{TaskKind, Workload};
use std::collections::{BTreeMap, BTreeSet};

/// Why placement failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// Not enough healthy nodes to separate a task's replicas.
    InsufficientNodes {
        /// The task needing separation.
        task: TaskId,
        /// Lanes required.
        need: u8,
        /// Healthy candidates available.
        have: usize,
    },
    /// A pinned sink's actuator node is faulty (task must be shed).
    ActuatorLost(TaskId),
    /// No sensing-capable healthy node remains for a source lane.
    NoSensorNode(TaskId),
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::InsufficientNodes { task, need, have } => {
                write!(f, "{task}: need {need} distinct nodes, have {have}")
            }
            PlacementError::ActuatorLost(t) => write!(f, "{t}: actuator node is faulty"),
            PlacementError::NoSensorNode(t) => write!(f, "{t}: no sensing node available"),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Knobs for the placement heuristics.
#[derive(Debug, Clone)]
pub struct PlaceOpts {
    /// Prefer nodes close (in comm-bound terms) to input producers.
    pub bandwidth_weight: f64,
    /// Prefer lightly loaded nodes.
    pub load_weight: f64,
    /// Penalty (µs-equivalent) for moving a task off its parent-plan node.
    pub delta_penalty: f64,
    /// Place checkers near their replicas (A2 ablation toggles this).
    pub checker_colocate: bool,
    /// Keep assignments from the parent plan when possible (A1 ablation).
    pub minimize_delta: bool,
}

impl Default for PlaceOpts {
    fn default() -> Self {
        PlaceOpts {
            bandwidth_weight: 1.0,
            load_weight: 1.0,
            delta_penalty: 5_000.0,
            checker_colocate: true,
            minimize_delta: true,
        }
    }
}

/// Place all augmented tasks for one fault pattern.
///
/// `lanes` comes from [`crate::augment::lane_counts`]; `parent` is the
/// plan the system would be leaving (for delta minimisation); `faulty`
/// is the fault pattern this plan must survive.
pub fn place(
    workload: &Workload,
    topo: &Topology,
    routing: &RoutingTable,
    lanes: &BTreeMap<TaskId, u8>,
    faulty: &BTreeSet<NodeId>,
    parent: Option<&BTreeMap<ATask, NodeId>>,
    opts: &PlaceOpts,
) -> Result<BTreeMap<ATask, NodeId>, PlacementError> {
    let healthy: Vec<NodeId> = topo
        .nodes()
        .iter()
        .map(|n| n.id)
        .filter(|n| !faulty.contains(n))
        .collect();
    let mut placement: BTreeMap<ATask, NodeId> = BTreeMap::new();
    // CPU load per node, indexed by node id (only healthy nodes host).
    let mut load = vec![0u64; topo.node_count()];

    let parent_node = |atask: ATask| -> Option<NodeId> {
        if !opts.minimize_delta {
            return None;
        }
        parent.and_then(|p| p.get(&atask).copied())
    };
    let distance = |from: NodeId, to: NodeId| -> f64 {
        comm_bound(topo, routing, from, to, 150).map_or(1e6, |d| d.as_micros() as f64)
    };
    let delta_penalty = |keep: Option<NodeId>, cand: NodeId| -> f64 {
        match keep {
            Some(pn) if pn != cand => opts.delta_penalty,
            _ => 0.0,
        }
    };

    for &tid in workload.topo_order() {
        let Some(&n_lanes) = lanes.get(&tid) else {
            continue;
        };
        let spec = workload.task(tid);
        let mut placed_lanes: Vec<NodeId> = Vec::with_capacity(n_lanes as usize);

        for r in 0..n_lanes {
            let atask = ATask::Work {
                task: tid,
                replica: r,
            };
            // Hard constraints first.
            let candidates: Vec<NodeId> = match spec.kind {
                TaskKind::Sink { pinned } => {
                    if faulty.contains(&pinned) {
                        return Err(PlacementError::ActuatorLost(tid));
                    }
                    vec![pinned]
                }
                TaskKind::Source { pinned } => {
                    // Lane 0 prefers the spec's own sensor; all lanes need
                    // sensing-capable healthy nodes, pairwise distinct.
                    let mut c: Vec<NodeId> = healthy
                        .iter()
                        .copied()
                        .filter(|&n| topo.node(n).can_sense && !placed_lanes.contains(&n))
                        .collect();
                    if c.is_empty() {
                        if r == 0 {
                            return Err(PlacementError::NoSensorNode(tid));
                        }
                        // Fewer sensors than lanes: stop adding lanes.
                        break;
                    }
                    if r == 0 && !faulty.contains(&pinned) && c.contains(&pinned) {
                        c = vec![pinned];
                    }
                    c
                }
                TaskKind::Compute => {
                    let c: Vec<NodeId> = healthy
                        .iter()
                        .copied()
                        .filter(|n| !placed_lanes.contains(n))
                        .collect();
                    if c.is_empty() {
                        return Err(PlacementError::InsufficientNodes {
                            task: tid,
                            need: n_lanes,
                            have: healthy.len(),
                        });
                    }
                    c
                }
            };

            // Score candidates: the lane's producers and its parent-plan
            // node are the same for every candidate.
            let producers: Vec<NodeId> = spec
                .inputs
                .iter()
                .filter_map(|&input| {
                    let lane = btr_sched::input_lane(r, *lanes.get(&input)?);
                    placement
                        .get(&ATask::Work {
                            task: input,
                            replica: lane,
                        })
                        .copied()
                })
                .collect();
            let keep = parent_node(atask);
            let node = cheapest(&candidates, |cand| {
                let mut cost = opts.load_weight * load[cand.index()] as f64;
                for &in_node in &producers {
                    cost += opts.bandwidth_weight * distance(in_node, cand);
                }
                cost + delta_penalty(keep, cand)
            });
            placed_lanes.push(node);
            load[node.index()] += spec.wcet.0;
            placement.insert(atask, node);
        }

        // Checker for replicated tasks.
        if placed_lanes.len() >= 2 {
            let chk = ATask::Check { task: tid };
            let keep = parent_node(chk);
            let node = cheapest(&healthy, |cand| {
                let dist_sum: f64 = placed_lanes.iter().map(|&rn| distance(rn, cand)).sum();
                let locality = if opts.checker_colocate {
                    opts.bandwidth_weight * dist_sum
                } else {
                    // Ablation: actively prefer distant checkers.
                    -(opts.bandwidth_weight * dist_sum)
                };
                opts.load_weight * load[cand.index()] as f64 + locality + delta_penalty(keep, cand)
            });
            load[node.index()] += 50;
            placement.insert(chk, node);
        }
    }

    // Verification reserve on every healthy node.
    for &n in &healthy {
        placement.insert(ATask::Verify { node: n }, n);
    }
    Ok(placement)
}

/// The candidate with the lowest cost; ties go to the lowest node id.
fn cheapest(candidates: &[NodeId], cost: impl Fn(NodeId) -> f64) -> NodeId {
    let mut best: Option<(f64, NodeId)> = None;
    for &cand in candidates {
        let c = cost(cand);
        let better = match best {
            None => true,
            Some((bc, bn)) => c < bc || (c == bc && cand < bn),
        };
        if better {
            best = Some((c, cand));
        }
    }
    best.expect("candidates nonempty").1
}

/// Count how many augmented tasks moved between two placements
/// (the plan-distance metric of Section 4.1).
pub fn placement_distance(a: &BTreeMap<ATask, NodeId>, b: &BTreeMap<ATask, NodeId>) -> usize {
    let mut moved = 0;
    for (atask, node) in b {
        if matches!(atask, ATask::Verify { .. }) {
            continue; // Verify slots are per-node fixtures, not tasks.
        }
        match a.get(atask) {
            Some(old) if old == node => {}
            _ => moved += 1,
        }
    }
    moved
}

/// Communication bound helper re-exported for strategy building.
pub fn worst_comm(topo: &Topology, routing: &RoutingTable, bytes: u32) -> Duration {
    let mut worst = Duration::ZERO;
    let n = topo.node_count();
    for a in 0..n {
        for b in 0..n {
            if let Some(d) = comm_bound(topo, routing, NodeId(a as u32), NodeId(b as u32), bytes) {
                worst = worst.max(d);
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::{lane_counts, ReplicationMode};
    use btr_model::{Criticality, Duration};
    use btr_workload::WorkloadBuilder;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    fn wl() -> Workload {
        let mut b = WorkloadBuilder::new(ms(10), 0);
        let s = b.source("s", NodeId(0), Duration(100), Criticality::Safety, ms(10));
        let c = b.compute("c", &[s], Duration(300), Criticality::Safety, ms(10), 256);
        b.sink(
            "k",
            NodeId(1),
            &[c],
            Duration(50),
            Criticality::Safety,
            ms(10),
        );
        b.build().unwrap()
    }

    #[test]
    fn replicas_on_distinct_nodes() {
        let w = wl();
        let topo = Topology::bus(5, 10_000, Duration(5));
        let routing = RoutingTable::new(&topo);
        let lanes = lane_counts(&w, ReplicationMode::Detection, 2, &BTreeSet::new(), 8);
        let p = place(
            &w,
            &topo,
            &routing,
            &lanes,
            &BTreeSet::new(),
            None,
            &PlaceOpts::default(),
        )
        .unwrap();
        // Three lanes of the compute task on three distinct nodes.
        let nodes: BTreeSet<NodeId> = (0..3)
            .map(|r| {
                p[&ATask::Work {
                    task: TaskId(1),
                    replica: r,
                }]
            })
            .collect();
        assert_eq!(nodes.len(), 3);
        // Checker placed.
        assert!(p.contains_key(&ATask::Check { task: TaskId(1) }));
        // Sink pinned.
        assert_eq!(
            p[&ATask::Work {
                task: TaskId(2),
                replica: 0
            }],
            NodeId(1)
        );
    }

    #[test]
    fn faulty_nodes_never_host() {
        let w = wl();
        let topo = Topology::bus(5, 10_000, Duration(5));
        let routing = RoutingTable::new(&topo);
        let lanes = lane_counts(&w, ReplicationMode::Detection, 1, &BTreeSet::new(), 8);
        let faulty = BTreeSet::from([NodeId(2), NodeId(3)]);
        let p = place(
            &w,
            &topo,
            &routing,
            &lanes,
            &faulty,
            None,
            &PlaceOpts::default(),
        )
        .unwrap();
        for node in p.values() {
            assert!(!faulty.contains(node));
        }
    }

    #[test]
    fn actuator_loss_reported() {
        let w = wl();
        let topo = Topology::bus(5, 10_000, Duration(5));
        let routing = RoutingTable::new(&topo);
        let lanes = lane_counts(&w, ReplicationMode::Detection, 1, &BTreeSet::new(), 8);
        let faulty = BTreeSet::from([NodeId(1)]); // The sink's actuator.
        let err = place(
            &w,
            &topo,
            &routing,
            &lanes,
            &faulty,
            None,
            &PlaceOpts::default(),
        )
        .unwrap_err();
        assert_eq!(err, PlacementError::ActuatorLost(TaskId(2)));
    }

    #[test]
    fn insufficient_nodes_for_lanes() {
        let w = wl();
        let topo = Topology::bus(2, 10_000, Duration(5));
        let routing = RoutingTable::new(&topo);
        // f = 2 -> 3 lanes of the compute task, but only 2 nodes.
        let lanes = lane_counts(&w, ReplicationMode::Detection, 2, &BTreeSet::new(), 8);
        let err = place(
            &w,
            &topo,
            &routing,
            &lanes,
            &BTreeSet::new(),
            None,
            &PlaceOpts::default(),
        )
        .unwrap_err();
        assert!(matches!(err, PlacementError::InsufficientNodes { .. }));
    }

    #[test]
    fn delta_minimisation_keeps_assignments() {
        let w = wl();
        let topo = Topology::bus(6, 10_000, Duration(5));
        let routing = RoutingTable::new(&topo);
        let lanes = lane_counts(&w, ReplicationMode::Detection, 1, &BTreeSet::new(), 8);
        let base = place(
            &w,
            &topo,
            &routing,
            &lanes,
            &BTreeSet::new(),
            None,
            &PlaceOpts::default(),
        )
        .unwrap();
        // Fail a node hosting nothing: the child plan should be identical
        // on all work/check tasks.
        let hosting: BTreeSet<NodeId> = base.values().copied().collect();
        let idle = (0..6).map(NodeId).find(|n| !hosting.contains(n));
        if let Some(idle) = idle {
            let faulty = BTreeSet::from([idle]);
            let routing2 = RoutingTable::avoiding(&topo, &faulty);
            let child = place(
                &w,
                &topo,
                &routing2,
                &lanes,
                &faulty,
                Some(&base),
                &PlaceOpts::default(),
            )
            .unwrap();
            assert_eq!(placement_distance(&base, &child), 0);
        }
        // Fail a hosting node: only tasks on it should move.
        let victim = base[&ATask::Work {
            task: TaskId(1),
            replica: 0,
        }];
        let faulty = BTreeSet::from([victim]);
        let routing2 = RoutingTable::avoiding(&topo, &faulty);
        let child = place(
            &w,
            &topo,
            &routing2,
            &lanes,
            &faulty,
            Some(&base),
            &PlaceOpts::default(),
        )
        .unwrap();
        let moved = placement_distance(&base, &child);
        let on_victim = base
            .iter()
            .filter(|(a, n)| !matches!(a, ATask::Verify { .. }) && **n == victim)
            .count();
        // Everything on the victim must move; anti-affinity may force at
        // most one sibling replica to shuffle as well.
        assert!(moved >= on_victim, "victim tasks must move");
        assert!(
            moved <= on_victim + 1,
            "delta minimisation moved {moved} tasks for {on_victim} lost"
        );
    }

    #[test]
    fn without_delta_minimisation_more_moves() {
        let w = wl();
        let topo = Topology::bus(6, 10_000, Duration(5));
        let routing = RoutingTable::new(&topo);
        let lanes = lane_counts(&w, ReplicationMode::Detection, 2, &BTreeSet::new(), 8);
        let base = place(
            &w,
            &topo,
            &routing,
            &lanes,
            &BTreeSet::new(),
            None,
            &PlaceOpts::default(),
        )
        .unwrap();
        let victim = base[&ATask::Work {
            task: TaskId(1),
            replica: 0,
        }];
        let faulty = BTreeSet::from([victim]);
        let routing2 = RoutingTable::avoiding(&topo, &faulty);
        let with = place(
            &w,
            &topo,
            &routing2,
            &lanes,
            &faulty,
            Some(&base),
            &PlaceOpts::default(),
        )
        .unwrap();
        let without_opts = PlaceOpts {
            minimize_delta: false,
            ..PlaceOpts::default()
        };
        let without = place(
            &w,
            &topo,
            &routing2,
            &lanes,
            &faulty,
            Some(&base),
            &without_opts,
        )
        .unwrap();
        assert!(
            placement_distance(&base, &with) <= placement_distance(&base, &without),
            "delta minimisation should not increase distance"
        );
    }

    #[test]
    fn worst_comm_positive() {
        let topo = Topology::ring(5, 2_000, Duration(5));
        let routing = RoutingTable::new(&topo);
        assert!(worst_comm(&topo, &routing, 100) > Duration::ZERO);
    }

    #[test]
    fn worst_comm_is_monotone_in_bytes() {
        // `build_strategy` bounds a transition's state transfer by one
        // `worst_comm` of the largest sender's bytes instead of the
        // maximum over one call per sender; that is the same value only
        // because every hop's serialisation time is monotone in bytes.
        let ladder = [
            0,
            1,
            2,
            149,
            150,
            420,
            65_535,
            65_536,
            u32::MAX - 1,
            u32::MAX,
        ];
        for topo in [
            Topology::bus(7, 150_000, Duration(5)),
            Topology::ring(9, 2_000, Duration(5)),
        ] {
            for avoid in [BTreeSet::new(), BTreeSet::from([NodeId(2)])] {
                let routing = RoutingTable::avoiding(&topo, &avoid);
                let bounds: Vec<Duration> = ladder
                    .iter()
                    .map(|&b| worst_comm(&topo, &routing, b))
                    .collect();
                assert!(bounds.is_sorted(), "not monotone: {bounds:?}");
                assert!(bounds[0] < bounds[ladder.len() - 1]);
            }
        }
    }
}
