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
//! delta minimisation is on. The hard constraints are decided first and
//! on their own (`broken_constraint`); the scoring works in arrays over
//! the mode's `AtaskIndex` (`Placer`) and reads distances from the
//! mode's `CommTable`.

use btr_model::{ATask, Duration, LinkSpec, NodeId, TaskId, Topology};
use btr_net::{hop_bound, slice_rate, RoutingTable};
use btr_sched::{AtaskIndex, UNPLACED};
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

/// Penalty (µs-equivalent) for moving a task off its parent-plan node.
/// A candidate's cost is otherwise its load plus its distance to the
/// lane's producers, both in µs.
const DELTA_PENALTY: f64 = 5_000.0;

/// The placement heuristics' two ablation switches.
#[derive(Debug, Clone)]
pub struct PlaceOpts {
    /// Place checkers near their replicas (A2 ablation toggles this).
    pub checker_colocate: bool,
    /// Keep assignments from the parent plan when possible (A1 ablation).
    pub minimize_delta: bool,
}

impl Default for PlaceOpts {
    fn default() -> Self {
        PlaceOpts {
            checker_colocate: true,
            minimize_delta: true,
        }
    }
}

/// How many nodes a fault pattern leaves to host tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Healthy {
    /// Healthy nodes.
    pub(crate) nodes: usize,
    /// Healthy nodes with sensors attached.
    pub(crate) sensors: usize,
}

impl Healthy {
    pub(crate) fn count(topo: &Topology, faulty: &BTreeSet<NodeId>) -> Healthy {
        let healthy = || topo.nodes().iter().filter(|n| !faulty.contains(&n.id));
        Healthy {
            nodes: healthy().count(),
            sensors: healthy().filter(|n| n.can_sense).count(),
        }
    }
}

/// The first hard constraint these lanes break under this fault pattern:
/// exactly the error [`place`] returns, or `None` where it succeeds.
///
/// The placer visits tasks in dataflow order and fails at the first lane
/// without a candidate node. Whether a lane has one never depends on
/// where earlier lanes went: a sink's only candidate is its actuator
/// node; a source's first lane can take any healthy sensing node (later
/// lanes are dropped, not failed, when the sensors run out); and lane `r`
/// of a compute task can take any healthy node but the `r` distinct ones
/// its siblings hold. So the walk needs no placement, and the shed loop
/// can ask it before anything is scored.
pub(crate) fn broken_constraint(
    workload: &Workload,
    lanes: &BTreeMap<TaskId, u8>,
    faulty: &BTreeSet<NodeId>,
    healthy: Healthy,
) -> Option<PlacementError> {
    workload.topo_order().iter().find_map(|&tid| {
        let n_lanes = *lanes.get(&tid)?;
        if n_lanes == 0 {
            return None;
        }
        match workload.task(tid).kind {
            TaskKind::Sink { pinned } => faulty
                .contains(&pinned)
                .then_some(PlacementError::ActuatorLost(tid)),
            TaskKind::Source { .. } => {
                (healthy.sensors == 0).then_some(PlacementError::NoSensorNode(tid))
            }
            TaskKind::Compute => {
                (n_lanes as usize > healthy.nodes).then_some(PlacementError::InsufficientNodes {
                    task: tid,
                    need: n_lanes,
                    have: healthy.nodes,
                })
            }
        }
    })
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
    if let Some(e) = broken_constraint(workload, lanes, faulty, Healthy::count(topo, faulty)) {
        return Err(e);
    }
    let mut comm = CommTable::new(topo);
    comm.read_routes(routing);
    Ok(Placer::default().place(workload, topo, &comm, lanes, faulty, parent, opts))
}

/// The placer's working state, reused from mode to mode: arrays over the
/// mode's [`AtaskIndex`] and over the nodes, in place of maps keyed by
/// `ATask`.
#[derive(Debug, Default)]
pub(crate) struct Placer {
    index: AtaskIndex,
    /// Where each work and check task went ([`UNPLACED`] until it has).
    node_of: Vec<u32>,
    /// Where the parent plan had it ([`UNPLACED`]: nowhere, or not asked).
    keep: Vec<u32>,
    /// CPU load per node, indexed by node id (only healthy nodes host).
    load: Vec<u64>,
    healthy: Vec<NodeId>,
    /// Nodes of the lane being placed's input producers.
    producers: Vec<NodeId>,
}

#[cfg(test)]
thread_local! {
    /// Calls of [`Placer::place`] on this thread.
    pub(crate) static PLACEMENTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Placer {
    /// Place a mode whose lanes break no hard constraint
    /// ([`broken_constraint`] returned `None`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn place(
        &mut self,
        workload: &Workload,
        topo: &Topology,
        comm: &CommTable,
        lanes: &BTreeMap<TaskId, u8>,
        faulty: &BTreeSet<NodeId>,
        parent: Option<&BTreeMap<ATask, NodeId>>,
        opts: &PlaceOpts,
    ) -> BTreeMap<ATask, NodeId> {
        #[cfg(test)]
        PLACEMENTS.with(|n| n.set(n.get() + 1));
        let Placer {
            index,
            node_of,
            keep,
            load,
            healthy,
            producers,
        } = self;
        healthy.clear();
        healthy.extend(
            topo.nodes()
                .iter()
                .map(|n| n.id)
                .filter(|n| !faulty.contains(n)),
        );
        load.clear();
        load.resize(topo.node_count(), 0);
        index.set(workload.len(), lanes);
        node_of.clear();
        node_of.resize(index.slots(), UNPLACED);
        match parent.filter(|_| opts.minimize_delta) {
            Some(parent) => index.read_placement(parent, keep),
            None => {
                keep.clear();
                keep.resize(index.slots(), UNPLACED);
            }
        }
        let delta_penalty = |keep: u32, cand: NodeId| -> f64 {
            if keep != UNPLACED && keep != cand.0 {
                DELTA_PENALTY
            } else {
                0.0
            }
        };

        for &tid in workload.topo_order() {
            let Some(n_lanes) = index.lanes(tid) else {
                continue;
            };
            let spec = workload.task(tid);
            let first = index.work(tid, 0);
            // Lanes placed so far are `node_of[first..first + placed]`.
            let mut placed = 0;
            for r in 0..n_lanes {
                let slot = first + r as usize;
                // Hard constraints first: a lane never shares a node
                // with a sibling.
                let (siblings, _) = node_of[first..].split_at(placed);
                let free = |n: &NodeId| !siblings.contains(&n.0);
                // The lane's producers and its parent-plan node are the
                // same for every candidate.
                producers.clear();
                producers.extend(spec.inputs.iter().filter_map(|&input| {
                    let lane = btr_sched::input_lane(r, index.lanes(input)?);
                    let node = node_of[index.work(input, lane)];
                    (node != UNPLACED).then_some(NodeId(node))
                }));
                let cost = |cand: NodeId| {
                    let mut cost = load[cand.index()] as f64;
                    for &in_node in producers.iter() {
                        cost += comm.distance(in_node, cand);
                    }
                    cost + delta_penalty(keep[slot], cand)
                };
                let node = match spec.kind {
                    TaskKind::Sink { pinned } => Some(pinned),
                    TaskKind::Source { pinned } => {
                        // Lane 0 prefers the spec's own sensor; all lanes
                        // need sensing-capable healthy nodes, pairwise
                        // distinct. Fewer sensors than lanes: stop adding
                        // lanes.
                        let senses = |n: &NodeId| topo.node(*n).can_sense;
                        if r == 0 && healthy.binary_search(&pinned).is_ok() && senses(&pinned) {
                            Some(pinned)
                        } else {
                            cheapest(healthy.iter().copied().filter(senses).filter(free), cost)
                        }
                    }
                    TaskKind::Compute => Some(
                        cheapest(healthy.iter().copied().filter(free), cost)
                            .expect("a mode that breaks no constraint has a node per lane"),
                    ),
                };
                let Some(node) = node else {
                    break;
                };
                node_of[slot] = node.0;
                placed += 1;
                load[node.index()] += spec.wcet.0;
            }

            // Checker for replicated tasks.
            if placed >= 2 {
                let slot = index.check(tid);
                let replicas = &node_of[first..first + placed];
                let node = cheapest(healthy.iter().copied(), |cand| {
                    let dist_sum: f64 = replicas
                        .iter()
                        .map(|&rn| comm.distance(NodeId(rn), cand))
                        .sum();
                    let locality = if opts.checker_colocate {
                        dist_sum
                    } else {
                        // Ablation: actively prefer distant checkers.
                        -dist_sum
                    };
                    load[cand.index()] as f64 + locality + delta_penalty(keep[slot], cand)
                })
                .expect("a mode with two lanes placed has a healthy node");
                load[node.index()] += 50;
                node_of[slot] = node.0;
            }
        }

        // Slots ascend in `ATask` order and the verification reserves (one
        // on every healthy node) sort after them, so the map is built
        // from sorted rows in one pass.
        let tasks = index
            .atasks()
            .zip(node_of.iter())
            .filter(|&(_, &node)| node != UNPLACED)
            .map(|(atask, &node)| (atask, NodeId(node)));
        let reserves = healthy.iter().map(|&n| (ATask::Verify { node: n }, n));
        tasks.chain(reserves).collect()
    }
}

/// The candidate with the lowest cost; ties go to the lowest node id
/// (candidates come in ascending order).
fn cheapest(
    candidates: impl Iterator<Item = NodeId>,
    cost: impl Fn(NodeId) -> f64,
) -> Option<NodeId> {
    let mut best: Option<(f64, NodeId)> = None;
    for cand in candidates {
        let c = cost(cand);
        if best.is_none_or(|(bc, _)| c < bc) {
            best = Some((c, cand));
        }
    }
    best.map(|(_, node)| node)
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

/// One mode's communication bounds, read off its routes in one pass.
///
/// [`btr_sched::comm_bound`] is a sum of per-hop terms that depend only on the
/// link's slice rate and latency — its *class* — so a route's bound for
/// any message size is fixed by its signature: how many hops it takes in
/// each class. A bus has one signature; a mesh of like links one per hop
/// count. One more hop in any class never shortens a bound, so the worst
/// bound over all routes is the worst over the signatures no other
/// signature dominates, and that front is all the table keeps: the
/// evidence-distribution and state-transfer bounds of a mode become a
/// maximum over a handful of signatures instead of a sweep over n²
/// routes each. The same pass records every route's bound for the
/// placer's 150-byte probe message, which every candidate of every lane
/// asks for.
#[derive(Debug)]
pub(crate) struct CommTable<'a> {
    /// Class of each link, by link id.
    class_of: Vec<u16>,
    /// One link of each class.
    classes: Vec<&'a LinkSpec>,
    /// The placer's probe message's hop bound in each class, µs.
    probe: Vec<u64>,
    nodes: usize,
    /// The placer's distance, `from * nodes + to`.
    distance: Vec<f64>,
    /// The undominated route signatures: hops per class,
    /// `classes.len()` entries each.
    front: Vec<u16>,
    /// The signature being counted.
    signature: Vec<u16>,
}

/// Size of the message the placer prices candidate nodes with.
const PROBE_BYTES: u32 = 150;

impl<'a> CommTable<'a> {
    /// Classify the platform's links; routes are read per mode.
    pub(crate) fn new(topo: &'a Topology) -> CommTable<'a> {
        let mut classes: Vec<&LinkSpec> = Vec::new();
        let class = |l: &LinkSpec| (slice_rate(l), l.latency);
        let class_of = topo
            .links()
            .iter()
            .map(|link| {
                let known = classes.iter().position(|c| class(c) == class(link));
                known.unwrap_or_else(|| {
                    classes.push(link);
                    classes.len() - 1
                }) as u16
            })
            .collect();
        CommTable {
            class_of,
            probe: classes
                .iter()
                .map(|c| hop_bound(c, PROBE_BYTES).as_micros())
                .collect(),
            signature: vec![0; classes.len()],
            classes,
            nodes: topo.node_count(),
            distance: Vec::new(),
            front: Vec::new(),
        }
    }

    /// Read one mode's routes.
    pub(crate) fn read_routes(&mut self, routing: &RoutingTable) {
        let CommTable {
            class_of,
            probe,
            nodes,
            distance,
            front,
            signature,
            ..
        } = self;
        front.clear();
        distance.clear();
        distance.reserve(*nodes * *nodes);
        for from in 0..*nodes as u32 {
            for to in 0..*nodes as u32 {
                // A node reaches itself over no link, at no cost.
                distance.push(match routing.path_and_links(NodeId(from), NodeId(to)) {
                    None => 1e6,
                    Some((_, [])) => 0.0,
                    Some((_, links)) => {
                        let first = class_of[links[0].index()];
                        let mut uniform = true;
                        let mut bound = 0;
                        for link in links {
                            let class = class_of[link.index()];
                            uniform &= class == first;
                            bound += probe[class as usize];
                        }
                        // Most routes stay within one link class, and
                        // then the newest kept signature dominates all
                        // but the longest: those need no counting.
                        let newest = front.len().saturating_sub(signature.len());
                        let hops = front.get(newest + first as usize);
                        if !(uniform && hops.is_some_and(|&kept| kept as usize >= links.len())) {
                            signature.fill(0);
                            for link in links {
                                signature[class_of[link.index()] as usize] += 1;
                            }
                            admit(front, signature);
                        }
                        bound as f64
                    }
                });
            }
        }
    }

    /// The placer's price of sending from `from` to `to`: the bound on a
    /// probe message in microseconds, 10⁶ where there is no route.
    #[inline]
    pub(crate) fn distance(&self, from: NodeId, to: NodeId) -> f64 {
        self.distance[from.index() * self.nodes + to.index()]
    }

    /// The worst [`btr_sched::comm_bound`] of `bytes` over every routed pair of the
    /// mode.
    pub(crate) fn worst(&self, bytes: u32) -> Duration {
        let width = self.classes.len();
        let mut worst = Duration::ZERO;
        for signature in self.front.chunks_exact(width.max(1)) {
            let mut bound = Duration::ZERO;
            for (&hops, class) in signature.iter().zip(&self.classes) {
                bound += Duration(hops as u64 * hop_bound(class, bytes).as_micros());
            }
            worst = worst.max(bound);
        }
        worst
    }
}

/// True if route signature `a` takes at least `b`'s hops in every class.
#[inline]
fn dominates(a: &[u16], b: &[u16]) -> bool {
    a.iter().zip(b).all(|(a, b)| a >= b)
}

/// Keep `signature` in `front` if no kept signature dominates it, in
/// place of those it dominates.
fn admit(front: &mut Vec<u16>, signature: &[u16]) {
    let width = signature.len();
    if front
        .chunks_exact(width)
        .any(|kept| dominates(kept, signature))
    {
        return;
    }
    let mut len = 0;
    for at in (0..front.len()).step_by(width) {
        if !dominates(signature, &front[at..at + width]) {
            front.copy_within(at..at + width, len);
            len += width;
        }
    }
    front.truncate(len);
    front.extend_from_slice(signature);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::{lane_counts, ReplicationMode};
    use btr_model::{Criticality, Duration};
    use btr_sched::comm_bound;
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

    fn worst_comm(topo: &Topology, routing: &RoutingTable, bytes: u32) -> Duration {
        let mut comm = CommTable::new(topo);
        comm.read_routes(routing);
        comm.worst(bytes)
    }

    #[test]
    fn worst_comm_positive() {
        let topo = Topology::ring(5, 2_000, Duration(5));
        let routing = RoutingTable::new(&topo);
        assert!(worst_comm(&topo, &routing, 100) > Duration::ZERO);
    }

    /// A ring of buses: three 4-node buses at 40 kB/ms, their heads
    /// joined by point-to-point links at 3 kB/ms and another latency —
    /// two link classes (a bus slice is 10 kB/ms), routes of one to four
    /// hops.
    fn ring_of_buses() -> Topology {
        let mut b = btr_model::TopologyBuilder::new();
        let nodes: Vec<NodeId> = (0..12).map(|_| b.full_node()).collect();
        for bus in nodes.chunks(4) {
            b.link(bus, 40_000, Duration(5));
        }
        for i in 0..3 {
            b.link(&[nodes[4 * i], nodes[(4 * i + 4) % 12]], 3_000, Duration(9));
        }
        b.build().unwrap()
    }

    #[test]
    fn comm_table_is_the_sweep_over_comm_bound() {
        let lat = Duration(5);
        let platforms = [
            Topology::bus(7, 150_000, lat),
            Topology::ring(9, 2_000, lat),
            Topology::mesh(3, 4, 3_000, lat),
            Topology::dual_bus(6, 40_000, lat),
            btr_topo::fat_tree(4, 3, 5_000, lat).unwrap(),
            btr_topo::scada_star(25, 5_000, lat).unwrap(),
            ring_of_buses(),
        ];
        for topo in &platforms {
            let mut comm = CommTable::new(topo);
            for avoid in [BTreeSet::new(), BTreeSet::from([NodeId(1), NodeId(4)])] {
                let routing = RoutingTable::avoiding(topo, &avoid);
                // One table serves mode after mode.
                comm.read_routes(&routing);
                let pairs = || {
                    let n = topo.node_count() as u32;
                    (0..n).flat_map(move |a| (0..n).map(move |b| (NodeId(a), NodeId(b))))
                };
                for (a, b) in pairs() {
                    let swept =
                        comm_bound(topo, &routing, a, b, 150).map_or(1e6, |d| d.as_micros() as f64);
                    assert_eq!(comm.distance(a, b), swept, "{a} -> {b}");
                }
                for bytes in [0, 1, 150, 420, 65_536, u32::MAX] {
                    let swept = pairs()
                        .filter_map(|(a, b)| comm_bound(topo, &routing, a, b, bytes))
                        .max()
                        .unwrap();
                    assert_eq!(comm.worst(bytes), swept, "{bytes} B");
                }
            }
        }
        // Two classes: the front holds more than one signature.
        let topo = ring_of_buses();
        let mut comm = CommTable::new(&topo);
        comm.read_routes(&RoutingTable::new(&topo));
        assert_eq!(comm.classes.len(), 2);
        assert!(comm.front.len() >= 2);
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
