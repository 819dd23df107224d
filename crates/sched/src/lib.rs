//! Schedule synthesis and schedulability analysis.
//!
//! Section 4.1 of the paper: "The planner then tries to derive a schedule
//! for each node and a resource allocation for each link. If the system
//! is not schedulable ... the planner removes some of the less critical
//! tasks and retries."
//!
//! This crate is the "derive a schedule" half: given a placement of
//! augmented tasks (replicas, checkers, verification slots) onto nodes,
//! it list-schedules the dataflow in topological order, accounting for
//! message latency between nodes on their reserved link slices, and
//! checks deadlines, period fit, and link-bandwidth budgets. The
//! criticality-shedding retry loop lives in `btr-planner`.
//!
//! It also answers the domain's favourite cost question — "the impact on
//! clock frequency is a common evaluation metric" (Section 2) — via
//! [`min_speed_pct`]: the slowest global CPU speed at which the system is
//! still schedulable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm;
mod index;

pub use comm::comm_bound;
pub use index::{AtaskIndex, UNPLACED};

use btr_model::{ATask, Duration, LinkId, NodeId, NodeSchedule, ScheduleEntry, TaskId, Topology};
use btr_net::RoutingTable;
use btr_workload::{TaskKind, Workload};
use std::collections::BTreeMap;

/// Base wire size of one task-output envelope (header + signed output).
pub const OUTPUT_WIRE_BYTES: u32 = 200;
/// Additional wire bytes per carried witness (signed input).
pub const WITNESS_WIRE_BYTES: u32 = 120;
/// Slack added to every message-arrival bound, covering control-plane
/// competition on the sender's reserved slice (heartbeat bursts at
/// period boundaries, evidence floods during recovery).
const COMM_SLACK: Duration = Duration(300);

/// Estimated wire size of a task output carrying `fanin` witnesses.
pub fn output_wire_estimate(fanin: usize) -> u32 {
    OUTPUT_WIRE_BYTES + WITNESS_WIRE_BYTES * fanin as u32
}

/// Scheduling parameters. The period every node's schedule and every
/// link share is fitted to is the workload's.
#[derive(Debug, Clone)]
pub struct SchedParams {
    /// Global CPU speed in percent of nominal (sweeps the clock-frequency
    /// metric; per-node speeds from the topology are multiplied in).
    pub speed_pct: u32,
    /// Per-node CPU reserve for evidence verification (the paper's
    /// "verification tasks ... consume resources at runtime and must
    /// therefore be scheduled together with the workload tasks").
    pub verify_reserve: Duration,
    /// Fraction of each link share reserved for control traffic
    /// (evidence distribution and mode changes, Section 4.3).
    pub control_reserve_frac: f64,
    /// Voting schemes (BFT/ZZ baselines) read *every* lane of each input:
    /// readiness waits for the slowest lane and bandwidth is charged for
    /// all lane-to-consumer flows. BTR's lane-matched dataflow leaves
    /// this off.
    pub consume_all_lanes: bool,
}

impl Default for SchedParams {
    fn default() -> Self {
        SchedParams {
            speed_pct: 100,
            verify_reserve: Duration(200),
            control_reserve_frac: 0.2,
            consume_all_lanes: false,
        }
    }
}

/// Why synthesis failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// A lane's sink output misses its deadline.
    DeadlineMiss {
        /// The sink (or checked) task.
        task: TaskId,
        /// When it would finish.
        finish: Duration,
        /// Its deadline.
        deadline: Duration,
    },
    /// A node's schedule does not fit in the period.
    PeriodOverrun {
        /// The overloaded node.
        node: NodeId,
    },
    /// A sender's data-plane traffic exceeds its link share.
    BandwidthExceeded {
        /// The sending node.
        node: NodeId,
        /// Demanded bytes per period.
        demand: u64,
        /// Available bytes per period after the control reserve.
        capacity: u64,
    },
    /// The placement is missing a required augmented task.
    MissingPlacement(ATask),
    /// Two placed nodes have no route between them.
    NoRoute {
        /// Producer node.
        from: NodeId,
        /// Consumer node.
        to: NodeId,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::DeadlineMiss {
                task,
                finish,
                deadline,
            } => write!(f, "{task} finishes at {finish} after deadline {deadline}"),
            SchedError::PeriodOverrun { node } => write!(f, "schedule overruns period on {node}"),
            SchedError::BandwidthExceeded {
                node,
                demand,
                capacity,
            } => write!(f, "{node} needs {demand} B/period, share is {capacity}"),
            SchedError::MissingPlacement(a) => write!(f, "no placement for {a}"),
            SchedError::NoRoute { from, to } => write!(f, "no route {from} -> {to}"),
        }
    }
}

impl std::error::Error for SchedError {}

/// The synthesised distributed schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Synthesis {
    /// Per-node cyclic schedules.
    pub schedules: BTreeMap<NodeId, NodeSchedule>,
    /// Completion offset of the latest task in the period.
    pub makespan: Duration,
    /// Finish offset of each task's primary lane (for deadline reports).
    pub primary_finish: BTreeMap<TaskId, Duration>,
}

/// Which upstream replica a consumer lane reads.
///
/// Replica lanes are "vertical": lane `r` of a task consumes lane
/// `min(r, producer_lanes - 1)` of each input. Lane 0 is the primary
/// pipeline that feeds sinks; checkers read *all* lanes of their task.
pub fn input_lane(consumer_replica: u8, producer_lanes: u8) -> u8 {
    consumer_replica.min(producer_lanes.saturating_sub(1))
}

/// WCET budget for a checking task over `lanes` replica outputs.
pub fn check_wcet(lanes: u8) -> Duration {
    Duration(20 + 10 * lanes as u64)
}

/// Synthesise schedules for a placement.
///
/// `lanes[task]` is the replica count for each *unshed* workload task;
/// shed tasks simply do not appear. `placement` must contain a node for
/// every `ATask::Work { task, replica < lanes[task] }`, for every
/// `ATask::Check { task }` with `lanes[task] >= 2`, and may contain
/// `ATask::Verify` entries for per-node reserves.
///
/// The maps are read once into arrays over the [`AtaskIndex`]; every
/// step of the list scheduler is then an indexed load, and the maps of
/// the returned [`Synthesis`] are each built once from sorted rows.
pub fn synthesize(
    workload: &Workload,
    topo: &Topology,
    routing: &RoutingTable,
    placement: &BTreeMap<ATask, NodeId>,
    lanes: &BTreeMap<TaskId, u8>,
    params: &SchedParams,
) -> Result<Synthesis, SchedError> {
    let mut index = AtaskIndex::default();
    index.set(workload.len(), lanes);
    let mut node_of = Vec::new();
    index.read_placement(placement, &mut node_of);
    let placed = |atask: ATask, slot: usize| -> Result<NodeId, SchedError> {
        match node_of[slot] {
            UNPLACED => Err(SchedError::MissingPlacement(atask)),
            node => Ok(NodeId(node)),
        }
    };
    let mut finish = vec![Duration::ZERO; index.slots()];
    let mut timeline = Timeline::new(topo, params, index.slots());
    let mut demand = LinkDemand::new(topo, routing);

    // Schedule workload tasks in topological order; within a task,
    // replicas ascending, then the checker.
    for &tid in workload.topo_order() {
        let Some(n_lanes) = index.lanes(tid) else {
            continue; // Shed task.
        };
        let spec = workload.task(tid);
        for r in 0..n_lanes {
            let atask = ATask::Work {
                task: tid,
                replica: r,
            };
            let node = placed(atask, index.work(tid, r))?;
            // Ready when the needed input lanes' outputs have arrived
            // here: the matched lane for BTR, every lane for voting
            // baselines.
            let mut ready = Duration::ZERO;
            for &input in &spec.inputs {
                let Some(in_lanes) = index.lanes(input) else {
                    continue; // Input shed: task runs degraded (no data).
                };
                let needed = if params.consume_all_lanes {
                    0..in_lanes
                } else {
                    let lane = input_lane(r, in_lanes);
                    lane..lane + 1
                };
                // The producer's message carries one witness per input
                // of the *producer* task.
                let bytes = output_wire_estimate(workload.task(input).inputs.len());
                for lane in needed {
                    let in_slot = index.work(input, lane);
                    let in_atask = ATask::Work {
                        task: input,
                        replica: lane,
                    };
                    let in_node = placed(in_atask, in_slot)?;
                    let sent = finish[in_slot];
                    ready = ready.max(sent + demand.send(in_node, node, bytes)?);
                }
            }
            let end = timeline.run(atask, node, ready, spec.wcet);
            finish[index.work(tid, r)] = end;
        }
        // Checking task (only for replicated tasks).
        if n_lanes >= 2 {
            let chk = ATask::Check { task: tid };
            let node = placed(chk, index.check(tid))?;
            let mut ready = Duration::ZERO;
            let bytes = output_wire_estimate(spec.inputs.len());
            for r in 0..n_lanes {
                let in_slot = index.work(tid, r);
                let in_node = NodeId(node_of[in_slot]);
                ready = ready.max(finish[in_slot] + demand.send(in_node, node, bytes)?);
            }
            finish[index.check(tid)] = timeline.run(chk, node, ready, check_wcet(n_lanes));
        }
    }

    // Deadline checks on the primary lane of every scheduled task, in
    // task order. For sinks the finish time includes delivering to the
    // actuator (the sink task runs *on* the actuating node).
    let primary = |spec: &btr_workload::TaskSpec| {
        matches!(index.lanes(spec.id), Some(1..)).then(|| (spec.id, finish[index.work(spec.id, 0)]))
    };
    for (tid, f) in workload.tasks().iter().filter_map(primary) {
        let deadline = workload.task(tid).deadline;
        if f > deadline {
            return Err(SchedError::DeadlineMiss {
                task: tid,
                finish: f,
                deadline,
            });
        }
    }

    // Verification reserves: appended after the data-plane slots.
    // (`Verify` is the last `ATask` variant, so the range is exactly the
    // reserves.)
    for (&atask, &node) in placement.range(ATask::Verify { node: NodeId(0) }..) {
        timeline.run(atask, node, Duration::ZERO, params.verify_reserve);
    }

    // Period fit. A node nothing ran on is free at zero.
    let mut makespan = Duration::ZERO;
    for (i, &avail) in timeline.node_avail.iter().enumerate() {
        if avail > workload.period {
            return Err(SchedError::PeriodOverrun {
                node: NodeId(i as u32),
            });
        }
        makespan = makespan.max(avail);
    }

    // Link bandwidth: each sender's demand must fit its share minus the
    // control reserve.
    for link in topo.links() {
        let share = btr_net::slice_rate(link) * workload.period.as_micros() / 1_000;
        let control = (share as f64 * params.control_reserve_frac) as u64;
        let capacity = share.saturating_sub(control);
        if let Some((node, demand)) = link
            .endpoints
            .iter()
            .map(|&node| (node, demand.of(node, link.id)))
            .find(|&(_, demand)| demand > capacity)
        {
            return Err(SchedError::BandwidthExceeded {
                node,
                demand,
                capacity,
            });
        }
    }

    Ok(Synthesis {
        schedules: timeline.into_schedules(),
        makespan,
        primary_finish: workload.tasks().iter().filter_map(primary).collect(),
    })
}

/// The per-node timelines under construction.
struct Timeline<'a> {
    topo: &'a Topology,
    params: &'a SchedParams,
    /// When each node is next free.
    node_avail: Vec<Duration>,
    /// Every slot in creation order, with its node.
    slots: Vec<(NodeId, ScheduleEntry)>,
}

impl<'a> Timeline<'a> {
    fn new(topo: &'a Topology, params: &'a SchedParams, atasks: usize) -> Self {
        Timeline {
            topo,
            params,
            node_avail: vec![Duration::ZERO; topo.node_count()],
            slots: Vec::with_capacity(atasks + topo.node_count()),
        }
    }

    /// Run `atask` on `node` as soon as it is `ready` and the node is
    /// free, for `wcet` at nominal speed; returns when it ends.
    fn run(&mut self, atask: ATask, node: NodeId, ready: Duration, wcet: Duration) -> Duration {
        let node_speed = self.topo.node(node).speed_pct.max(1) as u64;
        let eff = node_speed * self.params.speed_pct.max(1) as u64 / 100;
        let wcet = Duration((wcet.0 * 100).div_ceil(eff.max(1)));
        let start = ready.max(self.node_avail[node.index()]);
        let end = start + wcet;
        self.node_avail[node.index()] = end;
        self.slots
            .push((node, ScheduleEntry { atask, start, wcet }));
        end
    }

    /// One sorted schedule per node that runs anything. A strategy keeps
    /// one of these per node per plan, so each is allocated at its exact
    /// size.
    fn into_schedules(self) -> BTreeMap<NodeId, NodeSchedule> {
        let mut count = vec![0usize; self.node_avail.len()];
        for (node, _) in &self.slots {
            count[node.index()] += 1;
        }
        let mut entries: Vec<Vec<ScheduleEntry>> =
            count.into_iter().map(Vec::with_capacity).collect();
        for (node, entry) in self.slots {
            entries[node.index()].push(entry);
        }
        entries
            .into_iter()
            .enumerate()
            .filter(|(_, es)| !es.is_empty())
            .map(|(i, mut es)| {
                es.sort_unstable_by_key(|e| (e.start, e.atask));
                (NodeId(i as u32), NodeSchedule { entries: es })
            })
            .collect()
    }
}

/// Data-plane bytes per period each sender originates on each of its
/// links.
struct LinkDemand<'a> {
    topo: &'a Topology,
    routing: &'a RoutingTable,
    /// Node `n`'s links are `bytes[first[n]..]`, in `links_of(n)` order.
    first: Vec<u32>,
    bytes: Vec<u64>,
}

impl<'a> LinkDemand<'a> {
    fn new(topo: &'a Topology, routing: &'a RoutingTable) -> Self {
        let mut first = Vec::with_capacity(topo.node_count());
        let mut total = 0u32;
        for node in topo.nodes() {
            first.push(total);
            total += topo.links_of(node.id).len() as u32;
        }
        LinkDemand {
            topo,
            routing,
            first,
            bytes: vec![0; total as usize],
        }
    }

    fn slot(&self, sender: NodeId, link: LinkId) -> usize {
        let nth = self
            .topo
            .links_of(sender)
            .iter()
            .position(|&l| l == link)
            .expect("a hop's link attaches its sender");
        self.first[sender.index()] as usize + nth
    }

    fn of(&self, sender: NodeId, link: LinkId) -> u64 {
        self.bytes[self.slot(sender, link)]
    }

    /// Send one `bytes`-long output from `from` to `to`: charge it to
    /// `from`'s slice of the link it leaves by — relays forward on the
    /// originator's reservation, as the link layer does — and bound its
    /// delivery, the sender's slack included. Local delivery is free and
    /// immediate.
    fn send(&mut self, from: NodeId, to: NodeId, bytes: u32) -> Result<Duration, SchedError> {
        if from == to {
            return Ok(Duration::ZERO);
        }
        let (_, links) = self
            .routing
            .path_and_links(from, to)
            .ok_or(SchedError::NoRoute { from, to })?;
        let slot = self.slot(from, links[0]);
        self.bytes[slot] += bytes as u64;
        let hops = links
            .iter()
            .map(|&l| btr_net::hop_bound(self.topo.link(l), bytes));
        Ok(hops.fold(COMM_SLACK, |bound, hop| bound + hop))
    }
}

/// The minimum global CPU speed (percent of nominal) at which `try_synth`
/// succeeds, found by binary search over 1..=1600. Returns `None` if even
/// 1600% fails.
pub fn min_speed_pct(mut try_synth: impl FnMut(u32) -> bool) -> Option<u32> {
    if !try_synth(1600) {
        return None;
    }
    let (mut lo, mut hi) = (1u32, 1600u32);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if try_synth(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// Trivial placement used by tests and baselines: pin sources/sinks,
/// round-robin everything else over non-faulty nodes, lane `r` offset by
/// `r` so replicas land on distinct nodes.
pub fn round_robin_placement(
    workload: &Workload,
    topo: &Topology,
    lanes: &BTreeMap<TaskId, u8>,
    faulty: &[NodeId],
) -> BTreeMap<ATask, NodeId> {
    let healthy: Vec<NodeId> = topo
        .nodes()
        .iter()
        .map(|n| n.id)
        .filter(|n| !faulty.contains(n))
        .collect();
    assert!(!healthy.is_empty(), "no healthy nodes");
    let mut placement = BTreeMap::new();
    let mut cursor = 0usize;
    for spec in workload.tasks() {
        let Some(&n_lanes) = lanes.get(&spec.id) else {
            continue;
        };
        for r in 0..n_lanes {
            let node = match spec.kind {
                TaskKind::Source { pinned } | TaskKind::Sink { pinned } if r == 0 => {
                    // Pinned copies stay put even if the pin is faulty —
                    // callers exclude pinned-faulty tasks beforehand.
                    pinned
                }
                _ => healthy[(cursor + r as usize) % healthy.len()],
            };
            placement.insert(
                ATask::Work {
                    task: spec.id,
                    replica: r,
                },
                node,
            );
        }
        if n_lanes >= 2 {
            let node = healthy[(cursor + n_lanes as usize) % healthy.len()];
            placement.insert(ATask::Check { task: spec.id }, node);
        }
        cursor += 1;
    }
    for &node in &healthy {
        placement.insert(ATask::Verify { node }, node);
    }
    placement
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_model::Criticality;
    use btr_workload::WorkloadBuilder;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    /// source(n0) -> ctl -> sink(n1), single lane.
    fn chain() -> Workload {
        let mut b = WorkloadBuilder::new(ms(10), 1);
        let s = b.source("s", NodeId(0), Duration(200), Criticality::Safety, ms(10));
        let c = b.compute("c", &[s], Duration(400), Criticality::Safety, ms(10), 0);
        b.sink(
            "k",
            NodeId(1),
            &[c],
            Duration(100),
            Criticality::Safety,
            ms(5),
        );
        b.build().unwrap()
    }

    fn single_lanes(w: &Workload) -> BTreeMap<TaskId, u8> {
        w.tasks().iter().map(|t| (t.id, 1)).collect()
    }

    #[test]
    fn schedules_simple_chain() {
        let w = chain();
        let topo = Topology::bus(2, 10_000, Duration(10));
        let routing = RoutingTable::new(&topo);
        let lanes = single_lanes(&w);
        let placement = round_robin_placement(&w, &topo, &lanes, &[]);
        let synth = synthesize(
            &w,
            &topo,
            &routing,
            &placement,
            &lanes,
            &SchedParams::default(),
        )
        .expect("chain is schedulable");
        // Primary lane of the sink finished before its 5 ms deadline.
        assert!(synth.primary_finish[&TaskId(2)] <= ms(5));
        assert!(synth.makespan <= ms(10));
        // Schedules validate as plan schedules.
        for (node, sched) in &synth.schedules {
            sched.validate(*node, ms(10)).expect("valid schedule");
        }
    }

    #[test]
    fn deadline_miss_detected_at_low_speed() {
        let w = chain();
        let topo = Topology::bus(2, 10_000, Duration(10));
        let routing = RoutingTable::new(&topo);
        let lanes = single_lanes(&w);
        let placement = round_robin_placement(&w, &topo, &lanes, &[]);
        let params = SchedParams {
            speed_pct: 10, // 10x slower: 200+400+100 -> 7000 µs > 5 ms deadline.
            ..SchedParams::default()
        };
        let err = synthesize(&w, &topo, &routing, &placement, &lanes, &params).unwrap_err();
        assert!(matches!(err, SchedError::DeadlineMiss { .. }), "{err:?}");
    }

    /// A 5 ms workload whose slots on n0 end at 4.9 ms, with n0's 200 µs
    /// verification reserve after them: the node overruns its period,
    /// which is the workload's.
    #[test]
    fn period_fit_is_checked_against_the_workload_period() {
        let mut b = WorkloadBuilder::new(ms(5), 1);
        let s = b.source("s", NodeId(0), Duration(2_000), Criticality::Safety, ms(5));
        let c = b.compute("c", &[s], Duration(2_000), Criticality::Safety, ms(5), 0);
        b.sink(
            "k",
            NodeId(0),
            &[c],
            Duration(900),
            Criticality::Safety,
            ms(5),
        );
        let w = b.build().unwrap();
        let topo = Topology::bus(2, 10_000, Duration(10));
        let lanes = single_lanes(&w);
        let mut placement: BTreeMap<ATask, NodeId> = w
            .tasks()
            .iter()
            .map(|t| {
                (
                    ATask::Work {
                        task: t.id,
                        replica: 0,
                    },
                    NodeId(0),
                )
            })
            .collect();
        for node in [NodeId(0), NodeId(1)] {
            placement.insert(ATask::Verify { node }, node);
        }
        let err = synthesize(
            &w,
            &topo,
            &RoutingTable::new(&topo),
            &placement,
            &lanes,
            &SchedParams::default(),
        )
        .unwrap_err();
        assert_eq!(err, SchedError::PeriodOverrun { node: NodeId(0) });
    }

    #[test]
    fn replicated_lanes_schedule_and_check() {
        let w = chain();
        let topo = Topology::bus(4, 10_000, Duration(10));
        let routing = RoutingTable::new(&topo);
        let mut lanes = BTreeMap::new();
        lanes.insert(TaskId(0), 2u8);
        lanes.insert(TaskId(1), 2u8);
        lanes.insert(TaskId(2), 1u8); // Sink single.
        let placement = round_robin_placement(&w, &topo, &lanes, &[]);
        let synth = synthesize(
            &w,
            &topo,
            &routing,
            &placement,
            &lanes,
            &SchedParams::default(),
        )
        .expect("replicated chain schedulable");
        // Checkers are scheduled for both replicated tasks.
        let has_chk = |t: u32| {
            synth
                .schedules
                .values()
                .any(|s| s.slot(ATask::Check { task: TaskId(t) }).is_some())
        };
        assert!(has_chk(0));
        assert!(has_chk(1));
        assert!(!has_chk(2));
    }

    #[test]
    fn bandwidth_exceeded_on_tiny_link() {
        let w = chain();
        // 2-node bus with 2 B/ms: share = 1 B/ms = 10 bytes/period.
        let topo = Topology::bus(2, 2, Duration(10));
        let routing = RoutingTable::new(&topo);
        let lanes = single_lanes(&w);
        let placement = round_robin_placement(&w, &topo, &lanes, &[]);
        // Even one 150-byte output exceeds the 8-byte post-reserve share,
        // but with a tiny link the comm bound alone blows the deadline
        // first; accept either error.
        let err = synthesize(
            &w,
            &topo,
            &routing,
            &placement,
            &lanes,
            &SchedParams::default(),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                SchedError::BandwidthExceeded { .. } | SchedError::DeadlineMiss { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn shed_tasks_are_skipped() {
        let w = chain();
        let topo = Topology::bus(2, 10_000, Duration(10));
        let routing = RoutingTable::new(&topo);
        // Shed everything but the source: only the source is scheduled...
        // but the source has consumers, so shed the consumer chain fully.
        let mut lanes = BTreeMap::new();
        lanes.insert(TaskId(0), 1u8);
        let placement = round_robin_placement(&w, &topo, &lanes, &[]);
        let synth = synthesize(
            &w,
            &topo,
            &routing,
            &placement,
            &lanes,
            &SchedParams::default(),
        )
        .unwrap();
        let slots: usize = synth.schedules.values().map(|s| s.entries.len()).sum();
        // Source + 2 verify slots.
        assert_eq!(slots, 3);
    }

    #[test]
    fn min_speed_search_is_tight() {
        let w = chain();
        let topo = Topology::bus(2, 10_000, Duration(10));
        let routing = RoutingTable::new(&topo);
        let lanes = single_lanes(&w);
        let placement = round_robin_placement(&w, &topo, &lanes, &[]);
        let try_at = |pct: u32| {
            let params = SchedParams {
                speed_pct: pct,
                ..SchedParams::default()
            };
            synthesize(&w, &topo, &routing, &placement, &lanes, &params).is_ok()
        };
        let min = min_speed_pct(try_at).expect("schedulable at some speed");
        assert!(try_at(min));
        assert!(min == 1 || !try_at(min - 1), "min {min} not tight");
    }

    #[test]
    fn missing_placement_reported() {
        let w = chain();
        let topo = Topology::bus(2, 10_000, Duration(10));
        let routing = RoutingTable::new(&topo);
        let lanes = single_lanes(&w);
        let placement = BTreeMap::new();
        let err = synthesize(
            &w,
            &topo,
            &routing,
            &placement,
            &lanes,
            &SchedParams::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SchedError::MissingPlacement(_)));
    }

    #[test]
    fn input_lane_mapping() {
        assert_eq!(input_lane(0, 3), 0);
        assert_eq!(input_lane(2, 3), 2);
        assert_eq!(input_lane(2, 1), 0); // Fewer producer lanes: clamp.
        assert_eq!(input_lane(1, 0), 0); // Degenerate.
    }

    #[test]
    fn avionics_is_schedulable_on_nine_nodes() {
        let w = btr_workload::generators::avionics(9);
        let topo = Topology::bus(9, 50_000, Duration(10));
        let routing = RoutingTable::new(&topo);
        let lanes = single_lanes(&w);
        let placement = round_robin_placement(&w, &topo, &lanes, &[]);
        let synth = synthesize(
            &w,
            &topo,
            &routing,
            &placement,
            &lanes,
            &SchedParams::default(),
        );
        assert!(synth.is_ok(), "{synth:?}");
    }
}
