//! One plan's tables, derived once per world and shared by its nodes.
//!
//! The planner computes every mode offline, so a mode switch at run time
//! only installs a plan (paper §4.1, §4.4). What a node reads of the
//! plan — its schedule slots, the routes of the lanes it hosts, the
//! inputs they consume, the tasks it checks, and the plan-global lookups it
//! makes per arriving message — is the same for every node of a world,
//! so [`WorldPlans`] derives it once per plan, the first time a node of
//! the world installs that plan, and hands every node the same
//! [`PlanTables`] behind an `Arc`.
//!
//! The tables are dense: a column per task, per lane and per node,
//! variable-length answers in one flat vector per column with row
//! offsets (CSR). Every lookup is a bounds-checked index load; an id the
//! plan does not know answers empty.

use crate::checker::Checked;
use btr_model::plan::input_lane;
use btr_model::workload::{TaskKind, Workload};
use btr_model::{
    ATask, Duration, NodeId, Plan, PlanId, ReplicaIdx, ScheduleEntry, Strategy, TaskId,
};
use std::collections::BTreeSet;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

/// A dense key: the row it names in a table.
trait Dense: Copy {
    fn index(self) -> usize;
}

impl Dense for NodeId {
    fn index(self) -> usize {
        NodeId::index(self)
    }
}

impl Dense for TaskId {
    fn index(self) -> usize {
        TaskId::index(self)
    }
}

/// One lane of the plan: a (task, replica) pair, numbered task by task.
#[derive(Debug, Clone, Copy)]
struct Lane(u32);

impl Dense for Lane {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Variable-length rows in one flat vector, keyed by `K`: row `k` is
/// `items[at[k]..at[k + 1]]`.
#[derive(Debug)]
struct Rows<K, T> {
    at: Vec<u32>,
    items: Vec<T>,
    key: PhantomData<K>,
}

impl<K: Dense, T> Rows<K, T> {
    /// Empty rows with room for `rows` rows of `items` items in all.
    fn with_capacity(rows: usize, items: usize) -> Self {
        let mut at = Vec::with_capacity(rows + 1);
        at.push(0);
        Rows {
            at,
            items: Vec::with_capacity(items),
            key: PhantomData,
        }
    }

    /// End the row being filled: what was pushed since the last one.
    fn close(&mut self) {
        self.at.push(self.items.len() as u32);
    }

    /// Row `key`; empty for a key past the last row.
    fn get(&self, key: K) -> &[T] {
        let i = key.index();
        match (self.at.get(i), self.at.get(i + 1)) {
            (Some(&from), Some(&to)) => &self.items[from as usize..to as usize],
            _ => &[],
        }
    }
}

/// Everything the nodes of a world read of one plan.
#[derive(Debug)]
pub(crate) struct PlanTables {
    /// Per task: its lanes are `lane_base[t]..lane_base[t + 1]`.
    lane_base: Vec<u32>,
    /// Per task: the node hosting its checker, if it is checked.
    checker: Vec<Option<NodeId>>,
    /// Per task: the hosts of every lane of every transitive input,
    /// sorted. A producer whose upstream hosts include a convicted node
    /// is starved, not faulty (the false-attribution-cascade gate).
    upstream: Rows<TaskId, NodeId>,
    /// Per lane: its host, if placed. A task's lanes are adjacent, so
    /// its checker reads them as one slice.
    host: Vec<Option<NodeId>>,
    /// Per lane: when it is scheduled to emit within its period (slot
    /// start + WCET). Receivers derive arrival deadlines from this.
    emit: Vec<Option<Duration>>,
    /// Per lane: where its output goes — the hosts of the consumer
    /// lanes reading it and its task's checker — sorted, deduplicated,
    /// and without its own host (local delivery is direct).
    routes: Rows<Lane, NodeId>,
    /// Per lane: (input task, lane, producer) for each placed input, in
    /// the order of the task's declared inputs.
    flows: Rows<Lane, (TaskId, ReplicaIdx, NodeId)>,
    /// Per node: its schedule slots, in plan order (indices stable for
    /// timers).
    entries: Rows<NodeId, ScheduleEntry>,
    /// Per node: the distinct (task, lane) pairs its slots consume,
    /// sorted — the outputs it stores when they arrive.
    wanted: Rows<NodeId, (TaskId, ReplicaIdx)>,
    /// Per node: the tasks whose checkers it hosts, sorted.
    checked: Rows<NodeId, TaskId>,
    /// Per node: the distinct other nodes that would notice its silence
    /// (consumers of its lanes, checkers of its tasks), sorted. Only a
    /// node hosting a work lane has a set (see [`PlanTables::accusers`]).
    accusers: Rows<NodeId, NodeId>,
    /// Per node: true if it hosts a work lane.
    hosts_work: Vec<bool>,
}

impl PlanTables {
    /// Derive the tables of `plan` over `workload`.
    pub(crate) fn build(plan: &Plan, workload: &Workload) -> PlanTables {
        let n_tasks = workload.tasks().len();
        let mut n_lanes = vec![0u8; n_tasks];
        let mut checker = vec![None; n_tasks];
        let mut n_nodes = plan
            .schedules
            .keys()
            .next_back()
            .map_or(0, |n| n.index() + 1);
        for (atask, &node) in &plan.placement {
            n_nodes = n_nodes.max(node.index() + 1);
            match *atask {
                ATask::Work { task, replica } => {
                    let lanes = &mut n_lanes[task.index()];
                    *lanes = (*lanes).max(replica + 1);
                }
                ATask::Check { task } => checker[task.index()] = Some(node),
                ATask::Verify { .. } => {}
            }
        }
        let mut lane_base = Vec::with_capacity(n_tasks + 1);
        lane_base.push(0u32);
        for &lanes in &n_lanes {
            lane_base.push(lane_base[lane_base.len() - 1] + u32::from(lanes));
        }
        let total_lanes = lane_base[n_tasks] as usize;
        // Room enough that no row vector grows while it is filled: a
        // lane has a flow per input at most, and a route per consumer
        // lane reading it (one flow of that lane's) plus its checker.
        let flows: usize = workload
            .tasks()
            .iter()
            .map(|spec| usize::from(n_lanes[spec.id.index()]) * spec.inputs.len())
            .sum();
        let slots = plan.schedules.values().map(|s| s.entries.len()).sum();
        let checks = checker.iter().flatten().count();
        let mut t = PlanTables {
            lane_base,
            checker,
            upstream: Rows::with_capacity(n_tasks, 0),
            host: vec![None; total_lanes],
            emit: vec![None; total_lanes],
            routes: Rows::with_capacity(total_lanes, flows + total_lanes),
            flows: Rows::with_capacity(total_lanes, flows),
            entries: Rows::with_capacity(n_nodes, slots),
            wanted: Rows::with_capacity(n_nodes, flows),
            checked: Rows::with_capacity(n_nodes, checks),
            accusers: Rows::with_capacity(n_nodes, 0),
            hosts_work: vec![false; n_nodes],
        };
        for (atask, &node) in &plan.placement {
            if let ATask::Work { task, replica } = *atask {
                let lane = t.lane(task, replica).expect("counted above");
                t.host[lane.index()] = Some(node);
                t.hosts_work[node.index()] = true;
            }
        }
        for sched in plan.schedules.values() {
            for e in &sched.entries {
                if let ATask::Work { task, replica } = e.atask {
                    if let Some(lane) = t.lane(task, replica) {
                        t.emit[lane.index()] = Some(e.start + e.wcet);
                    }
                }
            }
        }
        let mut scratch: Vec<NodeId> = Vec::new();
        t.fill_lanes(workload, &n_lanes, &mut scratch);
        t.fill_upstream(workload, &n_lanes, &mut scratch);
        t.fill_nodes(plan, n_nodes);
        t
    }

    /// The lane of `replica` of `task`, if the plan has one.
    fn lane(&self, task: TaskId, replica: ReplicaIdx) -> Option<Lane> {
        let i = task.index();
        let (&from, &to) = (self.lane_base.get(i)?, self.lane_base.get(i + 1)?);
        let lane = from + u32::from(replica);
        (lane < to).then_some(Lane(lane))
    }

    fn host_of(&self, task: TaskId, replica: ReplicaIdx) -> Option<NodeId> {
        self.lane(task, replica).and_then(|l| self.host[l.index()])
    }

    /// Routes and in-flows, lane by lane.
    fn fill_lanes(&mut self, workload: &Workload, n_lanes: &[u8], scratch: &mut Vec<NodeId>) {
        for spec in workload.tasks() {
            let task = spec.id;
            let my_lanes = n_lanes[task.index()];
            for replica in 0..my_lanes {
                if let Some(host) = self.host_of(task, replica) {
                    scratch.clear();
                    for &c in workload.consumers_of(task) {
                        for rc in 0..n_lanes[c.index()] {
                            if input_lane(rc, my_lanes) == replica {
                                scratch.extend(self.host_of(c, rc));
                            }
                        }
                    }
                    scratch.extend(self.checker[task.index()]);
                    scratch.sort_unstable();
                    scratch.dedup();
                    let targets = scratch.iter().filter(|&&n| n != host);
                    self.routes.items.extend(targets);
                }
                self.routes.close();
                for &u in &spec.inputs {
                    let u_lanes = n_lanes[u.index()];
                    if u_lanes == 0 {
                        continue; // Input shed: degraded.
                    }
                    let lane = input_lane(replica, u_lanes);
                    if let Some(producer) = self.host_of(u, lane) {
                        self.flows.items.push((u, lane, producer));
                    }
                }
                self.flows.close();
            }
        }
    }

    /// Upstream hosts, task by task: one pass in dataflow order (inputs
    /// strictly precede consumers — id order is NOT guaranteed
    /// topological) closes the transitive sets, which are then laid out
    /// in id order.
    fn fill_upstream(&mut self, workload: &Workload, n_lanes: &[u8], scratch: &mut Vec<NodeId>) {
        let mut closed: Vec<NodeId> = Vec::new();
        let mut span = vec![(0u32, 0u32); n_lanes.len()];
        for &t in workload.topo_order() {
            scratch.clear();
            for &u in &workload.task(t).inputs {
                let (from, to) = span[u.index()];
                scratch.extend_from_slice(&closed[from as usize..to as usize]);
                for r in 0..n_lanes[u.index()] {
                    scratch.extend(self.host_of(u, r));
                }
            }
            scratch.sort_unstable();
            scratch.dedup();
            let from = closed.len() as u32;
            closed.extend_from_slice(scratch);
            span[t.index()] = (from, closed.len() as u32);
        }
        self.upstream.items.reserve_exact(closed.len());
        for &(from, to) in &span {
            let hosts = &closed[from as usize..to as usize];
            self.upstream.items.extend_from_slice(hosts);
            self.upstream.close();
        }
    }

    /// Slots, wanted inputs, checked tasks and plausible accusers, node
    /// by node.
    fn fill_nodes(&mut self, plan: &Plan, n_nodes: usize) {
        // (host, target) of every route: a node's accusers are the
        // targets of the lanes it hosts.
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(self.routes.items.len());
        for (lane, host) in self.host.iter().enumerate() {
            if let Some(host) = *host {
                let targets = self.routes.get(Lane(lane as u32));
                pairs.extend(targets.iter().map(|&n| (host, n)));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        self.accusers.items.reserve_exact(pairs.len());
        let mut pairs = pairs.into_iter().peekable();
        let mut wanted: Vec<(TaskId, ReplicaIdx)> = Vec::new();
        for node in (0..n_nodes as u32).map(NodeId) {
            let entries = plan.schedules.get(&node).map_or(&[][..], |s| &s.entries);
            self.entries.items.extend_from_slice(entries);
            self.entries.close();
            wanted.clear();
            for e in entries {
                match e.atask {
                    ATask::Work { task, replica } => {
                        if let Some(lane) = self.lane(task, replica) {
                            let flows = self.flows.get(lane);
                            wanted.extend(flows.iter().map(|&(u, l, _)| (u, l)));
                        }
                    }
                    ATask::Check { task } => self.checked.items.push(task),
                    ATask::Verify { .. } => {}
                }
            }
            let from = self.checked.at[node.index()] as usize;
            self.checked.items[from..].sort_unstable();
            self.checked.close();
            wanted.sort_unstable();
            wanted.dedup();
            self.wanted.items.extend_from_slice(&wanted);
            self.wanted.close();
            while let Some((_, target)) = pairs.next_if(|&(host, _)| host == node) {
                self.accusers.items.push(target);
            }
            self.accusers.close();
        }
    }

    /// The node's schedule slots, in plan order.
    pub(crate) fn entries(&self, node: NodeId) -> &[ScheduleEntry] {
        self.entries.get(node)
    }

    /// True if one of `node`'s tasks consumes lane `replica` of `task`.
    /// Asked once per arriving output message.
    pub(crate) fn wants(&self, node: NodeId, task: TaskId, replica: ReplicaIdx) -> bool {
        self.wanted
            .get(node)
            .binary_search(&(task, replica))
            .is_ok()
    }

    /// The tasks whose checkers `node` hosts, sorted.
    pub(crate) fn checked(&self, node: NodeId) -> &[TaskId] {
        self.checked.get(node)
    }

    /// What the checker of `task` reads: the host of each of its lanes,
    /// and its declaration in `workload`.
    pub(crate) fn checked_task<'a>(&'a self, task: TaskId, workload: &'a Workload) -> Checked<'a> {
        let i = task.index();
        let (from, to) = (self.lane_base[i] as usize, self.lane_base[i + 1] as usize);
        let spec = workload.task(task);
        Checked {
            task,
            hosts: &self.host[from..to],
            inputs: &spec.inputs,
            source_seed: matches!(spec.kind, TaskKind::Source { .. }).then_some(workload.seed),
        }
    }

    /// The node hosting `task`'s checker: consumers echo received
    /// outputs there so conflicting signed copies meet in one place.
    pub(crate) fn checker(&self, task: TaskId) -> Option<NodeId> {
        self.checker.get(task.index()).copied().flatten()
    }

    /// When lane `replica` of `task` is scheduled to emit within its
    /// period.
    pub(crate) fn emit_offset(&self, task: TaskId, replica: ReplicaIdx) -> Option<Duration> {
        self.lane(task, replica).and_then(|l| self.emit[l.index()])
    }

    /// Where the output of lane `replica` of `task` goes, its host
    /// excluded.
    pub(crate) fn out_routes(&self, task: TaskId, replica: ReplicaIdx) -> &[NodeId] {
        self.lane(task, replica)
            .map_or(&[], |lane| self.routes.get(lane))
    }

    /// (input task, lane, producer) for each input lane `replica` of
    /// `task` consumes, in declared order.
    pub(crate) fn in_flows(
        &self,
        task: TaskId,
        replica: ReplicaIdx,
    ) -> &[(TaskId, ReplicaIdx, NodeId)] {
        self.lane(task, replica)
            .map_or(&[], |lane| self.flows.get(lane))
    }

    /// The hosts of every lane of every transitive input of `task`,
    /// sorted.
    pub(crate) fn upstream_hosts(&self, task: TaskId) -> &[NodeId] {
        self.upstream.get(task)
    }

    /// The distinct other nodes that would notice `node`'s silence under
    /// this plan — the accuser fan-in the omission tracker can expect —
    /// sorted; `None` if `node` hosts no work lane.
    pub(crate) fn accusers(&self, node: NodeId) -> Option<&[NodeId]> {
        let hosts = self.hosts_work.get(node.index()).copied().unwrap_or(false);
        hosts.then(|| self.accusers.get(node))
    }

    /// The remote nodes `me`'s slice of the plan exchanges traffic with,
    /// added to `out`: destinations of its output routes (consumers and
    /// checkers), the checkers its consumers echo to, and — when it
    /// receives any remote flow or checks any task — itself (the row
    /// producers route *toward*).
    fn node_route_demand(&self, me: NodeId, out: &mut BTreeSet<NodeId>) {
        let mut receives_remote = false;
        for e in self.entries(me) {
            let ATask::Work { task, replica } = e.atask else {
                continue;
            };
            out.extend(self.out_routes(task, replica));
            for &(u, _, producer) in self.in_flows(task, replica) {
                receives_remote |= producer != me;
                // Consumers echo the first accepted copy of each input
                // to its checker (equivocation detection), so the
                // checker host's row is demanded as well.
                if let Some(chk) = self.checker(u).filter(|&chk| chk != me) {
                    out.insert(chk);
                }
            }
        }
        if receives_remote || !self.checked(me).is_empty() {
            out.insert(me);
        }
    }

    /// The plan-derived routing demand of the whole world: every
    /// node's route demand, together.
    ///
    /// The demand-driven backend (`btr_net::DemandRoutes`) materialises
    /// one BFS row per destination on first use, so warming exactly this
    /// set (`btr_sim::World::warm_routes`) pre-builds every row the
    /// plan's data plane will touch. Heartbeats and evidence floods
    /// reach all peers and fill the remaining rows on demand.
    pub(crate) fn route_demand(&self) -> BTreeSet<NodeId> {
        let mut out = BTreeSet::new();
        for node in (0..self.hosts_work.len() as u32).map(NodeId) {
            self.node_route_demand(node, &mut out);
        }
        out
    }
}

#[cfg(test)]
impl PlanTables {
    /// Tables that know nothing but each node's plausible accusers,
    /// sorted (the omission tracker's unit tests).
    pub(crate) fn with_accusers(accusers: &[(NodeId, &[NodeId])]) -> Arc<PlanTables> {
        Self::stub(accusers, NodeId(0), &[])
    }

    /// Tables that know nothing but the checkers `node` hosts, each task
    /// with the hosts of its lanes (the detector's unit tests).
    pub(crate) fn checking(node: NodeId, checks: &[(TaskId, &[NodeId])]) -> Arc<PlanTables> {
        Self::stub(&[], node, checks)
    }

    fn stub(
        accusers: &[(NodeId, &[NodeId])],
        node: NodeId,
        checks: &[(TaskId, &[NodeId])],
    ) -> Arc<PlanTables> {
        let nodes = accusers
            .iter()
            .fold(node.index() + 1, |n, (a, _)| n.max(a.index() + 1));
        let mut t = PlanTables {
            lane_base: vec![0],
            checker: Vec::new(),
            upstream: Rows::with_capacity(0, 0),
            host: Vec::new(),
            emit: Vec::new(),
            routes: Rows::with_capacity(0, 0),
            flows: Rows::with_capacity(0, 0),
            entries: Rows::with_capacity(0, 0),
            wanted: Rows::with_capacity(0, 0),
            checked: Rows::with_capacity(nodes, 0),
            accusers: Rows::with_capacity(nodes, 0),
            hosts_work: vec![false; nodes],
        };
        let tasks = checks.iter().map(|(c, _)| c.0 + 1).max().unwrap_or(0);
        for task in (0..tasks).map(TaskId) {
            let hosts = checks.iter().filter(|(c, _)| *c == task);
            t.host
                .extend(hosts.flat_map(|(_, h)| h.iter().copied().map(Some)));
            t.lane_base.push(t.host.len() as u32);
        }
        for n in (0..nodes as u32).map(NodeId) {
            if n == node {
                t.checked.items.extend(checks.iter().map(|&(task, _)| task));
                t.checked.items.sort_unstable();
            }
            t.checked.close();
            if let Some((_, set)) = accusers.iter().find(|(a, _)| *a == n) {
                t.accusers.items.extend_from_slice(set);
                t.hosts_work[n.index()] = true;
            }
            t.accusers.close();
        }
        Arc::new(t)
    }
}

/// The plan tables of one world: a slot per plan of the strategy, each
/// filled the first time a node of the world installs that plan, and
/// then shared by every node of the world, a restarted incarnation's
/// included. One per world and never across worlds: a table outlives
/// no run, so it adds nothing to the heap between runs.
#[derive(Debug)]
pub struct WorldPlans {
    pub(crate) workload: Arc<Workload>,
    pub(crate) strategy: Arc<Strategy>,
    slots: Box<[OnceLock<Arc<PlanTables>>]>,
}

impl WorldPlans {
    /// An empty handle for a world running `strategy` over `workload`.
    pub fn new(workload: Arc<Workload>, strategy: Arc<Strategy>) -> Arc<WorldPlans> {
        let slots = strategy.plans.iter().map(|_| OnceLock::new()).collect();
        Arc::new(WorldPlans {
            workload,
            strategy,
            slots,
        })
    }

    /// The tables of plan `id`, derived on first use.
    pub(crate) fn tables(&self, id: PlanId) -> Arc<PlanTables> {
        let slot = &self.slots[id.index()];
        let tables = slot
            .get_or_init(|| Arc::new(PlanTables::build(self.strategy.plan(id), &self.workload)));
        Arc::clone(tables)
    }

    /// The tables of the strategy's initial plan.
    pub(crate) fn initial(&self) -> Arc<PlanTables> {
        self.tables(self.strategy.initial_plan().id)
    }

    /// The initial plan's routing demand: what a world on the
    /// demand-driven routing backend warms before it starts (see
    /// `PlanTables::route_demand`).
    pub fn route_demand(&self) -> BTreeSet<NodeId> {
        self.initial().route_demand()
    }

    /// How many plans' tables this world has derived.
    #[cfg(test)]
    pub(crate) fn built(&self) -> usize {
        self.slots.iter().filter(|s| s.get().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::{derive_view, PlanView};
    use btr_model::Topology;
    use btr_planner::{build_strategy, PlannerConfig};

    /// The bus-9 f = 1 strategy the runtime's own tests run.
    fn bus9() -> WorldPlans {
        let w = btr_model::workload::generators::avionics(9);
        let topo = Topology::bus(9, 100_000, Duration(5));
        plans(w, &topo, 1, 150)
    }

    /// The campaign grid's 36-node cell: scada on a 4-ary fat-tree.
    fn fattree36() -> WorldPlans {
        let w = btr_model::workload::generators::scada(36);
        let topo = btr_model::topology::fat_tree(4, 0, 1_000_000, Duration(5)).unwrap();
        plans(w, &topo, 1, 400)
    }

    fn plans(w: Workload, topo: &Topology, f: u8, r_ms: u64) -> WorldPlans {
        let mut cfg = PlannerConfig::new(f, Duration::from_millis(r_ms));
        cfg.admit_best_effort = true;
        let (s, _) = build_strategy(&w, topo, &cfg).unwrap();
        Arc::into_inner(WorldPlans::new(Arc::new(w), Arc::new(s))).unwrap()
    }

    /// Every answer `t` gives about `node` under `plan` equals the
    /// reference view's, in the reference's order.
    fn assert_node_matches(t: &PlanTables, v: &PlanView, w: &Workload, node: NodeId, at: &str) {
        assert_eq!(t.entries(node), &v.entries[..], "{at}: entries");
        let mut work = 0;
        for e in t.entries(node) {
            let ATask::Work { task, replica } = e.atask else {
                continue;
            };
            work += 1;
            let routes = &v.out_routes[&e.atask];
            assert_eq!(
                t.out_routes(task, replica),
                &routes[..],
                "{at}: routes {e:?}"
            );
            let flows = &v.in_flows[&e.atask];
            assert_eq!(t.in_flows(task, replica), &flows[..], "{at}: flows {e:?}");
        }
        assert_eq!(v.out_routes.len(), work, "{at}: routed lanes");
        assert_eq!(v.in_flows.len(), work, "{at}: consuming lanes");
        assert_eq!(t.wanted.get(node), &v.wanted[..], "{at}: wanted");
        for &(task, replica) in &v.wanted {
            assert!(t.wants(node, task, replica), "{at}: wants {task} {replica}");
        }
        let mut checked: Vec<TaskId> = v.checkers.iter().map(|&(task, _)| task).collect();
        checked.sort_unstable();
        assert_eq!(t.checked(node), &checked[..], "{at}: checked tasks");
        for (task, hosts) in &v.checkers {
            let lanes = t.checked_task(*task, w).hosts;
            assert_eq!(lanes, &hosts[..], "{at}: lane hosts of {task}");
        }
        let mut demand = BTreeSet::new();
        t.node_route_demand(node, &mut demand);
        assert_eq!(demand, v.route_demand(node), "{at}: route demand");
    }

    /// The plan-global answers of `t` equal the reference view's.
    fn assert_plan_matches(t: &PlanTables, v: &PlanView, w: &Workload, n_nodes: usize, at: &str) {
        for spec in w.tasks() {
            let task = spec.id;
            let checker = v.checker_nodes.get(&task).copied();
            assert_eq!(t.checker(task), checker, "{at}: checker of {task}");
            let upstream: Vec<NodeId> = v.upstream_hosts[&task].iter().copied().collect();
            assert_eq!(
                t.upstream_hosts(task),
                &upstream[..],
                "{at}: upstream of {task}"
            );
            for replica in 0..4 {
                let emit = v.emit_offsets.get(&(task, replica)).copied();
                assert_eq!(
                    t.emit_offset(task, replica),
                    emit,
                    "{at}: emit {task} {replica}"
                );
            }
        }
        for node in (0..n_nodes as u32 + 1).map(NodeId) {
            let accusers = v
                .accuser_sets
                .get(&node)
                .map(|s| s.iter().copied().collect());
            let got = t.accusers(node).map(<[NodeId]>::to_vec);
            assert_eq!(got, accusers, "{at}: accusers of {node}");
        }
    }

    /// Every plan's tables, read through the world's handle, answer as
    /// the reference derivation does for every node, the node past the
    /// last included; and the world's demand is the union of the nodes'.
    fn assert_strategy_matches(plans: &WorldPlans, n_nodes: usize) {
        let w = &plans.workload;
        for plan in &plans.strategy.plans {
            let t = plans.tables(plan.id);
            let mut union = BTreeSet::new();
            for node in (0..n_nodes as u32 + 1).map(NodeId) {
                let v = derive_view(node, plan, w);
                let at = format!("{:?} {node}", plan.id);
                assert_node_matches(&t, &v, w, node, &at);
                if node.index() == 0 {
                    assert_plan_matches(&t, &v, w, n_nodes, &at);
                }
                union.extend(v.route_demand(node));
            }
            assert_eq!(t.route_demand(), union, "{:?}: world demand", plan.id);
        }
        assert_eq!(plans.built(), plans.strategy.plans.len());
    }

    #[test]
    fn bus9_tables_answer_as_the_reference_view() {
        let plans = bus9();
        assert!(plans.strategy.plans.len() >= 2);
        assert_strategy_matches(&plans, 9);
    }

    #[test]
    fn fattree36_tables_answer_as_the_reference_view() {
        let plans = fattree36();
        assert!(plans.strategy.plans.len() >= 2);
        assert_strategy_matches(&plans, 36);
    }

    #[test]
    fn warmed_routes_are_the_reference_union_of_the_initial_plan() {
        // What `BtrSystem::build_world` warms on the demand-driven
        // backend: each node's demand under the initial plan, together.
        for plans in [bus9(), fattree36()] {
            assert!(plans.strategy.plans.len() >= 2);
            let initial = plans.strategy.initial_plan();
            let n_nodes = initial.schedules.keys().next_back().unwrap().index() + 1;
            let mut reference = BTreeSet::new();
            for node in (0..n_nodes as u32).map(NodeId) {
                let v = derive_view(node, initial, &plans.workload);
                reference.extend(v.route_demand(node));
            }
            assert!(!reference.is_empty());
            assert_eq!(plans.route_demand(), reference);
            // Only the initial plan was derived for it.
            assert_eq!(plans.built(), 1);
        }
    }

    #[test]
    fn unknown_ids_answer_empty() {
        let plans = bus9();
        let t = plans.initial();
        let (task, node) = (TaskId(10_000), NodeId(10_000));
        assert!(!t.wants(NodeId(0), task, 0));
        assert_eq!((t.checker(task), t.emit_offset(task, 0)), (None, None));
        assert!(t.out_routes(task, 0).is_empty() && t.in_flows(task, 0).is_empty());
        assert!(t.upstream_hosts(task).is_empty());
        assert!(t.entries(node).is_empty() && t.checked(node).is_empty());
        assert_eq!(t.accusers(node), None);
        // A lane past the task's last is not the next task's first.
        let spec = &plans.workload.tasks()[0];
        let lanes = t.checked_task(spec.id, &plans.workload).hosts.len() as u8;
        assert!(lanes > 0);
        assert_eq!(t.emit_offset(spec.id, lanes), None);
        assert!(t.in_flows(spec.id, lanes).is_empty());
    }
}
