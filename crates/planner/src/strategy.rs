//! Strategy construction: a plan for every fault pattern up to `f`.
//!
//! Section 4.1: the planner must anticipate fault patterns — "Suppose ...
//! the planner has already chosen a plan Π{X} for the case where node X
//! has failed, and is now looking for a plan Π{X,Y} that can handle an
//! extra fault on node Y" — and keep transitions cheap ("Any extra
//! reassignments will consume resources ... and can thus prolong
//! recovery"). Plans are derived breadth-first over fault-set sizes, each
//! child seeded by a parent plan for delta minimisation; transition
//! metadata (migrations, state bytes, time bounds) is recorded for every
//! single-fault edge, and the whole strategy is admitted against the
//! recovery bound R.
//!
//! The level loop does each fault set's work once. Routes are searched
//! and read once per strategy, fault-free, into a `Base`: the routes
//! with each node's relay list (`btr_net::BaseRoutes`) and their bounds
//! (`placement::BaseComm`). A mode `F` is planned by `plan_mode`, whose
//! routes are a view of the fault-free table (`btr_net::ModeRoutes`)
//! that searches again only the destinations a node of `F` relayed for,
//! and whose `placement::CommTable` is the base one patched where the
//! view differs. Placement, schedule synthesis and — because every
//! parent `F∖{x}` was completed one level down — the transitions
//! `F∖{x} → F` into the mode, whose evidence-distribution term depends
//! on `F` alone, all read that one view and table. With `threads > 1` a
//! level's fault sets are split across workers, transitions included.
//! Modes are absorbed into the strategy in enumeration order, so plan
//! ids, the transition map and the statistics do not depend on the
//! thread count.
//!
//! Within a mode nothing is done twice either. The shed loop asks
//! `placement::broken_constraint` — a walk over the tasks, no scoring —
//! whether the lanes can be placed at all, and places a mode once, when
//! they can; the mode's `CommTable` answers the placer's distance
//! queries and every worst-case bound of the transitions; and a
//! thread's working arrays (`Scratch`) are reused from mode to mode.

use crate::augment::lane_counts;
use crate::placement::{broken_constraint, BaseComm, CommTable, Healthy, PlacementError, Placer};
use crate::sched::synthesize;
use crate::{PlannerConfig, ShedPolicy, DETECT_MARGIN};
use btr_model::workload::Workload;
use btr_model::{
    ATask, Duration, FaultSet, Migration, NodeId, Plan, PlanId, Strategy, TaskId, Transition,
};
use btr_net::{BaseRoutes, Detours, ModeRoutes};
use std::collections::{BTreeMap, BTreeSet};

/// Approximate wire size of an evidence record for bounds.
pub(crate) const EVIDENCE_WIRE_BYTES: u32 = 420;
/// Fixed slack for per-hop evidence validation in the distribution bound.
const VALIDATION_SLACK: Duration = Duration(500);

/// Why strategy construction failed.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyError {
    /// A mode could not be scheduled even after shedding (policy Never),
    /// or the platform cannot host the workload at all.
    Infeasible {
        /// The offending fault pattern.
        fault_set: FaultSet,
        /// Human-readable cause.
        reason: String,
    },
    /// A transition's recovery bound exceeds R (strict admission).
    RBoundViolated {
        /// Fault set being left.
        from: FaultSet,
        /// Fault set being entered.
        to: FaultSet,
        /// The computed worst-case recovery time for this transition.
        bound: Duration,
        /// The requested R.
        r: Duration,
    },
}

impl std::fmt::Display for StrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyError::Infeasible { fault_set, reason } => {
                write!(f, "no feasible plan for {fault_set}: {reason}")
            }
            StrategyError::RBoundViolated { from, to, bound, r } => {
                write!(f, "transition {from} -> {to} bound {bound} exceeds R = {r}")
            }
        }
    }
}

impl std::error::Error for StrategyError {}

/// Aggregate statistics about a built strategy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StrategyStats {
    /// Number of plans (fault patterns covered).
    pub plans: usize,
    /// Number of precomputed transitions.
    pub transitions: usize,
    /// Worst per-transition recovery bound (excl. detection margin).
    pub worst_transition: Duration,
    /// Worst plan distance (task reassignments) across transitions.
    pub worst_distance: usize,
    /// Total task reassignments across all transitions.
    pub total_distance: usize,
    /// Largest shed-set size in any plan.
    pub max_shed: usize,
    /// Plans that had to shed at least one task.
    pub degraded_plans: usize,
}

fn shed_order_key(workload: &Workload, t: TaskId) -> (u8, std::cmp::Reverse<u64>, u32) {
    let spec = workload.task(t);
    (spec.criticality.rank(), std::cmp::Reverse(spec.wcet.0), t.0)
}

/// One planned mode: the parts of its [`Plan`] and the transitions into it.
struct Mode {
    placement: BTreeMap<ATask, NodeId>,
    synth: crate::sched::Synthesis,
    /// Tasks shed to make the mode feasible.
    shed: BTreeSet<TaskId>,
    /// The transition `F∖{x} → F` for every `x ∈ F`, trigger ascending.
    incoming: Vec<Transition>,
}

/// The fault-free routes and their bounds, read once per strategy and
/// shared by every planning thread: what each mode is patched from.
struct Base {
    routes: BaseRoutes,
    comm: BaseComm,
}

/// A planning thread's working memory, reused from mode to mode:
/// O(n² + augmented tasks) bytes, none of it kept in the [`Strategy`].
struct Scratch<'a> {
    /// The mode's routes searched again.
    detours: Detours,
    comm: CommTable<'a>,
    placer: Placer,
    /// State bytes each old host sends in the transition being derived.
    sender_bytes: Vec<u64>,
    /// The migrations of the transition being derived, copied out at
    /// their exact length.
    migrations: Vec<Migration>,
}

impl<'a> Scratch<'a> {
    fn new(topo: &'a btr_model::Topology) -> Scratch<'a> {
        Scratch {
            detours: Detours::default(),
            comm: CommTable::new(topo),
            placer: Placer::default(),
            sender_bytes: vec![0; topo.node_count()],
            migrations: Vec::new(),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Destinations whose routes were searched on this thread, for the
    /// strategy's fault-free table and every mode's view of it.
    pub(crate) static SEARCHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Plan the mode for fault set `fs`, which will get plan id `id`: place,
/// schedule, shed-and-retry, then derive every transition into it.
///
/// The mode's routes are a view of the strategy's one fault-free table
/// ([`BaseRoutes::avoiding`]), which searches again only the destinations
/// a node of `fs` relayed for, and its [`CommTable`] is the base one
/// patched where the view differs. The placement, the synthesis and the
/// mode's incoming transitions all read the one view — the placer and
/// the transition bounds through the table. `built` holds every mode of
/// the levels below, so each parent `F∖{x}` is already complete.
#[allow(clippy::too_many_arguments)]
fn plan_mode(
    workload: &Workload,
    topo: &btr_model::Topology,
    cfg: &PlannerConfig,
    base: &Base,
    fs: &FaultSet,
    id: PlanId,
    built: &Assembly,
    scratch: &mut Scratch<'_>,
) -> Result<Mode, StrategyError> {
    let Scratch {
        detours,
        comm,
        placer,
        sender_bytes,
        migrations: moved,
    } = scratch;
    let routing = base.routes.avoiding(topo, fs.as_set(), detours);
    #[cfg(test)]
    SEARCHES.with(|n| n.set(n.get() + routing.detoured().len()));
    comm.patch(&base.comm, &routing);
    let parents: Vec<(NodeId, &Plan)> = fs
        .iter()
        .map(|x| {
            let from_fs: FaultSet = fs.iter().filter(|&y| y != x).collect();
            let from = built
                .index
                .get(&from_fs)
                .expect("every mode one level down is planned");
            (x, &built.plans[from.index()])
        })
        .collect();
    // Delta minimisation seeds from the parent that lacks the largest
    // faulty node.
    let seed = parents.last().map(|(_, parent)| &parent.placement);
    let mut mode = place_and_schedule(workload, topo, cfg, fs, &routing, seed, placer, comm)?;

    // Evidence distribution depends on the mode being entered only.
    let dist_bound =
        Duration(2 * comm.worst(EVIDENCE_WIRE_BYTES).as_micros() + VALIDATION_SLACK.as_micros());
    mode.incoming = parents
        .iter()
        .map(|&(trigger, from)| {
            let transfer_bytes = migrations(
                workload,
                &from.placement,
                &mode.placement,
                sender_bytes,
                moved,
            );
            // State transfer: senders transmit in parallel on their own
            // slices, and the worst bound is monotone in bytes, so the
            // slowest sender is the one with the most bytes.
            let transfer_bound = transfer_bytes.map_or(Duration::ZERO, |bytes| {
                comm.worst(bytes.min(u32::MAX as u64) as u32)
            });
            Transition {
                from: from.id,
                to: id,
                trigger,
                migrations: moved.to_vec(),
                bound: dist_bound + transfer_bound + workload.period,
            }
        })
        .collect();
    Ok(mode)
}

/// Every work/check task whose host differs between two placements —
/// their count is the plan distance, `placement_distance` — written over
/// `migrations`; returns the most state bytes any one old host must send
/// (`None` if no task leaves a host). Both maps are sorted, so they are
/// merged, not searched. `sender_bytes` is one zero per node, and is
/// left so.
fn migrations(
    workload: &Workload,
    from: &BTreeMap<ATask, NodeId>,
    to: &BTreeMap<ATask, NodeId>,
    sender_bytes: &mut [u64],
    migrations: &mut Vec<Migration>,
) -> Option<u64> {
    migrations.clear();
    let mut most: Option<u64> = None;
    let mut old_rows = from.iter().peekable();
    for (&atask, &new_node) in to {
        if matches!(atask, ATask::Verify { .. }) {
            break; // Reserves sort last, and are fixtures, not tasks.
        }
        while old_rows.next_if(|&(&old, _)| old < atask).is_some() {}
        let old = old_rows
            .next_if(|&(&old, _)| old == atask)
            .map(|(_, &node)| node);
        if old == Some(new_node) {
            continue;
        }
        let state_bytes = match atask {
            ATask::Work { task, .. } => workload.task(task).state_bytes,
            _ => 0,
        };
        if let Some(o) = old {
            sender_bytes[o.index()] += state_bytes as u64;
            most = most.max(Some(sender_bytes[o.index()]));
        }
        migrations.push(Migration {
            atask,
            from: old,
            to: new_node,
            state_bytes,
        });
    }
    for m in migrations.iter() {
        if let Some(o) = m.from {
            sender_bytes[o.index()] = 0;
        }
    }
    most
}

/// The task to shed when the mode cannot be scheduled: the lowest
/// criticality alive task; within a level, largest WCET first.
fn capacity_victim(workload: &Workload, lanes: &BTreeMap<TaskId, u8>) -> Option<TaskId> {
    workload
        .tasks()
        .iter()
        .filter(|t| lanes.contains_key(&t.id))
        .min_by_key(|t| shed_order_key(workload, t.id))
        .map(|t| t.id)
}

/// Place and schedule one mode, shedding and retrying until it fits
/// (`incoming` is left for the caller). A mode is placed once: lanes
/// that break a hard constraint are shed on `broken_constraint`'s word,
/// before anything is scored. `comm` is read off `routing`.
#[allow(clippy::too_many_arguments)]
fn place_and_schedule(
    workload: &Workload,
    topo: &btr_model::Topology,
    cfg: &PlannerConfig,
    fs: &FaultSet,
    routing: &ModeRoutes,
    parent: Option<&BTreeMap<ATask, NodeId>>,
    placer: &mut Placer,
    comm: &CommTable,
) -> Result<Mode, StrategyError> {
    let healthy = Healthy::count(topo, fs.as_set());
    let healthy_sensors = healthy.sensors.max(1) as u8;
    let infeasible = |reason: String| StrategyError::Infeasible {
        fault_set: fs.clone(),
        reason,
    };
    let mut shed: BTreeSet<TaskId> = BTreeSet::new();
    loop {
        let lanes = lane_counts(workload, cfg.replication, cfg.f, &shed, healthy_sensors);
        if lanes.is_empty() {
            // Everything shed: the empty plan (always feasible).
            let synth = synthesize(
                workload,
                topo,
                routing,
                &BTreeMap::new(),
                &lanes,
                &cfg.sched,
            )
            .map_err(|e| infeasible(format!("even the empty plan failed: {e}")))?;
            return Ok(Mode {
                placement: BTreeMap::new(),
                synth,
                shed,
                incoming: Vec::new(),
            });
        }
        if let Some(e) = broken_constraint(workload, &lanes, fs.as_set(), healthy) {
            if cfg.shed == ShedPolicy::Never {
                return Err(infeasible(e.to_string()));
            }
            let (PlacementError::ActuatorLost(victim)
            | PlacementError::NoSensorNode(victim)
            | PlacementError::InsufficientNodes { task: victim, .. }) = e;
            shed.insert(victim);
            continue;
        }
        let placement = placer.place(
            workload,
            topo,
            comm,
            &lanes,
            fs.as_set(),
            parent,
            &cfg.place,
        );
        match synthesize(workload, topo, routing, &placement, &lanes, &cfg.sched) {
            Ok(synth) => {
                // Effective shed set: anything without lanes.
                let mut effective = shed.clone();
                for t in workload.tasks() {
                    if !lanes.contains_key(&t.id) {
                        effective.insert(t.id);
                    }
                }
                return Ok(Mode {
                    placement,
                    synth,
                    shed: effective,
                    incoming: Vec::new(),
                });
            }
            Err(e) => {
                if cfg.shed == ShedPolicy::Never {
                    return Err(infeasible(e.to_string()));
                }
                match capacity_victim(workload, &lanes) {
                    Some(v) => {
                        shed.insert(v);
                    }
                    None => {
                        return Err(infeasible(format!(
                            "unschedulable with empty workload: {e}"
                        )));
                    }
                }
            }
        }
    }
}

fn enumerate_fault_sets(n: usize, k: usize) -> Vec<FaultSet> {
    // All k-subsets of 0..n in lexicographic order.
    let mut out = Vec::new();
    let mut idx: Vec<usize> = (0..k).collect();
    if k == 0 {
        return vec![FaultSet::empty()];
    }
    if k > n {
        return out;
    }
    loop {
        out.push(idx.iter().map(|&i| NodeId(i as u32)).collect::<FaultSet>());
        // Advance combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + n - k {
                idx[i] += 1;
                for j in i + 1..k {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// The strategy under construction: every mode absorbed so far.
#[derive(Default)]
struct Assembly {
    plans: Vec<Plan>,
    index: BTreeMap<FaultSet, PlanId>,
    transitions: BTreeMap<(PlanId, PlanId), Transition>,
    stats: StrategyStats,
    /// Under strict admission, the first transition over R in
    /// (`from` fault set, trigger) order: its `from`, trigger and total.
    violation: Option<(FaultSet, NodeId, Duration)>,
}

impl Assembly {
    /// Add a planned mode and the transitions into it.
    fn absorb(&mut self, cfg: &PlannerConfig, fs: FaultSet, mode: Mode) {
        let id = PlanId(self.plans.len() as u32);
        self.stats.max_shed = self.stats.max_shed.max(mode.shed.len());
        if !mode.shed.is_empty() {
            self.stats.degraded_plans += 1;
        }
        for transition in mode.incoming {
            debug_assert_eq!(transition.to, id, "plan ids follow enumeration order");
            let distance = transition.migrations.len();
            let total = DETECT_MARGIN + transition.bound;
            if total > cfg.r_bound && !cfg.admit_best_effort {
                let from_fs = &self.plans[transition.from.index()].fault_set;
                let earlier = self
                    .violation
                    .as_ref()
                    .is_none_or(|(v_from, v_trigger, _)| {
                        (from_fs, transition.trigger) < (v_from, *v_trigger)
                    });
                if earlier {
                    self.violation = Some((from_fs.clone(), transition.trigger, total));
                }
            }
            self.stats.worst_transition = self.stats.worst_transition.max(transition.bound);
            self.stats.worst_distance = self.stats.worst_distance.max(distance);
            self.stats.total_distance += distance;
            self.transitions
                .insert((transition.from, transition.to), transition);
        }
        self.plans.push(Plan {
            id,
            fault_set: fs.clone(),
            placement: mode.placement,
            schedules: mode.synth.schedules,
            shed: mode.shed,
        });
        self.index.insert(fs, id);
    }
}

/// The number of fault sets of at most `f` of `n` nodes: the modes of a
/// strategy.
fn lattice_size(n: usize, f: usize) -> usize {
    let (mut level, mut total) = (1, 0);
    for k in 0..=f.min(n) {
        total += level;
        level = level * (n - k) / (k + 1);
    }
    total
}

/// Build the full strategy for a workload on a platform.
///
/// One all-pairs route search and read, fault-free, then one pass over
/// the fault-set lattice, level by level: each mode is planned once
/// (`plan_mode`, on a view patched from the fault-free routes) together
/// with the transitions into it from its parents one level down, on a
/// worker thread when `cfg.threads > 1`, and absorbed in enumeration
/// order. An infeasible mode fails the build as soon as its level is
/// reached; a transition over R under strict admission fails it once
/// every mode is planned.
pub fn build_strategy(
    workload: &Workload,
    topo: &btr_model::Topology,
    cfg: &PlannerConfig,
) -> Result<(Strategy, StrategyStats), StrategyError> {
    let n = topo.node_count();
    let routes = BaseRoutes::new(topo);
    #[cfg(test)]
    SEARCHES.with(|s| s.set(s.get() + routes.table().searched()));
    let mut built = Assembly::default();
    built.plans.reserve_exact(lattice_size(n, cfg.f as usize));
    let mut scratch = Scratch::new(topo);
    let base = Base {
        comm: BaseComm::read(&scratch.comm, routes.table()),
        routes,
    };

    for k in 0..=cfg.f as usize {
        let sets = enumerate_fault_sets(n, k);
        let first = built.plans.len();
        let plan_nth = |i: usize, fs: &FaultSet, built: &Assembly, scratch: &mut Scratch| {
            let id = PlanId((first + i) as u32);
            plan_mode(workload, topo, cfg, &base, fs, id, built, scratch)
        };

        if cfg.threads > 1 && sets.len() > 8 {
            let chunk = sets.len().div_ceil(cfg.threads);
            let (sets_ref, built_ref, plan_nth) = (&sets, &built, &plan_nth);
            let chunks: Vec<Result<Vec<Mode>, StrategyError>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..sets.len())
                    .step_by(chunk)
                    .map(|start| {
                        let end = (start + chunk).min(sets.len());
                        scope.spawn(move || {
                            let mut scratch = Scratch::new(topo);
                            (start..end)
                                .map(|i| plan_nth(i, &sets_ref[i], built_ref, &mut scratch))
                                .collect()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("planner worker panicked"))
                    .collect()
            });
            let mut modes = Vec::with_capacity(sets.len());
            for chunk in chunks {
                modes.extend(chunk?);
            }
            for (fs, mode) in sets.into_iter().zip(modes) {
                built.absorb(cfg, fs, mode);
            }
        } else {
            for (i, fs) in sets.into_iter().enumerate() {
                let mode = plan_nth(i, &fs, &built, &mut scratch)?;
                built.absorb(cfg, fs, mode);
            }
        }
    }

    if let Some((from, trigger, bound)) = built.violation {
        let mut to = from.clone();
        to.insert(trigger);
        return Err(StrategyError::RBoundViolated {
            from,
            to,
            bound,
            r: cfg.r_bound,
        });
    }

    let mut stats = built.stats;
    stats.plans = built.plans.len();
    stats.transitions = built.transitions.len();
    Ok((
        Strategy {
            f: cfg.f,
            r_bound: cfg.r_bound,
            period: workload.period,
            plans: built.plans,
            index: built.index,
            transitions: built.transitions,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_model::{Criticality, Topology};
    use btr_net::RoutingTable;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    fn setup() -> (Workload, Topology) {
        let w = btr_model::workload::generators::avionics(9);
        let topo = Topology::bus(9, 100_000, Duration(5));
        (w, topo)
    }

    #[test]
    fn enumerates_fault_sets_correctly() {
        assert_eq!(enumerate_fault_sets(4, 0).len(), 1);
        assert_eq!(enumerate_fault_sets(4, 1).len(), 4);
        assert_eq!(enumerate_fault_sets(4, 2).len(), 6);
        assert_eq!(enumerate_fault_sets(4, 5).len(), 0);
        // All distinct.
        let sets = enumerate_fault_sets(6, 3);
        let uniq: BTreeSet<_> = sets.iter().cloned().collect();
        assert_eq!(uniq.len(), sets.len());
        assert_eq!(sets.len(), 20);
        for (n, f) in [(4, 5), (9, 1), (20, 2), (36, 1), (12, 3), (6, 0)] {
            let modes: usize = (0..=f).map(|k| enumerate_fault_sets(n, k).len()).sum();
            assert_eq!(lattice_size(n, f), modes, "({n}, {f})");
        }
    }

    /// Destinations searched while building a strategy with one thread.
    fn searches_building(w: &Workload, topo: &Topology, f: u8) -> (usize, StrategyStats) {
        let mut cfg = PlannerConfig::new(f, ms(300));
        cfg.admit_best_effort = true;
        let before = SEARCHES.with(|n| n.get());
        let (_, stats) = build_strategy(w, topo, &cfg).unwrap();
        (SEARCHES.with(|n| n.get()) - before, stats)
    }

    #[test]
    fn modes_search_only_what_their_faults_relayed() {
        // On a bus no route has a relay: the fault-free table's 20
        // searches are all the 211 modes of (20, 2) cost.
        let bus = Topology::bus(20, 150_000, Duration(5));
        let (searches, stats) =
            searches_building(&btr_model::workload::generators::avionics(20), &bus, 2);
        assert_eq!((searches, stats.plans), (20, 211));
        // On a ring every node relays for someone, yet a mode searches
        // again only the destinations its faulty nodes relayed for: 744
        // searches in all, where a fresh table per mode searched its
        // 12 − |F| destinations, 804.
        let ring = Topology::ring(12, 150_000, Duration(5));
        let (searches, stats) =
            searches_building(&btr_model::workload::generators::avionics(12), &ring, 2);
        let fresh: usize = (0..=2)
            .map(|k| (12 - k) * enumerate_fault_sets(12, k).len())
            .sum();
        assert_eq!((searches, fresh, stats.plans), (744, 804, 79));
    }

    /// The error the placer's control flow meets first when every lane
    /// takes the candidate `pick` chooses: the hard constraints spelled
    /// out lane by lane, with no scoring.
    fn first_error_placing(
        w: &Workload,
        topo: &Topology,
        lanes: &BTreeMap<TaskId, u8>,
        faulty: &BTreeSet<NodeId>,
        pick: fn(&[NodeId]) -> NodeId,
    ) -> Option<PlacementError> {
        use btr_model::workload::TaskKind;
        let healthy: Vec<NodeId> = topo
            .nodes()
            .iter()
            .map(|n| n.id)
            .filter(|n| !faulty.contains(n))
            .collect();
        for &tid in w.topo_order() {
            let Some(&n_lanes) = lanes.get(&tid) else {
                continue;
            };
            let mut siblings: Vec<NodeId> = Vec::new();
            for r in 0..n_lanes {
                let free = |n: &NodeId| !siblings.contains(n);
                let candidates: Vec<NodeId> = match w.task(tid).kind {
                    TaskKind::Sink { pinned } if faulty.contains(&pinned) => {
                        return Some(PlacementError::ActuatorLost(tid));
                    }
                    TaskKind::Sink { pinned } => vec![pinned],
                    TaskKind::Source { .. } => {
                        let sensing = |n: &NodeId| topo.node(*n).can_sense;
                        healthy
                            .iter()
                            .copied()
                            .filter(sensing)
                            .filter(free)
                            .collect()
                    }
                    TaskKind::Compute => healthy.iter().copied().filter(free).collect(),
                };
                if candidates.is_empty() {
                    match w.task(tid).kind {
                        TaskKind::Source { .. } if r == 0 => {
                            return Some(PlacementError::NoSensorNode(tid));
                        }
                        TaskKind::Source { .. } => break,
                        _ => {
                            return Some(PlacementError::InsufficientNodes {
                                task: tid,
                                need: n_lanes,
                                have: healthy.len(),
                            });
                        }
                    }
                }
                siblings.push(pick(&candidates));
            }
        }
        None
    }

    /// The golden platforms (`tests/golden.rs`) with their fault budgets.
    fn golden_platforms() -> Vec<(Topology, u8)> {
        let lat = Duration(5);
        let mut mixed = btr_model::TopologyBuilder::new();
        let nodes: Vec<NodeId> = [50, 100, 200, 100, 50, 200]
            .into_iter()
            .enumerate()
            .map(|(i, speed_pct)| mixed.node(speed_pct, i == 0 || i == 4, true))
            .collect();
        mixed.link(&nodes, 150_000, lat);
        vec![
            (Topology::bus(20, 150_000, lat), 2),
            (Topology::bus(36, 150_000, lat), 1),
            (Topology::ring(12, 150_000, lat), 2),
            (Topology::mesh(3, 4, 150_000, lat), 2),
            (Topology::dual_bus(6, 150_000, lat), 3),
            (Topology::bus(5, 20_000, lat), 2),
            (
                btr_model::topology::fat_tree(4, 3, 150_000, lat).unwrap(),
                1,
            ),
            (mixed.build().unwrap(), 2),
        ]
    }

    #[test]
    fn constraint_walk_is_the_placers_verdict() {
        // Over every fault set and every shed prefix the shed loop
        // visits: the walk, the placer, and the constraints spelled out
        // lane by lane — whichever node each lane takes — agree.
        let opts = crate::placement::PlaceOpts::default();
        let (mut modes, mut broken) = (0, 0);
        for (topo, f) in golden_platforms() {
            for w in [
                btr_model::workload::generators::avionics(topo.node_count()),
                btr_model::workload::generators::scada(topo.node_count()),
            ] {
                let cfg = PlannerConfig::new(f, ms(300));
                let fault_sets =
                    (0..=f as usize).flat_map(|k| enumerate_fault_sets(topo.node_count(), k));
                for fs in fault_sets {
                    let routing = RoutingTable::avoiding(&topo, fs.as_set());
                    let healthy = Healthy::count(&topo, fs.as_set());
                    let mut shed = BTreeSet::new();
                    loop {
                        let lanes = lane_counts(
                            &w,
                            cfg.replication,
                            cfg.f,
                            &shed,
                            healthy.sensors.max(1) as u8,
                        );
                        if lanes.is_empty() {
                            break;
                        }
                        let walk = broken_constraint(&w, &lanes, fs.as_set(), healthy);
                        let placed =
                            crate::place(&w, &topo, &routing, &lanes, fs.as_set(), None, &opts);
                        assert_eq!(walk, placed.as_ref().err().cloned(), "{fs} shed {shed:?}");
                        for pick in [
                            (|c| c[0]) as fn(&[NodeId]) -> NodeId,
                            |c| c[c.len() - 1],
                            |c| c[c.len() / 2],
                        ] {
                            let spelled = first_error_placing(&w, &topo, &lanes, fs.as_set(), pick);
                            assert_eq!(walk, spelled, "{fs} shed {shed:?}");
                        }
                        modes += 1;
                        let victim = match placed {
                            Err(
                                PlacementError::ActuatorLost(t)
                                | PlacementError::NoSensorNode(t)
                                | PlacementError::InsufficientNodes { task: t, .. },
                            ) => {
                                broken += 1;
                                Some(t)
                            }
                            Ok(placement) => {
                                match synthesize(
                                    &w, &topo, &routing, &placement, &lanes, &cfg.sched,
                                ) {
                                    Ok(_) => None,
                                    Err(_) => capacity_victim(&w, &lanes),
                                }
                            }
                        };
                        match victim {
                            Some(t) => shed.insert(t),
                            None => break,
                        };
                    }
                }
            }
        }
        // The sweep is not vacuous: most prefixes place, many do not.
        assert!(broken > 200 && modes > 3 * broken, "{broken} of {modes}");
    }

    #[test]
    fn each_mode_is_placed_once() {
        use crate::placement::PLACEMENTS;
        let w = btr_model::workload::generators::avionics(20);
        let topo = Topology::bus(20, 150_000, Duration(5));
        let mut cfg = PlannerConfig::new(2, ms(300));
        cfg.admit_best_effort = true;
        let before = PLACEMENTS.with(|n| n.get());
        let (_, stats) = build_strategy(&w, &topo, &cfg).unwrap();
        let placements = PLACEMENTS.with(|n| n.get()) - before;
        // 105 of the 211 modes shed (the goldens' `degraded_plans`), 120
        // sheds in all, and none of them costs a placement.
        assert_eq!((stats.plans, stats.degraded_plans), (211, 105));
        assert_eq!(placements, stats.plans);
    }

    #[test]
    fn f1_strategy_covers_all_single_faults() {
        let (w, topo) = setup();
        let cfg = PlannerConfig::new(1, ms(100));
        let (strategy, stats) = build_strategy(&w, &topo, &cfg).expect("plannable");
        assert_eq!(stats.plans, 1 + 9);
        assert_eq!(strategy.plan_count(), 10);
        // Every single-fault set indexed; every plan validates.
        for i in 0..9u32 {
            let fs = FaultSet::from_nodes(&[NodeId(i)]);
            let pid = strategy.plan_for(&fs).expect("indexed");
            let plan = strategy.plan(pid);
            plan.validate(&topo, strategy.period).expect("valid plan");
            assert!(!plan.placement.values().any(|&n| n == NodeId(i)));
        }
        // Transitions exist from the initial plan to each single fault.
        assert_eq!(stats.transitions, 9);
    }

    #[test]
    fn f2_strategy_size() {
        let (w, topo) = setup();
        let mut cfg = PlannerConfig::new(2, ms(200));
        cfg.admit_best_effort = true;
        let (strategy, stats) = build_strategy(&w, &topo, &cfg).expect("plannable");
        assert_eq!(stats.plans, 1 + 9 + 36);
        // Transitions: 9 from empty + 36 pairs * 2 orders = 81.
        assert_eq!(stats.transitions, 9 + 36 * 2);
        assert!(strategy.worst_transition_bound() > Duration::ZERO);
    }

    /// Every transition's bound carries exactly one period, and it is
    /// the workload's: the 5 ms `automotive` and the 20 ms `scada` are
    /// planned at their own periods. The rest of each bound — evidence
    /// distribution plus the slowest state transfer — is derived again
    /// here from the plans the strategy holds.
    #[test]
    fn period_is_the_workloads() {
        use btr_model::workload::generators::{automotive, scada};
        for (w, n) in [(automotive(8), 8), (scada(6), 6)] {
            let topo = Topology::bus(n, 150_000, Duration(5));
            let mut cfg = PlannerConfig::new(1, ms(300));
            cfg.admit_best_effort = true;
            let (strategy, stats) = build_strategy(&w, &topo, &cfg).unwrap();
            assert_eq!(strategy.period, w.period);
            let mut comm = CommTable::new(&topo);
            let (mut sender_bytes, mut moved) = (vec![0; n], vec![]);
            for t in strategy.transitions.values() {
                let (from, to) = (strategy.plan(t.from), strategy.plan(t.to));
                comm.read_routes(&RoutingTable::avoiding(&topo, to.fault_set.as_set()));
                let dist = Duration(
                    2 * comm.worst(EVIDENCE_WIRE_BYTES).as_micros() + VALIDATION_SLACK.as_micros(),
                );
                let bytes = migrations(
                    &w,
                    &from.placement,
                    &to.placement,
                    &mut sender_bytes,
                    &mut moved,
                );
                assert_eq!(t.migrations, moved, "{} -> {}", t.from, t.to);
                let transfer = bytes.map_or(Duration::ZERO, |b| comm.worst(b as u32));
                assert_eq!(
                    t.bound,
                    dist + transfer + w.period,
                    "{} -> {}",
                    t.from,
                    t.to
                );
            }
            assert_eq!(stats.worst_transition, strategy.worst_transition_bound());
        }
    }

    #[test]
    fn strict_admission_rejects_tiny_r() {
        let (w, topo) = setup();
        let cfg = PlannerConfig::new(1, Duration(10)); // R = 10 µs: impossible.
        let err = build_strategy(&w, &topo, &cfg).unwrap_err();
        assert!(matches!(err, StrategyError::RBoundViolated { .. }));
    }

    #[test]
    fn parallel_matches_sequential() {
        // Workers derive each mode's incoming transitions too, so the
        // comparison covers them; the mesh makes routes (and so bounds
        // and placements) depend on the fault set.
        let mesh = Topology::mesh(3, 4, 100_000, Duration(5));
        for (topo, threads) in [(setup().1, 4), (mesh, 3)] {
            let w = btr_model::workload::generators::avionics(topo.node_count());
            let mut cfg = PlannerConfig::new(2, ms(200));
            cfg.admit_best_effort = true;
            let sequential = build_strategy(&w, &topo, &cfg).unwrap();
            cfg.threads = threads;
            let parallel = build_strategy(&w, &topo, &cfg).unwrap();
            assert_eq!(
                sequential, parallel,
                "parallel planning must be deterministic"
            );
        }
    }

    #[test]
    fn actuator_fault_sheds_its_sink() {
        let (w, topo) = setup();
        let cfg = PlannerConfig::new(1, ms(100));
        let (strategy, _) = build_strategy(&w, &topo, &cfg).unwrap();
        // The elevator sink is pinned to node 3 (avionics pinning).
        let elevator = w.tasks().iter().find(|t| t.name == "elevator").unwrap();
        let pinned = elevator.kind.pinned_node().unwrap();
        let fs = FaultSet::from_nodes(&[pinned]);
        let plan = strategy.plan(strategy.plan_for(&fs).unwrap());
        assert!(plan.is_shed(elevator.id), "lost actuator must be shed");
        // But the aileron still runs.
        let aileron = w.tasks().iter().find(|t| t.name == "aileron").unwrap();
        assert!(!plan.is_shed(aileron.id));
    }

    #[test]
    fn shedding_prefers_low_criticality() {
        // Overload a tiny platform so the planner must shed.
        let w = btr_model::workload::generators::avionics(4);
        let topo = Topology::bus(4, 30_000, Duration(5));
        let mut cfg = PlannerConfig::new(1, ms(100));
        cfg.admit_best_effort = true;
        let (strategy, stats) = build_strategy(&w, &topo, &cfg).expect("plannable with shedding");
        if stats.max_shed > 0 {
            // In any degraded plan, if a Safety task was shed for capacity
            // reasons, all Low tasks must be gone too (shed order).
            for plan in &strategy.plans {
                let shed_caps: BTreeSet<_> =
                    plan.shed.iter().map(|t| w.task(*t).criticality).collect();
                if shed_caps.contains(&Criticality::Safety) {
                    let low_alive = w.tasks_at(Criticality::Low).any(|t| {
                        !plan.is_shed(t.id)
                            && !matches!(t.kind, btr_model::workload::TaskKind::Sink { .. })
                    });
                    // Safety shed only after Low exhausted, except pinned
                    // actuator losses which shed regardless of level.
                    let actuator_losses: BTreeSet<_> = w
                        .sinks()
                        .filter(|s| {
                            s.kind
                                .pinned_node()
                                .is_some_and(|n| plan.fault_set.contains(n))
                        })
                        .map(|s| s.id)
                        .collect();
                    let capacity_safety_shed = plan.shed.iter().any(|t| {
                        w.task(*t).criticality == Criticality::Safety
                            && !actuator_losses.contains(t)
                    });
                    if capacity_safety_shed {
                        assert!(!low_alive, "Low tasks alive while Safety shed");
                    }
                }
            }
        }
    }
}
