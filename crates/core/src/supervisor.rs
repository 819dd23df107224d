//! The live fleet: the simulator's [`World`] driven on one worker thread
//! under a wall-clock pacer.
//!
//! The simulator substitutes for the paper's hardware testbed; the fleet
//! substitutes for its *deployment*. [`run_live`] builds the system's
//! world on a worker thread and dispatches it one event at a time
//! ([`World::step`]), each once the wall clock reaches its logical instant
//! under a pacer, so that recovery is measured on the wall clock against
//! the paper's R bound. All protocol-visible time is logical, so a live
//! run must produce the simulator's canonical actuation trace
//! ([`LogicalTrace`]), however late the worker runs behind the wall. What
//! the driver adds to the world: the pacer, the wall deadline and its
//! overruns, a worker wedged in a dispatch left behind, panic isolation
//! per step, restarts of crashed nodes, and wall-stamped
//! [`RuntimeEvent`]s. Every node comes up through a scheduled start, so
//! that a start is one step like any other: one `catch_unwind`, one
//! `Started` event. One worker, not one per core: on two cores a second
//! worker made every measured run slower (EXPERIMENTS.md "One worker
//! stepping node hosts").

use crate::system::{node_rows, NodeFactory};
use crate::{BtrSystem, FaultScenario, InjectedFault, NodeRow};
use btr_model::{Duration, NodeId, Time, Topology};
use btr_obs::{FlightEvent, FlightKind, FlightRecorder, Histogram, ObsRecorder, PhaseMark};
use btr_runtime::BtrNode;
use btr_sim::{ControlAction, LogicalTrace, SimConfig, StepKind, Stepped, World};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread;
use std::time::Instant;

#[cfg(test)]
mod tests;

/// Maps logical time onto the wall clock: logical `t` µs may not
/// dispatch before `epoch + pace · t` µs of wall time. `pace` > 1 slows
/// the run down (more slack for scheduling jitter); it never changes
/// logical outcomes, only wall-clock fidelity.
#[derive(Debug, Clone, Copy)]
struct Pacer {
    epoch: Instant,
    pace: f64,
}

impl Pacer {
    /// A pacer whose logical zero is now.
    fn start(pace: f64) -> Pacer {
        assert!(pace > 0.0, "pace must be positive");
        let epoch = Instant::now();
        Pacer { epoch, pace }
    }

    /// The wall instant before which logical `at` must not dispatch.
    fn wall_for(&self, at: Time) -> Instant {
        let ns = at.as_micros() as f64 * self.pace * 1_000.0;
        self.epoch + std::time::Duration::from_nanos(ns as u64)
    }
}

/// What a node reports to the fleet, stamped in both time bases.
#[derive(Debug, Clone)]
pub struct RuntimeEvent {
    /// The reporting node.
    pub node: NodeId,
    /// Its logical clock at the event.
    pub logical: Time,
    /// Wall µs since the run epoch.
    pub wall_us: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The kinds of runtime events a node can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// The node came up (cold start or restart) and `on_start` ran.
    Started,
    /// The node was up at the horizon.
    Finished,
    /// The node fail-stopped.
    Crashed,
    /// The node's runtime completed a mode switch (cumulative count).
    SwitchCompleted {
        /// The node's total switches so far.
        count: u64,
    },
    /// The behaviour panicked; the fleet attributes and reports it.
    Panicked(String),
}

/// Knobs for a live run.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Seed for keys, skews, RNG streams, and transmission loss — the
    /// same derivations the simulator makes from its seed.
    pub(crate) seed: u64,
    /// Wall-µs per logical-µs (1.0 = real time; larger = slower run
    /// with more scheduling slack; logical outcomes are unaffected).
    pub pace: f64,
    /// Logical downtime before a crashed node is restarted
    /// (`Duration::ZERO` = crashed nodes stay down).
    pub restart_after: Duration,
    /// Extra wall time past the paced horizon before the nodes still up
    /// are declared deadline overruns.
    pub join_grace: std::time::Duration,
    /// Collect phase marks (out-of-band either way; the obs on/off
    /// digest test flips this to prove inertness).
    pub obs: bool,
}

impl LiveConfig {
    /// Defaults: real-time pace, no restarts.
    pub fn new(seed: u64) -> LiveConfig {
        LiveConfig {
            seed,
            pace: 1.0,
            restart_after: Duration::ZERO,
            join_grace: std::time::Duration::from_millis(500),
            obs: true,
        }
    }
}

/// Send totals for the whole run, from the world's metrics; zero when
/// the worker was left wedged inside a dispatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropTotals {
    /// Always 0: the fleet's world has no mailbox to overflow. Kept
    /// while the repository benchmark reads it.
    pub mailbox_full: u64,
    /// Messages that entered the network.
    pub sent: u64,
}

/// A caught behaviour panic, attributed to its node and annotated with
/// the node's last known logical instant and flight-recorder tail — the
/// last few dispatches leading into the failure.
#[derive(Debug, Clone)]
pub struct PanicReport {
    /// The panicking node.
    pub node: NodeId,
    /// The panic payload (message).
    pub message: String,
    /// The logical instant of the dispatch that panicked.
    pub last_logical: Option<Time>,
    /// Total dispatches in the node's flight ring's history, the one
    /// that panicked included.
    pub flight_total: u64,
    /// The last few dispatches, oldest first.
    pub flight_tail: Vec<FlightEvent>,
}

/// Everything a live run produces.
#[derive(Debug, Default)]
pub struct LiveReport {
    /// The canonical logical actuation trace (compare against
    /// `World::logical_trace()` — the simulator is the oracle): every
    /// actuation before the worker stopped, none if it was left wedged.
    pub trace: LogicalTrace,
    /// Per-node runtime stats, final plan, fault-set size (correct
    /// nodes only — the same rows as `RunReport`'s).
    pub node_stats: Vec<NodeRow>,
    /// True if all such nodes agree on fault set and plan.
    pub converged: bool,
    /// Every runtime event, logically and wall-clock stamped.
    pub events: Vec<RuntimeEvent>,
    /// Panics caught in node dispatches, attributed to their node, with
    /// each node's flight-recorder tail and last logical timestamp (none
    /// if the worker was left wedged: the event log still has them).
    pub panics: Vec<PanicReport>,
    /// Nodes still up when the worker stopped at the wall deadline, short
    /// of the horizon; every node, if it was left wedged.
    pub deadline_overruns: Vec<NodeId>,
    /// Send totals.
    pub drops: DropTotals,
    /// Phase marks observed across all nodes, in observation order
    /// (empty when `LiveConfig::obs` is off).
    pub phase_marks: Vec<PhaseMark>,
    /// Always 0: nothing stalls on a peer. Kept while the repository
    /// benchmark reads it.
    pub frontier_stalls: u64,
    /// Always 0: there is no mailbox to drain. Kept while the repository
    /// benchmark reads it.
    pub redrains: u64,
    /// Wall-clock lateness of timer dispatches past their paced instant
    /// (µs).
    pub timer_lag: Histogram,
    /// Wall time for the whole run (setup to last join).
    pub wall: std::time::Duration,
}

impl LiveReport {
    /// No panics, no deadline overruns.
    pub fn healthy(&self) -> bool {
        self.panics.is_empty() && self.deadline_overruns.is_empty()
    }

    /// The wall µs (since run epoch) of the *last* mode-switch
    /// completion — the live system's observable mode-change instant, to
    /// hold against the paper's wall-clock R bound.
    pub fn last_switch_wall_us(&self) -> Option<u64> {
        let switches = self.events.iter();
        let switches = switches.filter(|e| matches!(e.kind, EventKind::SwitchCompleted { .. }));
        switches.map(|e| e.wall_us).max()
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    let text = p.downcast_ref::<&str>().map(|s| s.to_string());
    let text = text.or_else(|| p.downcast_ref::<String>().cloned());
    text.unwrap_or_else(|| "non-string panic payload".to_string())
}

/// What the worker keeps per node beside the world.
#[derive(Default)]
struct Host {
    /// This incarnation's behaviour panicked, and the world lost it.
    panicked: bool,
    /// The running incarnation's mode switches so far.
    switches: u64,
    /// Ring of the last few dispatches: the tail a panic report shows.
    flight: FlightRecorder,
}

/// The worker: the world, the fleet's state beside it, and where the
/// fleet reports.
struct Worker {
    world: World,
    hosts: Vec<Host>,
    scenario: FaultScenario,
    /// The logical horizon (inclusive, as the simulator's `run_until`).
    end: Time,
    pacer: Pacer,
    events: Sender<RuntimeEvent>,
    /// The report so far: the panics and the timer lag.
    report: LiveReport,
}

/// The fleet's world: the simulator's (`sim`, `topo`), with its nodes'
/// starts scheduled ahead of everything else at their instants — every
/// cold start at zero and each crash victim's restart — and then the
/// scenario's crashes.
fn paced_world(
    sim: SimConfig,
    topo: Topology,
    scenario: &FaultScenario,
    cfg: &LiveConfig,
    end: Time,
    nodes: &dyn NodeFactory,
) -> World {
    let ids = (0..topo.node_count() as u32).map(NodeId);
    let mut world = World::new(topo, sim);
    let crash = |node| scenario.fault_of(node).and_then(InjectedFault::crash_at);
    for node in ids.clone() {
        let attack = scenario.fault_of(node).and_then(InjectedFault::attack);
        world.schedule_start(Time::ZERO, node, nodes.make(node, attack));
        let back = crash(node).map(|at| at + cfg.restart_after);
        if let Some(back) = back.filter(|&at| cfg.restart_after > Duration::ZERO && at < end) {
            world.schedule_start(back, node, nodes.make(node, None));
        }
    }
    for node in ids {
        if let Some(at) = crash(node) {
            world.schedule_control(at, ControlAction::Crash(node));
        }
    }
    if cfg.obs {
        world.set_recorder(Box::new(ObsRecorder::new()));
    }
    nodes.warm(&mut world);
    world.start();
    world
}

impl Worker {
    fn emit(&self, node: NodeId, logical: Time, kind: EventKind) {
        let wall_us = self.pacer.epoch.elapsed().as_micros() as u64;
        let event = RuntimeEvent {
            node,
            logical,
            wall_us,
            kind,
        };
        // The fleet drains the channel once the worker has stopped.
        let _ = self.events.send(event);
    }

    /// Up: started, and neither crashed nor lost to a panic.
    fn up(&self, node: NodeId) -> bool {
        self.world.behavior(node).is_some() && !self.world.is_crashed(node)
    }

    /// Dispatch the world's events one at a time, each once the wall
    /// reaches its paced instant (waits capped at `stop`), until none is
    /// left inside the horizon or `stop` passes.
    fn run(mut self, stop: Instant) -> LiveReport {
        while let Some(at) = self.world.next_at().filter(|&at| at <= self.end) {
            let now = Instant::now();
            if now >= stop {
                return self.report(false);
            }
            let wall = self.pacer.wall_for(at);
            if wall > now {
                thread::sleep(wall.min(stop) - now);
                continue;
            }
            let (world, end) = (&mut self.world, self.end);
            match catch_unwind(AssertUnwindSafe(|| world.step(end))) {
                Ok(Some(step)) => self.stepped(step, now.duration_since(wall)),
                Ok(None) => break,
                Err(payload) => self.panicked(at, panic_message(payload)),
            }
        }
        self.report(true)
    }

    /// Account for one step, dispatched `late` past its paced instant.
    fn stepped(&mut self, Stepped { at, node, kind }: Stepped, late: std::time::Duration) {
        // What pops for a node that is down reaches no behaviour, and a
        // node lost to a panic has none left to crash.
        let Some(behavior) = self.world.behavior(node) else {
            return;
        };
        let host = &mut self.hosts[node.index()];
        let (flight, event) = match kind {
            StepKind::Start => {
                (host.panicked, host.switches) = (false, 0);
                (FlightKind::Start, Some(EventKind::Started))
            }
            StepKind::Crash => (FlightKind::Crash, Some(EventKind::Crashed)),
            _ if self.world.is_crashed(node) => return,
            StepKind::Timer => {
                self.report.timer_lag.record(late.as_micros() as u64);
                (FlightKind::Timer, None)
            }
            StepKind::Message { src } => (FlightKind::Message { from: src }, None),
        };
        host.flight.push(at, flight);
        let btr = behavior.as_any().and_then(|b| b.downcast_ref::<BtrNode>());
        let count = btr.map_or(0, BtrNode::switch_count);
        let switched = count > host.switches;
        if switched {
            host.switches = count;
            host.flight.push(at, FlightKind::SwitchCompleted { count });
        }
        if let Some(event) = event {
            self.emit(node, at, event);
        }
        if switched {
            self.emit(node, at, EventKind::SwitchCompleted { count });
        }
    }

    /// A behaviour panicked in the dispatch at `at`: the world lent it out
    /// of its slot, and the unwinding dropped it, so the node whose slot
    /// is newly empty is the one. Take it down and report the flight tail.
    fn panicked(&mut self, at: Time, message: String) {
        let i = (0..self.hosts.len())
            .find(|&i| !self.hosts[i].panicked && self.world.behavior(NodeId(i as u32)).is_none())
            .expect("the panicking node's behaviour is out of its slot");
        let node = NodeId(i as u32);
        self.world.schedule_control(at, ControlAction::Crash(node));
        let host = &mut self.hosts[i];
        host.panicked = true;
        host.flight.push(at, FlightKind::Note("panic"));
        let report = PanicReport {
            node,
            message: message.clone(),
            last_logical: host.flight.last_at(),
            flight_total: host.flight.total(),
            flight_tail: host.flight.tail(),
        };
        self.emit(node, at, EventKind::Panicked(message));
        self.report.panics.push(report);
    }

    /// The run's results, once the worker `reached` the horizon (the
    /// nodes up have finished) or stopped at the deadline (they overran).
    /// Every node that went down is a scenario's (no row) or lost its
    /// behaviour to a panic, so the rows fold every behaviour left.
    fn report(mut self, reached: bool) -> LiveReport {
        let nodes = (0..self.hosts.len() as u32).map(NodeId);
        let up: Vec<NodeId> = nodes.clone().filter(|&node| self.up(node)).collect();
        for &node in up.iter().filter(|_| reached) {
            self.emit(node, self.end, EventKind::Finished);
        }
        let phase_marks = self.world.take_obs().marks().to_vec();
        let world = &self.world;
        let survivors = nodes.filter_map(|node| Some((node, world.behavior(node)?)));
        let r = &mut self.report;
        (r.node_stats, r.converged) = node_rows(&self.scenario, survivors);
        (r.trace, r.phase_marks) = (world.logical_trace(), phase_marks);
        r.drops.sent = world.metrics().msgs_sent;
        r.deadline_overruns = if reached { Vec::new() } else { up };
        self.report
    }
}

/// Execute `scenario` on the live fleet: `system`'s world, with the
/// behaviours [`BtrSystem::run`] builds, under `cfg`'s pacer.
pub fn run_live(
    system: &BtrSystem,
    scenario: &FaultScenario,
    horizon: Duration,
    cfg: &LiveConfig,
) -> LiveReport {
    let mut sim = system.sim_config(cfg.seed);
    // Nothing truncates a live run.
    sim.max_events = 0;
    let (topo, end) = (system.topology(), Time::ZERO + horizon + system.grace());
    run_paced(sim, topo.clone(), scenario, end, cfg, system.nodes())
}

/// [`run_live`] in the world of `sim` and `topo`, running `nodes`'
/// behaviours up to the logical instant `end`.
pub(crate) fn run_paced(
    sim: SimConfig,
    topo: Topology,
    scenario: &FaultScenario,
    end: Time,
    cfg: &LiveConfig,
    nodes: impl NodeFactory,
) -> LiveReport {
    let run_start = Instant::now();
    let (scenario, cfg_w) = (scenario.clone(), cfg.clone());
    let (n, grace) = (topo.node_count(), cfg.join_grace);
    let (events, ev_rx) = mpsc::channel();
    let (done, done_rx) = mpsc::channel();
    let worker = thread::Builder::new()
        .name("btr-fleet".to_string())
        .spawn(move || {
            let world = paced_world(sim, topo, &scenario, &cfg_w, end, &nodes);
            // Logical zero is now, with the world built: no node starts
            // behind its wall schedule.
            let pacer = Pacer::start(cfg_w.pace);
            let worker = Worker {
                world,
                hosts: (0..n).map(|_| Host::default()).collect(),
                scenario,
                end,
                pacer,
                events,
                report: LiveReport::default(),
            };
            // Past the paced horizon and its grace the worker stops.
            let _ = done.send(worker.run(pacer.wall_for(end) + grace));
        })
        .expect("spawn fleet worker");
    // A worker wedged inside a dispatch gets one more grace past its
    // stop (counted from this, earlier, epoch), then is left behind.
    let give_up = Pacer::start(cfg.pace).wall_for(end) + 2 * grace;
    let mut report = match done_rx.recv_timeout(give_up.saturating_duration_since(Instant::now())) {
        Err(RecvTimeoutError::Timeout) => LiveReport {
            deadline_overruns: (0..n as u32).map(NodeId).collect(),
            ..LiveReport::default()
        },
        // A panic outside a behaviour's dispatch is the fleet's own bug.
        received => match worker.join() {
            Ok(()) => received.expect("a worker that ends has sent its report"),
            Err(panic) => std::panic::resume_unwind(panic),
        },
    };
    report.events = ev_rx.try_iter().collect();
    report.wall = run_start.elapsed();
    report
}
