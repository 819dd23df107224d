//! The supervisor. Its world is `BtrSystem::build_world`'s, except that
//! every node comes up through a scheduled start, so that a start is one
//! step like any other: one `catch_unwind`, one `Started` event. One
//! worker, not one per core: on two cores a second worker made every
//! measured run slower (EXPERIMENTS.md "One worker stepping node hosts").

use btr_core::{BtrSystem, FaultScenario, InjectedFault, NodeRow};
use btr_model::{Duration, NodeId, Time};
use btr_obs::{FlightEvent, FlightKind, FlightRecorder, Histogram, ObsRecorder, PhaseMark};
use btr_runtime::{Attack, BtrNode};
use btr_sim::{ControlAction, LogicalTrace, NodeBehavior, StepKind, Stepped, World};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

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

/// What a node reports to the supervisor, stamped in both time bases.
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
    /// The behaviour panicked; the supervisor attributes and reports it.
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

/// Send and drop totals for the whole run, from the world's metrics;
/// all zero when the worker was left wedged inside a dispatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropTotals {
    /// Always 0: the fleet's world has no mailbox to overflow. Kept
    /// while the repository benchmark reads it.
    pub mailbox_full: u64,
    /// Messages dropped for a cause other than a guardian or a refusing
    /// relay: transmission loss, no route, a crashed endpoint
    /// (`SimMetrics::drops_other`).
    pub drops_other: u64,
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
    /// Per-node runtime stats, final plan, fault-set size (correct,
    /// never-crashed nodes only — same exclusions as `RunReport`).
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
    /// Send and drop totals.
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

    /// Mode-switch completions, in arrival order.
    pub fn switch_events(&self) -> Vec<&RuntimeEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SwitchCompleted { .. }))
            .collect()
    }

    /// The wall µs (since run epoch) of the *last* switch completion —
    /// the live system's observable mode-change instant, to hold
    /// against the paper's wall-clock R bound.
    pub fn last_switch_wall_us(&self) -> Option<u64> {
        self.switch_events().iter().map(|e| e.wall_us).max()
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    let text = p.downcast_ref::<&str>().map(|s| s.to_string());
    let text = text.or_else(|| p.downcast_ref::<String>().cloned());
    text.unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Builds one incarnation of a node's behaviour from the attack the
/// scenario scripts for it (none after a restart).
pub(crate) type Make = dyn Fn(NodeId, Option<Attack>) -> Box<dyn NodeBehavior> + Send;

/// The behaviours the simulator builds for `system`: a `BtrNode` per
/// node.
pub(crate) fn btr_nodes(system: &BtrSystem) -> Box<Make> {
    let n = system.topology().node_count();
    let (workload, strategy) = (system.workload_arc(), system.strategy_arc());
    Box::new(move |node, attack| {
        let (workload, strategy) = (Arc::clone(&workload), Arc::clone(&strategy));
        Box::new(BtrNode::new(node, workload, strategy, n, attack))
    })
}

/// What the worker keeps per node beside the world.
#[derive(Default)]
struct Host {
    up: bool,
    /// Crashed or panicked at some point: no row in the report.
    ever_down: bool,
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
/// cold start at zero, then each crash victim's restart — and then the
/// scenario's crashes.
fn fleet_world(
    sim: btr_sim::SimConfig,
    topo: btr_model::Topology,
    scenario: &FaultScenario,
    cfg: &LiveConfig,
    end: Time,
    make: &Make,
) -> World {
    let nodes = (0..topo.node_count() as u32).map(NodeId);
    let mut world = World::new(topo, sim);
    for node in nodes.clone() {
        let attack = scenario.fault_of(node).and_then(InjectedFault::attack);
        world.schedule_start(Time::ZERO, node, make(node, attack));
    }
    let crash = |node| scenario.fault_of(node).and_then(InjectedFault::crash_at);
    for node in nodes.clone() {
        let back = crash(node).map(|at| at + cfg.restart_after);
        if let Some(back) = back.filter(|&at| cfg.restart_after > Duration::ZERO && at < end) {
            world.schedule_start(back, node, make(node, None));
        }
    }
    for node in nodes {
        if let Some(at) = crash(node) {
            world.schedule_control(at, ControlAction::Crash(node));
        }
    }
    if cfg.obs {
        world.set_recorder(Box::new(ObsRecorder::new()));
    }
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
        // The supervisor drains the channel once the worker has stopped.
        let _ = self.events.send(event);
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
        let host = &mut self.hosts[node.index()];
        let (flight, event) = match kind {
            StepKind::Start => {
                (host.up, host.panicked, host.switches) = (true, false, 0);
                (FlightKind::Start, Some(EventKind::Started))
            }
            // What pops for a node that is down reaches no behaviour, and
            // a node that panicked crashes no further.
            _ if !host.up => return,
            StepKind::Crash => {
                (host.up, host.ever_down) = (false, true);
                (FlightKind::Crash, Some(EventKind::Crashed))
            }
            StepKind::Timer => {
                self.report.timer_lag.record(late.as_micros() as u64);
                (FlightKind::Timer, None)
            }
            StepKind::Message { src } => (FlightKind::Message { from: src }, None),
        };
        host.flight.push(at, flight);
        let behavior = self.world.behavior(node);
        let btr = behavior.and_then(|b| b.as_any()?.downcast_ref::<BtrNode>());
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
        (host.up, host.ever_down, host.panicked) = (false, true, true);
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
    fn report(mut self, reached: bool) -> LiveReport {
        let up: Vec<NodeId> = (0..self.hosts.len() as u32)
            .map(NodeId)
            .filter(|node| self.hosts[node.index()].up)
            .collect();
        for &node in up.iter().filter(|_| reached) {
            self.emit(node, self.end, EventKind::Finished);
        }
        let phase_marks = self.world.take_obs().marks().to_vec();
        let world = &self.world;
        let survivors = (0..self.hosts.len() as u32)
            .map(NodeId)
            .filter(|node| !self.hosts[node.index()].ever_down)
            .filter_map(|node| Some((node, world.behavior(node)?)));
        let r = &mut self.report;
        (r.node_stats, r.converged) = btr_core::node_rows(&self.scenario, survivors);
        let m = world.metrics();
        (r.drops.drops_other, r.drops.sent) = (m.drops_other, m.msgs_sent);
        (r.trace, r.phase_marks) = (world.logical_trace(), phase_marks);
        r.deadline_overruns = if reached { Vec::new() } else { up };
        self.report
    }
}

/// Execute `scenario` on the live fleet.
pub fn run_live(
    system: &BtrSystem,
    scenario: &FaultScenario,
    horizon: Duration,
    cfg: &LiveConfig,
) -> LiveReport {
    run_fleet(system, scenario, horizon, cfg, btr_nodes(system))
}

/// [`run_live`] with the behaviours `make` builds.
pub(crate) fn run_fleet(
    system: &BtrSystem,
    scenario: &FaultScenario,
    horizon: Duration,
    cfg: &LiveConfig,
    make: Box<Make>,
) -> LiveReport {
    let run_start = Instant::now();
    let end = Time::ZERO + horizon + system.grace();
    let mut sim = system.sim_config(cfg.seed);
    // Nothing truncates a live run.
    sim.max_events = 0;
    let (topo, scenario_w, cfg_w) = (system.topology().clone(), scenario.clone(), cfg.clone());
    let (n, grace) = (topo.node_count(), cfg.join_grace);
    let (events, ev_rx) = mpsc::channel();
    let (done, done_rx) = mpsc::channel();
    let worker = thread::Builder::new()
        .name("btr-fleet".to_string())
        .spawn(move || {
            let world = fleet_world(sim, topo, &scenario_w, &cfg_w, end, &*make);
            // Logical zero is now, with the world built: no node starts
            // behind its wall schedule.
            let pacer = Pacer::start(cfg_w.pace);
            let worker = Worker {
                world,
                hosts: (0..n).map(|_| Host::default()).collect(),
                scenario: scenario_w,
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

#[cfg(test)]
mod tests {
    //! The fleet on behaviours `run_live` does not build; `tests/live.rs`
    //! holds it to the simulator on the planned system's own.

    use super::*;
    use btr_model::{Envelope, FaultKind, Payload, TaskId, Topology};
    use btr_planner::PlannerConfig;
    use btr_sim::{NodeCtx, SimConfig, TimerId};

    const SEED: u64 = 7;

    /// The avionics workload planned on a nine-node bus, f = 1.
    fn bus9() -> BtrSystem {
        system_on(Topology::bus(9, 100_000, Duration(5)))
    }

    /// The avionics workload planned on nine nodes of `topo`, f = 1.
    fn system_on(topo: Topology) -> BtrSystem {
        let workload = btr_workload::generators::avionics(9);
        let mut cfg = PlannerConfig::new(1, Duration::from_millis(150));
        cfg.admit_best_effort = true;
        BtrSystem::plan(workload, topo, cfg).expect("plannable")
    }

    /// Unpaced: at 0.01 wall-µs per logical-µs the worker never waits
    /// for the wall, and the world's own order alone orders the run.
    fn unpaced() -> LiveConfig {
        let mut cfg = LiveConfig::new(SEED);
        cfg.pace = 0.01;
        cfg
    }

    /// Run `scenario` on the fleet of `sys` under `cfg`, with the
    /// behaviours `make` builds, and hold its trace to `reference`, the
    /// simulator's.
    fn assert_fleet_matches(
        name: &str,
        sys: &BtrSystem,
        scenario: &FaultScenario,
        horizon: Duration,
        cfg: &LiveConfig,
        make: Box<Make>,
        reference: &LogicalTrace,
    ) {
        let live = run_fleet(sys, scenario, horizon, cfg, make);
        assert!(
            live.healthy(),
            "{name}: panics {:?}, overruns {:?}",
            live.panics,
            live.deadline_overruns
        );
        assert_eq!(
            live.trace.digest(),
            reference.digest(),
            "{name}: {:?}",
            live.trace
                .first_divergence(reference, ["live", "simulator"])
        );
    }

    /// The simulator's trace of `scenario` on `sys`'s platform, with the
    /// behaviours `make` builds, then the fleet's, unpaced, held to it.
    fn assert_behaviours_match(
        name: &str,
        sys: &BtrSystem,
        scenario: &FaultScenario,
        horizon: Duration,
        make: fn(NodeId, Option<Attack>) -> Box<dyn NodeBehavior>,
    ) -> LogicalTrace {
        let mut sim = SimConfig::new(SEED);
        sim.period = sys.workload().period;
        let topo = sys.topology().clone();
        let mut world =
            btr_core::scenario_world(topo, sim, scenario, |node, attack| make(node, attack));
        world.start();
        world.run_until(Time::ZERO + horizon + sys.grace());
        let reference = world.logical_trace();
        let (cfg, make) = (unpaced(), Box::new(make));
        assert_fleet_matches(name, sys, scenario, horizon, &cfg, make, &reference);
        reference
    }

    /// Passes a token round the nine nodes, one hop per receipt, and
    /// actuates each receipt: only the node the token is in flight to
    /// has work.
    struct TokenRing {
        me: u32,
        hops: u64,
    }

    impl NodeBehavior for TokenRing {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if self.me == 0 {
                ctx.send(NodeId(1), Payload::Control(0));
            }
        }
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, _env: Envelope) {
            self.hops += 1;
            ctx.actuate(TaskId(0), self.hops, self.hops);
            if self.hops < 60 {
                ctx.send(NodeId((self.me + 1) % 9), Payload::Control(0));
            }
        }
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _timer: TimerId) {}
    }

    #[test]
    fn the_least_head_carries_a_token_round_the_ring() {
        // Every node but one has nothing pending: the one event queued
        // is the token's arrival.
        let ring = |node: NodeId, _| -> Box<dyn NodeBehavior> {
            Box::new(TokenRing {
                me: node.0,
                hops: 0,
            })
        };
        let (none, horizon) = (FaultScenario::none(), Duration::from_millis(20));
        let reference = assert_behaviours_match("token ring", &bus9(), &none, horizon, ring);
        assert_eq!(reference.len(), 9 * 60 - 8, "the token went round");
    }

    /// On a 3 × 3 mesh, the edge-centre nodes each send across the centre
    /// n4 at the instant it crashes, and each receiver actuates on
    /// arrival, stamped with the sender.
    struct AcrossTheCentre;

    /// When n4 crashes and its peers send across it.
    const CENTRE_CRASH: Time = Time(1_000);

    impl NodeBehavior for AcrossTheCentre {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer_at(CENTRE_CRASH, 0);
        }
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
            ctx.actuate(TaskId(0), 0, u64::from(env.src.0));
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId) {
            // Opposite edge centres: 1 ↔ 7 and 3 ↔ 5.
            if let Some(to) = [1, 3, 5, 7].into_iter().find(|&i| i + ctx.id().0 == 8) {
                ctx.send(NodeId(to), Payload::Control(0));
            }
        }
    }

    #[test]
    fn a_send_at_a_peers_crash_instant_takes_the_healed_route() {
        // Both worlds queue the crash ahead of every event at its
        // instant, so the route heals before the sends and each message
        // takes a four-hop path round the centre.
        let sys = system_on(Topology::mesh(3, 3, 100_000, Duration(5)));
        let scenario = FaultScenario::single(NodeId(4), FaultKind::Crash, CENTRE_CRASH);
        let across = |_, _| -> Box<dyn NodeBehavior> { Box::new(AcrossTheCentre) };
        let horizon = Duration::from_millis(5);
        let reference = assert_behaviours_match("across", &sys, &scenario, horizon, across);
        assert_eq!(reference.len(), 4, "every cross-centre send arrived");
    }

    #[test]
    fn unpaced_runs_are_trace_identical_to_simulator() {
        let ms = Duration::from_millis;
        let omission = FaultScenario::single(NodeId(3), FaultKind::Omission, Time::from_millis(42));
        let crash = FaultScenario::single(NodeId(6), FaultKind::Crash, Time::from_millis(42));
        let mesh = || system_on(Topology::mesh(3, 3, 100_000, Duration(5)));
        let lossy = mesh().with_loss_ppm(5_000);
        let fec = mesh().with_loss_ppm(20_000).with_fec(4, 2);
        let none = FaultScenario::none;
        let bus = bus9();
        for (name, sys, scenario, horizon, restart_after) in [
            ("fault-free", &bus, none(), ms(120), ms(0)),
            ("crash", &bus, crash.clone(), ms(250), ms(0)),
            ("omission", &bus, omission, ms(250), ms(0)),
            ("crash-restart", &bus, crash.clone(), ms(300), ms(120)),
            ("5 000 ppm", &lossy, none(), ms(120), ms(0)),
            ("5 000 ppm, crash", &lossy, crash.clone(), ms(250), ms(0)),
            ("FEC(4, 2)", &fec, none(), ms(120), ms(0)),
            ("FEC(4, 2), crash", &fec, crash.clone(), ms(250), ms(0)),
        ] {
            let mut world = sys.build_world(&scenario, SEED);
            world.start();
            world.run_until(Time::ZERO + horizon + sys.grace());
            let mut cfg = unpaced();
            cfg.restart_after = restart_after;
            let reference = world.logical_trace();
            assert_fleet_matches(
                name,
                sys,
                &scenario,
                horizon,
                &cfg,
                btr_nodes(sys),
                &reference,
            );
        }
    }

    /// A behaviour that panics on its first dispatch at or after `at`.
    struct PanicsAt {
        inner: Box<dyn NodeBehavior>,
        at: Time,
    }

    impl PanicsAt {
        fn check(&self, ctx: &NodeCtx<'_>) {
            if ctx.now() >= self.at {
                panic!("scripted panic at {}", ctx.now());
            }
        }
    }

    impl NodeBehavior for PanicsAt {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            self.inner.on_start(ctx);
        }
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
            self.check(ctx);
            self.inner.on_message(ctx, env);
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: TimerId) {
            self.check(ctx);
            self.inner.on_timer(ctx, timer);
        }
    }

    #[test]
    fn a_panicking_behaviour_is_attributed_and_the_rest_finish() {
        // The worker that catches a panic goes on stepping the rest; the
        // second panic is the second victim's, not the first one's again.
        let sys = bus9();
        let victims = [
            (NodeId(2), Time::from_millis(40)),
            (NodeId(4), Time::from_millis(60)),
        ];
        let btr = btr_nodes(&sys);
        let make = move |node: NodeId, attack| -> Box<dyn NodeBehavior> {
            let inner = btr(node, attack);
            match victims.iter().find(|&&(victim, _)| victim == node) {
                Some(&(_, at)) => Box::new(PanicsAt { inner, at }),
                None => inner,
            }
        };
        // Debug binaries run the per-message crypto an order of
        // magnitude slower, so they get proportionally more wall room.
        let mut cfg = LiveConfig::new(SEED);
        cfg.pace = if cfg!(debug_assertions) { 4.0 } else { 0.5 };
        let none = FaultScenario::none();
        let live = run_fleet(
            &sys,
            &none,
            Duration::from_millis(120),
            &cfg,
            Box::new(make),
        );
        assert_eq!(live.panics.len(), 2, "{:?}", live.panics);
        for (p, (victim, at)) in live.panics.iter().zip(victims) {
            assert_eq!(p.node, victim);
            assert!(p.message.starts_with("scripted panic at "), "{}", p.message);
            // The flight recorder logged the dispatch that panicked: the
            // victim's first event at or after the scripted instant.
            let last = p.last_logical.expect("dispatched before the panic");
            assert!(
                last >= at && last < at + Duration::from_millis(10),
                "{last:?}"
            );
            assert!(p.flight_total > 0 && !p.flight_tail.is_empty());
        }
        // Every other node ran to the horizon.
        assert!(
            live.deadline_overruns.is_empty(),
            "{:?}",
            live.deadline_overruns
        );
        let finished: Vec<NodeId> = live
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Finished)
            .map(|e| e.node)
            .collect();
        assert_eq!(finished.len(), 7, "{finished:?}");
        assert!(victims.iter().all(|(victim, _)| !finished.contains(victim)));
    }
}
