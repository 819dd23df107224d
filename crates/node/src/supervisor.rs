//! The node supervisor: run, watch, restart, and account for a live
//! fleet.
//!
//! `run_live` takes the same inputs as `BtrSystem::run` — a planned
//! system, a fault scenario, a horizon — and executes them on a worker
//! thread that steps one host per node instead of the discrete-event
//! queue. Every node is a host for the `BtrNode` the simulator builds,
//! with the attack the scenario scripts for it; a scripted crash is
//! handed to the node's host, which stops the node at that instant as
//! the simulator's control action does. The worker steps one host at a
//! time, the one whose head (its earliest pending work) is the least in
//! the fleet, once the wall clock reaches that instant: the simulator's
//! own rule, step the earliest event. Nothing can then arrive ahead of
//! the step, as every other head is at or after it and a message
//! between nodes takes at least one link latency. One worker, not one
//! per core: on two cores a second worker made every measured run
//! slower (EXPERIMENTS.md "One worker stepping node hosts"). The worker
//! owns the hosts and the transport, so neither needs a lock, and gives
//! the transport back when it is joined. Hosts report [`RuntimeEvent`]s
//! and terminal hosts over channels; the supervisor, on the calling
//! thread:
//!
//! * stops the fleet past the wall-clock deadline, records the nodes
//!   that never went terminal as overruns, and never joins a worker
//!   wedged inside a dispatch (that run reports no transport totals);
//! * catches behaviour panics per step, attributes them to the node id,
//!   and detaches the dead node from the network (its peers see the
//!   same silence a crash produces);
//! * optionally restarts crashed nodes after a scripted downtime as a
//!   fresh `BtrNode` host, which joins at its instant: the live analogue
//!   of the paper's bounded-time recovery loop.
//!
//! The report carries the canonical [`LogicalTrace`] (the simulator is
//! the oracle: a fault-free live run must digest-match the simulated
//! one) plus wall-clock-stamped events for real latency measurements.

use crate::actor::{EventKind, NodeActor, Pacer, Run, RuntimeEvent, Step};
use crate::transport::Loopback;
use btr_core::{BtrSystem, FaultScenario, InjectedFault, NodeRow};
use btr_crypto::KeyStore;
use btr_model::{Duration, NodeId, Time};
use btr_obs::{FlightEvent, Histogram, PhaseMark};
use btr_runtime::{Attack, BtrNode};
use btr_sim::{LogicalTrace, NodeBehavior};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Knobs for a live run.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Seed for keys, skews, RNG streams, and transmission loss — the
    /// same derivations the simulator makes from its seed.
    pub(crate) seed: u64,
    /// Wall-µs per logical-µs (1.0 = real time; larger = slower run
    /// with more scheduling slack; logical outcomes are unaffected).
    pub pace: f64,
    /// Bounded mailbox depth per node (overflow = counted drops).
    pub mailbox_cap: usize,
    /// Logical downtime before a crashed node is restarted
    /// (`Duration::ZERO` = crashed nodes stay down).
    pub restart_after: Duration,
    /// Extra wall time past the paced horizon before non-terminal nodes
    /// are declared deadline overruns and detached.
    pub join_grace: std::time::Duration,
    /// Collect phase marks on node runtimes (out-of-band either way;
    /// the obs on/off digest test flips this to prove inertness).
    pub obs: bool,
}

impl LiveConfig {
    /// Defaults: real-time pace, 4096-deep mailboxes, no restarts.
    pub fn new(seed: u64) -> LiveConfig {
        LiveConfig {
            seed,
            pace: 1.0,
            mailbox_cap: 4096,
            restart_after: Duration::ZERO,
            join_grace: std::time::Duration::from_millis(500),
            obs: true,
        }
    }
}

/// Transport drop/send totals for the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropTotals {
    /// Bounded-mailbox backpressure drops.
    pub mailbox_full: u64,
    /// Deterministic transmission loss.
    pub transmission_loss: u64,
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
    /// The node's last flight-recorded logical timestamp, if any event
    /// was dispatched before the panic.
    pub last_logical: Option<Time>,
    /// Total events the node dispatched before dying.
    pub flight_total: u64,
    /// The last few dispatches, oldest first.
    pub flight_tail: Vec<FlightEvent>,
}

/// Everything a live run produces.
#[derive(Debug)]
pub struct LiveReport {
    /// The canonical logical actuation trace (compare against
    /// `World::logical_trace()` — the simulator is the oracle). It holds
    /// the actuations of joined nodes only: a node detached as a
    /// deadline overrun takes its actuations with it.
    pub trace: LogicalTrace,
    /// Per-node runtime stats, final plan, fault-set size (correct,
    /// never-crashed nodes only — same exclusions as `RunReport`).
    pub node_stats: Vec<NodeRow>,
    /// True if all such nodes agree on fault set and plan.
    pub converged: bool,
    /// Every runtime event, logically and wall-clock stamped.
    pub events: Vec<RuntimeEvent>,
    /// Panics caught in node hosts, attributed to their node, with
    /// each node's flight-recorder tail and last logical timestamp.
    pub panics: Vec<PanicReport>,
    /// Nodes that had not gone terminal by the wall deadline.
    pub deadline_overruns: Vec<NodeId>,
    /// Transport counters; all zero when the worker was left wedged
    /// inside a dispatch, as the transport stays with it.
    pub drops: DropTotals,
    /// Per-node `mailbox_full` attribution (index = node).
    pub mailbox_full_by_node: Vec<u64>,
    /// Phase marks observed across all node runtimes, in node order
    /// (empty when `LiveConfig::obs` is off).
    pub phase_marks: Vec<PhaseMark>,
    /// Always 0: the worker steps a host only when its event is the
    /// fleet's earliest, so no host ever stalls on a peer. Kept while
    /// the repository benchmark reads it.
    pub frontier_stalls: u64,
    /// Always 0: a host drains its mailbox in the step that dispatches,
    /// so no arrival can force a repeat drain. Kept while the repository
    /// benchmark reads it.
    pub redrains: u64,
    /// Wall-clock lateness of timer dispatches (µs), merged over all
    /// hosts.
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
pub(crate) type Make = dyn Fn(NodeId, Option<Attack>) -> Box<dyn NodeBehavior + Send> + Send;

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

/// A host gone terminal, handed from the worker to the supervisor.
enum Settled {
    /// Finished or crashed; `true` unless a restart follows.
    Host(Box<NodeActor>, bool),
    /// Its behaviour panicked.
    Panic(PanicReport),
}

/// The worker's fleet: one slot per node (empty once the node is
/// terminal for good), what a restart needs to build a host, and where
/// terminal hosts go.
struct Fleet {
    hosts: Vec<Option<NodeActor>>,
    /// Nodes not yet terminal for good; the worker stops at zero.
    live: usize,
    make: Box<Make>,
    run: Run,
    settled: mpsc::Sender<Settled>,
}

impl Fleet {
    /// A host for one incarnation of `node`: a fresh behaviour, whose
    /// logical clock starts at `start`, suffering `fault` (none after a
    /// restart).
    fn host(&self, node: NodeId, fault: Option<&InjectedFault>, start: Time) -> NodeActor {
        let behavior = (self.make)(node, fault.and_then(InjectedFault::attack));
        let host = NodeActor::new(node, behavior, &self.run, start);
        match fault.and_then(InjectedFault::crash_at) {
            Some(at) => host.with_crash(at),
            None => host,
        }
    }

    /// The worker: step the host with the least head until every node
    /// is terminal or `deadline` passes, then give back the transport,
    /// whose counters are the run's totals.
    ///
    /// Heads are keyed `(instant, class, node id)`, and a host with
    /// nothing pending goes last. The worker waits for the least head's
    /// wall instant, capped at the deadline, and steps that host once
    /// (the module docs say why that is safe). Once the least head is
    /// past the horizon, each host stepped finishes.
    fn work(mut self, deadline: Instant) -> Loopback {
        while self.live > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let net = &self.run.net;
            let (head, i) = (self.hosts.iter().enumerate())
                .filter_map(|(i, host)| Some((host.as_ref()?.head(net), i)))
                .min_by_key(|&(head, i)| (head.is_none(), head, i))
                .expect("a live host");
            if let Some((at, _)) = head.filter(|&(at, _)| at <= self.run.end) {
                let wall = self.run.pacer.wall_for(at);
                if wall > now {
                    thread::sleep(wall.min(deadline) - now);
                    continue;
                }
            }
            self.step(i);
        }
        self.run.net
    }

    /// Step host `i` once; if that leaves it terminal, settle it.
    fn step(&mut self, i: usize) {
        let (actor, run) = (self.hosts[i].as_mut().expect("live host"), &mut self.run);
        let ended = match catch_unwind(AssertUnwindSafe(|| actor.step(run))) {
            Ok(Step::Ran) => return,
            Ok(Step::Done(back_at)) => Ok(back_at),
            Err(payload) => Err(payload),
        };
        let host = self.hosts[i].take().expect("live host");
        let settled = match ended {
            Ok(back_at) => {
                // A restart is a fresh host that joins at its instant.
                let again = back_at.map(|at| self.host(host.node, None, at));
                self.hosts[i] = again;
                Settled::Host(Box::new(host), back_at.is_none())
            }
            Err(payload) => Settled::Panic(host.panicked(&mut self.run, panic_message(payload))),
        };
        self.live -= usize::from(self.hosts[i].is_none());
        let _ = self.settled.send(settled);
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
    let n = system.topology().node_count();
    let end = Time::ZERO + horizon + system.grace();
    let (ev_tx, ev_rx) = mpsc::channel::<RuntimeEvent>();
    let (settled_tx, settled_rx) = mpsc::channel::<Settled>();
    let run = Run {
        net: Loopback::new(system.network(cfg.seed)),
        keystore: Arc::new(KeyStore::derive(cfg.seed, n)),
        period: system.workload().period,
        end,
        pacer: Pacer::new(run_start, cfg.pace),
        events: ev_tx,
        cfg: cfg.clone(),
    };
    let mut fleet = Fleet {
        hosts: Vec::with_capacity(n),
        live: n,
        make,
        run,
        settled: settled_tx,
    };
    for i in 0..n {
        let node = NodeId(i as u32);
        let host = fleet.host(node, scenario.fault_of(node), Time::ZERO);
        host.attach(&mut fleet.run);
        fleet.hosts.push(Some(host));
    }
    // Logical zero is now, with every host built: none starts behind its
    // wall schedule.
    let pacer = Pacer::new(Instant::now(), cfg.pace);
    fleet.run.pacer = pacer;
    // Past the paced horizon and its grace the worker stops; one wedged
    // inside a dispatch gets one more grace, then is left behind, never
    // joined.
    let stop = pacer.wall_for(end) + cfg.join_grace;
    let worker = thread::Builder::new()
        .name("btr-fleet".to_string())
        .spawn(move || fleet.work(stop))
        .expect("spawn fleet worker");
    let (mut outcomes, mut panics, mut gone) = (Vec::new(), Vec::new(), vec![false; n]);
    // The transport comes back with the worker; a wedged one keeps it.
    let net = loop {
        let left = (stop + cfg.join_grace).saturating_duration_since(Instant::now());
        match settled_rx.recv_timeout(left) {
            Ok(Settled::Host(host, for_good)) => {
                gone[host.node.index()] |= for_good;
                outcomes.push(host);
            }
            Ok(Settled::Panic(report)) => {
                gone[report.node.index()] = true;
                panics.push(report);
            }
            Err(RecvTimeoutError::Disconnected) => break worker.join().ok(),
            Err(RecvTimeoutError::Timeout) => break None,
        }
    };
    let events: Vec<RuntimeEvent> = ev_rx.try_iter().collect();
    // A node that never went terminal for good is an overrun, dropped
    // with its actuations.
    let deadline_overruns: Vec<NodeId> = (0..n)
        .filter(|&i| !gone[i])
        .map(|i| NodeId(i as u32))
        .collect();
    let crashed = |e: &&RuntimeEvent| matches!(e.kind, EventKind::Crashed | EventKind::Panicked(_));
    let ever_crashed: Vec<NodeId> = events.iter().filter(crashed).map(|e| e.node).collect();

    let mut actuations = Vec::new();
    for out in &mut outcomes {
        actuations.append(&mut out.ctx.actuations);
    }
    outcomes.sort_by_key(|o| o.node);
    let survivors = outcomes
        .iter()
        .filter(|o| !ever_crashed.contains(&o.node))
        .map(|o| (o.node, &*o.behavior as &dyn NodeBehavior));
    let (node_stats, converged) = btr_core::node_rows(scenario, survivors);

    let drops = net.as_ref().map_or(DropTotals::default(), |net| {
        let c = net.counters();
        DropTotals {
            mailbox_full: c.mailbox_full,
            transmission_loss: c.transmission_loss,
            sent: c.sent,
        }
    });
    let mailbox_full_at = |i| net.as_ref().map_or(0, |net| net.mailbox_full_at(NodeId(i)));

    // Out-of-band observability totals (outcomes are already in node
    // order, so the mark log is deterministic given the run's events).
    let mut timer_lag = Histogram::new();
    for out in &outcomes {
        timer_lag.merge(&out.timer_lag);
    }

    LiveReport {
        trace: LogicalTrace::from_actuations(&actuations),
        node_stats,
        converged,
        events,
        panics,
        deadline_overruns,
        drops,
        mailbox_full_by_node: (0..n as u32).map(mailbox_full_at).collect(),
        phase_marks: outcomes
            .iter()
            .flat_map(|o| o.ctx.marks.iter().copied())
            .collect(),
        frontier_stalls: 0,
        redrains: 0,
        timer_lag,
        wall: run_start.elapsed(),
    }
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
    /// for the wall, and the least-head rule alone orders the run. A
    /// debug build runs the crypto an order of magnitude slower, and its
    /// crash-restart run needs nearly the default half-second grace, so
    /// it gets 5 s before a host counts as wedged.
    fn unpaced() -> LiveConfig {
        let mut cfg = LiveConfig::new(SEED);
        cfg.pace = 0.01;
        if cfg!(debug_assertions) {
            cfg.join_grace = std::time::Duration::from_secs(5);
        }
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
            live.healthy() && live.drops.mailbox_full == 0,
            "{name}: panics {:?}, overruns {:?}, mailbox_full {}",
            live.panics,
            live.deadline_overruns,
            live.drops.mailbox_full
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
        make: fn(NodeId, Option<Attack>) -> Box<dyn NodeBehavior + Send>,
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
    /// actuates each receipt: only the host the token is in flight to
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
        // Every host but one has nothing pending: the worker finds the
        // one the token is in flight to by its undrained arrival.
        let ring = |node: NodeId, _| -> Box<dyn NodeBehavior + Send> {
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
        // The simulator queues the crash ahead of every event at its
        // instant, so the route heals before the sends and each message
        // takes a four-hop path round the centre; the fleet's heads key
        // a crash ahead of every host's timers at that instant.
        let sys = system_on(Topology::mesh(3, 3, 100_000, Duration(5)));
        let scenario = FaultScenario::single(NodeId(4), FaultKind::Crash, CENTRE_CRASH);
        let across = |_, _| -> Box<dyn NodeBehavior + Send> { Box::new(AcrossTheCentre) };
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
        inner: Box<dyn NodeBehavior + Send>,
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
        // The worker that catches the panic goes on stepping the rest.
        let sys = bus9();
        let (victim, at) = (NodeId(4), Time::from_millis(40));
        let btr = btr_nodes(&sys);
        let make = move |node: NodeId, attack| -> Box<dyn NodeBehavior + Send> {
            let inner = btr(node, attack);
            match node == victim {
                true => Box::new(PanicsAt { inner, at }),
                false => inner,
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
        assert_eq!(live.panics.len(), 1, "{:?}", live.panics);
        let p = &live.panics[0];
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
        assert_eq!(finished.len(), 8, "{finished:?}");
        assert!(!finished.contains(&victim));
    }
}
