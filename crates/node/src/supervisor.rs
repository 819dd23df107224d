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
//! time: a host the causal gate blocks hands the worker to its blocker,
//! and with nothing runnable the worker sleeps until the earliest wall
//! instant a host awaits. The causal gate makes any order of steps
//! yield the simulator's trace, and the crate's tests step seeded and
//! skew-maximising orders ([`Order`]) to hold it to that. One worker,
//! not one per core: the gate passes the frontier from host to host, so
//! hosts rarely have work at the same time, and on two cores a second
//! worker made every measured run slower (EXPERIMENTS.md "One worker
//! stepping node hosts"). The worker owns the hosts and the transport,
//! so neither needs a lock, and gives the transport back when it is
//! joined. Hosts report [`RuntimeEvent`]s and terminal hosts over
//! channels; the supervisor, on the calling thread:
//!
//! * stops the fleet past the wall-clock deadline, records the nodes
//!   that never went terminal as overruns, and never joins a worker
//!   wedged inside a dispatch (that run reports no transport totals);
//! * catches behaviour panics per step, attributes them to the node id,
//!   and detaches the dead node from the network (its peers see the
//!   same silence a crash produces);
//! * optionally restarts crashed nodes after a scripted downtime as a
//!   fresh `BtrNode` host, which joins at its instant: the live analogue
//!   of the paper's bounded-time recovery loop (the dying host itself
//!   parks its causal frontier at the restart instant, so there is no
//!   window for the supervisor to close).
//!
//! The report carries the canonical [`LogicalTrace`] (the simulator is
//! the oracle: a fault-free live run must digest-match the simulated
//! one) plus wall-clock-stamped events for real latency measurements.

use crate::actor::{EventKind, NodeActor, Pacer, Run, RuntimeEvent, Step};
use crate::transport::Loopback;
use btr_core::{BtrSystem, FaultScenario, InjectedFault, NodeRow};
use btr_crypto::{KeyStore, SplitMix64};
use btr_model::{Duration, NodeId, Time};
use btr_obs::{FlightEvent, Histogram, PhaseMark};
use btr_runtime::{Attack, BtrNode};
use btr_sim::{CtxBackend, LogicalTrace, NodeBehavior};
use std::cmp::Reverse;
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
    /// Causal-gate stalls summed over all hosts.
    pub frontier_stalls: u64,
    /// Who held the frontier: of those stalls, how many had each node as
    /// the peer holding the blocked node's bound lowest (index = node;
    /// sums to `frontier_stalls` when no host was left as an overrun).
    pub frontier_blockers: Vec<u64>,
    /// Always 0: a host drains its mailbox and gates in one step, so no
    /// arrival can force a repeat fold. Kept while the repository
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

/// The order the worker steps runnable hosts in. The causal gate makes
/// every order yield the simulator's trace; the crate's tests hold the
/// fleet to that under each (only they step the seeded and `Ahead`
/// orders).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) enum Order {
    /// The blocker hand-off, else the next runnable host round a cursor,
    /// stepped until it blocks, awaits the wall or goes terminal: the
    /// order [`run_live`] runs.
    RoundRobin,
    /// One event per pick: the hand-off with probability ½, else a
    /// uniform pick among the runnable hosts, drawn from this seed.
    Seeded(u64),
    /// One event per pick: the runnable host whose logical clock is
    /// furthest ahead (ties to the lowest id), which maximises the skew
    /// between hosts.
    Ahead,
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

    /// Whether host `i` is runnable now; if it awaits a wall instant,
    /// fold that into `wake_at`.
    fn runnable(&self, i: usize, now: Instant, wake_at: &mut Option<Instant>) -> bool {
        let Some(actor) = &self.hosts[i] else {
            return false;
        };
        if actor.not_before > now {
            *wake_at = Some(wake_at.map_or(actor.not_before, |w| w.min(actor.not_before)));
            return false;
        }
        self.run.net.need(actor.node).is_none()
    }

    /// The worker: step runnable hosts in `order` until every node is
    /// terminal or `deadline` passes, then give back the transport,
    /// whose counters are the run's totals. A host blocked at the causal
    /// gate hands the worker to its blocker; with nothing runnable the
    /// worker sleeps until the earliest wall instant a host awaits.
    ///
    /// Nothing runnable and no wall instant to wait for cannot happen:
    /// every host would be blocked on a need nobody claims. A need is
    /// claimed by the publish that lets it through — a fold, a restart
    /// hand-off and going terminal each run the release rule — and a
    /// send lowers a need only to what the sender's own anchor still
    /// holds back, which the sender's next publish releases. So the
    /// worker panics there, naming the blocked hosts and their needs.
    fn work(mut self, deadline: Instant, order: Order) -> Loopback {
        let n = self.hosts.len();
        let mut rng = SplitMix64::new(match order {
            Order::Seeded(seed) => seed,
            _ => 0,
        });
        let (mut cursor, mut next) = (0, None::<usize>);
        let mut runnable = Vec::with_capacity(n);
        while self.live > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let mut wake_at = None;
            runnable.clear();
            runnable.extend((0..n).filter(|&i| self.runnable(i, now, &mut wake_at)));
            let handed = next.take().filter(|b| runnable.contains(b));
            let picked = match order {
                Order::RoundRobin => handed.or_else(|| {
                    let after = runnable.iter().find(|&&i| i > cursor);
                    cursor = *after.or(runnable.first())?;
                    Some(cursor)
                }),
                Order::Seeded(_) => handed.filter(|_| rng.next_u64() >> 63 == 1).or_else(|| {
                    let draw = u128::from(rng.next_u64()) * runnable.len() as u128;
                    runnable.get((draw >> 64) as usize).copied()
                }),
                Order::Ahead => runnable.iter().copied().max_by_key(|&i| {
                    let logical = self.hosts[i].as_ref().map(|a| a.ctx.now());
                    (logical, Reverse(i))
                }),
            };
            match (picked, wake_at) {
                (Some(i), _) => next = self.drive(i, deadline, order == Order::RoundRobin),
                (None, Some(at)) => thread::sleep(at - now),
                (None, None) => {
                    let net = &self.run.net;
                    let needs: Vec<_> = (self.hosts.iter().flatten())
                        .map(|a| (a.node, net.need(a.node)))
                        .collect();
                    panic!("every host blocked on an unclaimed need: {needs:?}");
                }
            }
        }
        self.run.net
    }

    /// Step host `i` once, or until it blocks, awaits the wall, or goes
    /// terminal if `until_blocked`; returns the blocker to hand the
    /// worker to.
    fn drive(&mut self, i: usize, deadline: Instant, until_blocked: bool) -> Option<usize> {
        let (actor, run) = (
            self.hosts[i].as_mut().expect("runnable host"),
            &mut self.run,
        );
        let ended = loop {
            match catch_unwind(AssertUnwindSafe(|| actor.step(run))) {
                Ok(Step::Ran) if until_blocked && Instant::now() < deadline => {}
                Ok(Step::Ran) => return None,
                Ok(Step::Wait { blocker }) => return Some(blocker.index()),
                Ok(Step::NotBefore(at)) => {
                    actor.not_before = at;
                    return None;
                }
                Ok(Step::Done(back_at)) => break Ok(back_at),
                Err(payload) => break Err(payload),
            }
        };
        let host = self.hosts[i].take().expect("runnable host");
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
        None
    }
}

/// Execute `scenario` on the live fleet.
pub fn run_live(
    system: &BtrSystem,
    scenario: &FaultScenario,
    horizon: Duration,
    cfg: &LiveConfig,
) -> LiveReport {
    let make = btr_nodes(system);
    run_fleet(system, scenario, horizon, cfg, make, Order::RoundRobin)
}

/// [`run_live`] with the behaviours `make` builds, stepped in `order`.
pub(crate) fn run_fleet(
    system: &BtrSystem,
    scenario: &FaultScenario,
    horizon: Duration,
    cfg: &LiveConfig,
    make: Box<Make>,
    order: Order,
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
        .spawn(move || fleet.work(stop, order))
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
    let per_node = |f: fn(&Loopback, NodeId) -> u64| {
        let node = |i| net.as_ref().map_or(0, |net| f(net, NodeId(i)));
        (0..n as u32).map(node).collect()
    };

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
        mailbox_full_by_node: per_node(Loopback::mailbox_full_at),
        phase_marks: outcomes
            .iter()
            .flat_map(|o| o.ctx.marks.iter().copied())
            .collect(),
        frontier_stalls: outcomes.iter().map(|o| o.frontier_stalls).sum(),
        frontier_blockers: per_node(Loopback::slept_on),
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
    use btr_sim::{NodeCtx, SimConfig, TimerId, World};

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

    /// Unpaced: at 0.01 wall-µs per logical-µs the wall gate never
    /// binds, and the causal gate alone orders the run.
    fn unpaced() -> LiveConfig {
        let mut cfg = LiveConfig::new(SEED);
        cfg.pace = 0.01;
        cfg
    }

    /// The orders every order-taking test steps: `RoundRobin`, `Ahead`
    /// and 32 seeded orders (8 in a debug build, where a run takes
    /// ~0.2 s).
    fn orders() -> Vec<Order> {
        let seeded = if cfg!(debug_assertions) { 8 } else { 32 };
        let seeded = (0..seeded).map(Order::Seeded);
        [Order::RoundRobin, Order::Ahead]
            .into_iter()
            .chain(seeded)
            .collect()
    }

    /// Passes a token round the nine nodes, one hop per receipt, and
    /// actuates each receipt: every host but the holder waits on the
    /// host the token is in flight to.
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
    fn one_worker_follows_the_blockers_round_a_token_ring() {
        // Liveness under every order: only the host the token is in
        // flight to can make progress, and the round-robin worker only
        // finds it by following each host's blocker.
        let sys = bus9();
        let horizon = Duration::from_millis(20);
        let mut sim = SimConfig::new(SEED);
        sim.period = sys.workload().period;
        let mut world = World::new(sys.topology().clone(), sim);
        for i in 0..9 {
            world.set_behavior(NodeId(i), Box::new(TokenRing { me: i, hops: 0 }));
        }
        world.start();
        world.run_until(Time::ZERO + horizon + sys.grace());
        let reference = world.logical_trace();
        assert_eq!(reference.len(), 9 * 60 - 8, "the token went round");
        for order in orders() {
            let ring = Box::new(|node: NodeId, _| {
                Box::new(TokenRing {
                    me: node.0,
                    hops: 0,
                }) as Box<dyn NodeBehavior + Send>
            });
            let live = run_fleet(
                &sys,
                &FaultScenario::none(),
                horizon,
                &unpaced(),
                ring,
                order,
            );
            assert!(
                live.healthy(),
                "{order:?}: {:?} {:?}",
                live.panics,
                live.deadline_overruns
            );
            assert_eq!(
                live.trace.digest(),
                reference.digest(),
                "{order:?}: {:?}",
                live.trace
                    .first_divergence(&reference, ["live", "simulator"])
            );
            assert!(live.frontier_stalls > 0);
            assert_eq!(
                live.frontier_blockers.iter().sum::<u64>(),
                live.frontier_stalls
            );
        }
    }

    /// Run `scenario` unpaced once under each of `orders`; every trace
    /// must equal the simulator's. Returns the orders that diverged
    /// instead of failing on the first, so a soak reports how many it
    /// saw.
    fn unpaced_divergences(
        sys: &BtrSystem,
        scenario: &FaultScenario,
        horizon: Duration,
        restart_after: Duration,
        orders: impl IntoIterator<Item = Order>,
    ) -> Vec<Order> {
        let mut world = sys.build_world(scenario, SEED);
        world.start();
        world.run_until(Time::ZERO + horizon + sys.grace());
        let reference = world.logical_trace().digest();
        let mut cfg = unpaced();
        cfg.restart_after = restart_after;
        let orders = orders.into_iter();
        orders
            .filter(|&order| {
                let live = run_fleet(sys, scenario, horizon, &cfg, btr_nodes(sys), order);
                assert!(
                    live.healthy() && live.drops.mailbox_full == 0,
                    "{order:?}: panics {:?}, overruns {:?}, mailbox_full {}",
                    live.panics,
                    live.deadline_overruns,
                    live.drops.mailbox_full
                );
                let blocked: u64 = live.frontier_blockers.iter().sum();
                assert_eq!(
                    blocked, live.frontier_stalls,
                    "every sleep names its blocker"
                );
                live.trace.digest() != reference
            })
            .collect()
    }

    fn crash_at_42ms() -> FaultScenario {
        FaultScenario::single(NodeId(6), FaultKind::Crash, Time::from_millis(42))
    }

    #[test]
    fn unpaced_runs_are_trace_identical_to_simulator() {
        let ms = Duration::from_millis;
        let omission = FaultScenario::single(NodeId(3), FaultKind::Omission, Time::from_millis(42));
        let mesh = || system_on(Topology::mesh(3, 3, 100_000, Duration(5)));
        let lossy = mesh().with_loss_ppm(5_000);
        let fec = mesh().with_loss_ppm(20_000).with_fec(4, 2);
        let none = FaultScenario::none;
        let bus = bus9();
        for (name, sys, scenario, horizon, restart_after) in [
            ("fault-free", &bus, none(), ms(120), ms(0)),
            ("crash", &bus, crash_at_42ms(), ms(250), ms(0)),
            ("omission", &bus, omission, ms(250), ms(0)),
            ("crash-restart", &bus, crash_at_42ms(), ms(300), ms(120)),
            ("5 000 ppm", &lossy, none(), ms(120), ms(0)),
            ("5 000 ppm, crash", &lossy, crash_at_42ms(), ms(250), ms(0)),
            ("FEC(4, 2)", &fec, none(), ms(120), ms(0)),
            ("FEC(4, 2), crash", &fec, crash_at_42ms(), ms(250), ms(0)),
        ] {
            let diverged = unpaced_divergences(sys, &scenario, horizon, restart_after, orders());
            assert!(
                diverged.is_empty(),
                "{name}: orders {diverged:?} diverged from the simulator"
            );
        }
    }

    /// No unpaced run may lose a race to a dying host, in any of 7 000
    /// step orders, one per run. `cargo test --release -p btr-node --
    /// --ignored soak` (under two minutes on two cores).
    #[test]
    #[ignore = "soak: 7 000 live runs"]
    fn soak_unpaced_crashes_never_diverge() {
        let sys = bus9();
        let ms = Duration::from_millis;
        let seeded = |runs: std::ops::Range<u64>| runs.map(Order::Seeded);
        let crashes = unpaced_divergences(&sys, &crash_at_42ms(), ms(250), ms(0), seeded(0..5_000));
        let restarts = unpaced_divergences(
            &sys,
            &crash_at_42ms(),
            ms(300),
            ms(120),
            seeded(5_000..7_000),
        );
        println!(
            "soak: {} of 5000 crash runs and {} of 2000 crash-restarts diverged",
            crashes.len(),
            restarts.len()
        );
        assert!(
            crashes.is_empty() && restarts.is_empty(),
            "diverged: crash runs {crashes:?}, crash-restart runs {restarts:?}"
        );
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
            Order::RoundRobin,
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
