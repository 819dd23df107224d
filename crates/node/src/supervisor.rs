//! The node supervisor: spawn, watch, restart, and account for a fleet
//! of live node threads.
//!
//! `run_live` takes the same inputs as `BtrSystem::run` — a planned
//! system, a fault scenario, a horizon — and executes them on real OS
//! threads instead of the discrete-event queue. Every node is the
//! `BtrNode` the simulator builds, with the attack the scenario scripts
//! for it; a scripted crash is handed to the node's actor, which stops
//! the node at that instant as the simulator's control action does.
//! Each node reports [`RuntimeEvent`]s over a channel; the supervisor:
//!
//! * joins a node thread **only after** seeing its terminal event
//!   (`Finished`/`Crashed`/`Panicked`), so a wedged node can never hang
//!   the supervisor — nodes that miss the wall-clock deadline are
//!   recorded as overruns and their threads detached;
//! * catches behaviour panics, attributes them to the node id, and
//!   detaches the dead node from the network (its peers see the same
//!   silence a crash produces);
//! * optionally restarts crashed nodes after a scripted downtime as a
//!   fresh `BtrNode`, which joins at the next period boundary: the live
//!   analogue of the paper's bounded-time recovery loop (the dying
//!   actor itself parks its causal frontier at the restart instant, so
//!   there is no window for the supervisor to close).
//!
//! The report carries the canonical [`LogicalTrace`] (the simulator is
//! the oracle: a fault-free live run must digest-match the simulated
//! one) plus wall-clock-stamped events for real latency measurements.

use crate::actor::{
    restart_instant, ActorOutcome, EventKind, LiveCtx, NodeActor, Pacer, RuntimeEvent,
};
use crate::transport::{mailbox, LiveMsg, Loopback};
use btr_core::{BtrSystem, FaultScenario, InjectedFault, NodeRow};
use btr_crypto::KeyStore;
use btr_model::{Duration, NodeId, Time};
use btr_obs::{FlightEvent, FlightRecorder, Histogram, PhaseMark, FLIGHT_CAP};
use btr_runtime::{Attack, BtrNode};
use btr_sim::{LogicalTrace, NodeBehavior, Seat};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
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
    /// Sends to crashed / not-yet-restarted nodes.
    pub(crate) receiver_down: u64,
    /// Deterministic transmission loss.
    pub transmission_loss: u64,
    /// No route (partition after crashes).
    pub(crate) no_route: u64,
    /// Sends a sender's bandwidth guardian denied.
    pub(crate) guardian_denied: u64,
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
    /// Panics caught on node threads, attributed to their node, with
    /// each node's flight-recorder tail and last logical timestamp.
    pub panics: Vec<PanicReport>,
    /// Nodes whose threads missed the wall deadline and were detached.
    pub deadline_overruns: Vec<NodeId>,
    /// Transport counters.
    pub drops: DropTotals,
    /// Per-node `mailbox_full` attribution (index = node).
    pub mailbox_full_by_node: Vec<u64>,
    /// Phase marks observed across all node runtimes, in node order
    /// (empty when `LiveConfig::obs` is off).
    pub phase_marks: Vec<PhaseMark>,
    /// Causal-gate sleeps summed over all actors.
    pub frontier_stalls: u64,
    /// Who held the frontier: of those sleeps, how many had each node as
    /// the peer holding the sleeper's bound lowest (index = node; sums
    /// to `frontier_stalls` when no actor was detached as an overrun).
    pub frontier_blockers: Vec<u64>,
    /// Repeat folds forced by arrivals after an actor's drain, summed.
    pub redrains: u64,
    /// Wall-clock lateness of timer dispatches (µs), merged over all
    /// actors.
    pub timer_lag: Histogram,
    /// Wall time for the whole run (spawn to last join).
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
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run an actor, converting a behaviour panic into a `Panicked` event
/// (the thread's terminal event either way — see the join discipline).
pub(crate) fn run_guarded(
    actor: NodeActor,
    end: Time,
    pacer: Pacer,
    ev: mpsc::Sender<RuntimeEvent>,
) -> Option<ActorOutcome> {
    let node = actor.node();
    let inner_ev = ev.clone();
    match catch_unwind(AssertUnwindSafe(move || actor.run(end, pacer, inner_ev))) {
        Ok(outcome) => Some(outcome),
        Err(payload) => {
            let _ = ev.send(RuntimeEvent {
                node,
                logical: Time::ZERO,
                wall_us: pacer.elapsed_us(),
                kind: EventKind::Panicked(panic_message(payload)),
            });
            None
        }
    }
}

/// The start barrier: logical zero is the wall instant the last party
/// arrives, so no thread starts behind the wall schedule at any pace —
/// and none waits out a guess at how long spawning takes.
struct StartLine {
    parties: usize,
    /// Arrivals so far, and the epoch once everyone is up.
    state: Mutex<(usize, Option<Instant>)>,
    all_up: Condvar,
}

impl StartLine {
    fn new(parties: usize) -> StartLine {
        StartLine {
            parties,
            state: Mutex::new((0, None)),
            all_up: Condvar::new(),
        }
    }

    /// Arrive, wait for the rest, and learn the shared epoch.
    fn arrive(&self) -> Instant {
        let mut state = self.state.lock().expect("start line lock");
        state.0 += 1;
        if state.0 == self.parties {
            state.1 = Some(Instant::now());
            self.all_up.notify_all();
        }
        loop {
            if let Some(epoch) = state.1 {
                return epoch;
            }
            state = self.all_up.wait(state).expect("start line lock");
        }
    }
}

/// Execute `scenario` on the live thread-per-node runtime.
pub fn run_live(
    system: &BtrSystem,
    scenario: &FaultScenario,
    horizon: Duration,
    cfg: &LiveConfig,
) -> LiveReport {
    let run_start = Instant::now();
    let n = system.topology().node_count();
    let end = Time::ZERO + horizon + system.grace();
    let suite = system.auth_suite();
    let period = system.workload().period;
    let keystore = Arc::new(KeyStore::derive_suite(cfg.seed, n, suite));
    let net = Loopback::new(system.network(cfg.seed));
    let workload = system.workload_arc();
    let strategy = system.strategy_arc();
    let (ev_tx, ev_rx) = mpsc::channel::<RuntimeEvent>();
    // One flight recorder per node, owned here and shared with the
    // actor: the tail stays readable after the actor's thread panics.
    let flights: Vec<Arc<Mutex<FlightRecorder>>> = (0..n)
        .map(|_| Arc::new(Mutex::new(FlightRecorder::new(FLIGHT_CAP))))
        .collect();
    // Spawn the thread of one incarnation of `node`, a fresh `BtrNode`
    // running `attack` whose logical clock starts at `start` and that
    // crashes at `crash_at`. On that thread `ready` first brings the
    // node to the point of running — meets the start line, or sits out
    // a downtime and re-attaches — and yields the pacer and the mailbox;
    // then context and actor are built and run guarded.
    type Ready = Box<dyn FnOnce() -> (Pacer, mpsc::Receiver<LiveMsg>) + Send>;
    let spawn = |node: NodeId,
                 attack: Option<Attack>,
                 start: Time,
                 crash_at: Option<Time>,
                 ready: Ready| {
        let behavior = Box::new(BtrNode::new(
            node,
            Arc::clone(&workload),
            Arc::clone(&strategy),
            n,
            attack,
        ));
        let (net, keystore, events) = (net.clone(), Arc::clone(&keystore), ev_tx.clone());
        let seat = Seat::derive(cfg.seed, node, suite);
        let flight = Arc::clone(&flights[node.index()]);
        let (obs, restart_after) = (cfg.obs, cfg.restart_after);
        let again = if start > Time::ZERO { "-r" } else { "" };
        thread::Builder::new()
            .name(format!("btr-{node}{again}"))
            .spawn(move || {
                let (pacer, rx) = ready();
                let mut ctx = LiveCtx::new(period, keystore, net.port(node), start);
                ctx.set_obs(obs);
                let mut actor =
                    NodeActor::new(node, behavior, seat, ctx, rx, net).with_flight(flight);
                if let Some(at) = crash_at {
                    actor = actor.with_crash(at, restart_after);
                }
                run_guarded(actor, end, pacer, events)
            })
            .expect("spawn node thread")
    };
    // Every actor thread and this one meet at the start line.
    let start = Arc::new(StartLine::new(n + 1));
    let pace = cfg.pace;

    let mut handles: Vec<Option<JoinHandle<Option<ActorOutcome>>>> = (0..n).map(|_| None).collect();
    // Whether the *current* thread for a node has emitted its terminal
    // event (join is only safe/prompt once this is true).
    let mut thread_done = vec![false; n];
    let mut ever_crashed = vec![false; n];
    let mut outcomes: Vec<ActorOutcome> = Vec::new();
    let mut events: Vec<RuntimeEvent> = Vec::new();
    let mut panics: Vec<PanicReport> = Vec::new();

    for i in 0..n as u32 {
        let node = NodeId(i);
        let (tx, rx) = mailbox(cfg.mailbox_cap);
        net.register(node, tx);
        let fault = scenario.fault_of(node);
        let line = Arc::clone(&start);
        let ready = Box::new(move || (Pacer::new(line.arrive(), pace), rx));
        let h = spawn(
            node,
            fault.and_then(InjectedFault::attack),
            Time::ZERO,
            fault.and_then(InjectedFault::crash_at),
            ready,
        );
        handles[i as usize] = Some(h);
    }
    let pacer = Pacer::new(start.arrive(), pace);

    let deadline = pacer.wall_for(end) + cfg.join_grace;
    let mut live_threads = n;
    while live_threads > 0 {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let e = match ev_rx.recv_timeout(deadline - now) {
            Ok(e) => e,
            Err(_) => break,
        };
        let idx = e.node.index();
        match &e.kind {
            EventKind::Started | EventKind::SwitchCompleted { .. } => {}
            EventKind::Finished => {
                thread_done[idx] = true;
                live_threads -= 1;
            }
            EventKind::Panicked(msg) => {
                thread_done[idx] = true;
                live_threads -= 1;
                let f = flights[idx].lock().expect("flight lock");
                panics.push(PanicReport {
                    node: e.node,
                    message: msg.clone(),
                    last_logical: f.last_at(),
                    flight_total: f.total(),
                    flight_tail: f.tail(),
                });
                drop(f);
                ever_crashed[idx] = true;
                // Peers see the same silence a crash produces; the
                // panicked thread never published a terminal frontier,
                // so release its causal hold here.
                net.crash(e.node);
                net.set_terminal(e.node);
            }
            EventKind::Crashed => {
                thread_done[idx] = true;
                live_threads -= 1;
                ever_crashed[idx] = true;
                // The dying actor decided the same way and left its
                // frontier cell at `restart_at` for the next incarnation
                // (which has no scripted crash).
                if let Some(restart_at) = restart_instant(e.logical, cfg.restart_after, end) {
                    // The terminal event precedes the thread's return by
                    // instants; this join is prompt.
                    if let Some(h) = handles[idx].take() {
                        if let Ok(Some(out)) = h.join() {
                            outcomes.push(out);
                        }
                    }
                    thread_done[idx] = false;
                    live_threads += 1;
                    let node = e.node;
                    let (net, cap) = (net.clone(), cfg.mailbox_cap);
                    let ready = Box::new(move || {
                        // Sit out the scripted downtime, then rejoin: a
                        // down node must miss the traffic of its
                        // downtime, so the mailbox is only attached on
                        // wake.
                        let wake = pacer.wall_for(restart_at);
                        let now = Instant::now();
                        if wake > now {
                            thread::sleep(wake - now);
                        }
                        let (tx, rx) = mailbox(cap);
                        net.restore(node);
                        net.register(node, tx);
                        (pacer, rx)
                    });
                    let h = spawn(node, None, restart_at, None, ready);
                    handles[idx] = Some(h);
                }
            }
        }
        events.push(e);
    }
    // All terminal events are enqueued before their threads return, so
    // anything still in the channel belongs to this run.
    while let Ok(e) = ev_rx.try_recv() {
        events.push(e);
    }

    let mut deadline_overruns = Vec::new();
    for idx in 0..n {
        let Some(h) = handles[idx].take() else {
            continue;
        };
        if thread_done[idx] {
            if let Ok(Some(out)) = h.join() {
                outcomes.push(out);
            }
        } else {
            // Never block on a wedged node: record and detach.
            deadline_overruns.push(NodeId(idx as u32));
            drop(h);
        }
    }

    let mut actuations = Vec::new();
    for out in &mut outcomes {
        actuations.append(&mut out.actuations);
    }
    outcomes.sort_by_key(|o| o.node);
    let survivors = outcomes
        .iter()
        .filter(|o| !ever_crashed[o.node.index()])
        .map(|o| (o.node, &*o.behavior as &dyn NodeBehavior));
    let (node_stats, converged) = btr_core::node_rows(scenario, survivors);

    let c = net.counters();
    let drops = DropTotals {
        mailbox_full: c.mailbox_full.load(Ordering::Relaxed),
        receiver_down: c.receiver_down.load(Ordering::Relaxed),
        transmission_loss: c.transmission_loss.load(Ordering::Relaxed),
        no_route: c.no_route.load(Ordering::Relaxed),
        guardian_denied: c.guardian_denied.load(Ordering::Relaxed),
        sent: c.sent.load(Ordering::Relaxed),
    };
    let mailbox_full_by_node: Vec<u64> = (0..n as u32)
        .map(|i| net.mailbox_full_at(NodeId(i)))
        .collect();
    let frontier_blockers: Vec<u64> = (0..n as u32).map(|i| net.slept_on(NodeId(i))).collect();

    // Out-of-band observability totals (outcomes are already in node
    // order, so the mark log is deterministic given the run's events).
    let mut phase_marks: Vec<PhaseMark> = Vec::new();
    let mut frontier_stalls = 0u64;
    let mut redrains = 0u64;
    let mut timer_lag = Histogram::new();
    for out in &outcomes {
        phase_marks.extend_from_slice(&out.marks);
        frontier_stalls += out.frontier_stalls;
        redrains += out.redrains;
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
        mailbox_full_by_node,
        phase_marks,
        frontier_stalls,
        frontier_blockers,
        redrains,
        timer_lag,
        wall: run_start.elapsed(),
    }
}
