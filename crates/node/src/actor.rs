//! The node host: one `NodeBehavior`, stepped by the fleet's worker.
//!
//! Each host owns a logical clock, an agenda, and a mailbox, and holds
//! its [`Seat`] — skew, signer, RNG stream, derived as the simulator
//! derives them and lent to a `NodeCtx` per dispatch beside the
//! [`LiveCtx`] substrate. All *protocol-visible* time is logical —
//! envelope timestamps, timer deadlines, actuation stamps — so a live
//! run produces the simulator's canonical actuation trace, and the wall
//! clock only determines how long the run physically takes (and how
//! real the measured recovery latencies are).
//!
//! Two gates sit in front of every dispatch:
//!
//! * **Causal gate** (correctness): conservative parallel
//!   discrete-event execution in the Chandy–Misra–Bryant style. Each
//!   node publishes a frontier through the transport — a lower bound on
//!   the arrival time of anything it may still send, which is its next
//!   dispatchable instant plus the topology's minimum link delay
//!   (lookahead). A node dispatches an event at logical `t` only once
//!   every peer's frontier has passed `t`, so the order the worker
//!   steps hosts in, or a worker descheduled for ten milliseconds,
//!   delays the run but can never reorder it; a host the gate holds
//!   names the peer that holds it, and the worker steps that peer next.
//! * **Wall gate** (pacing): logical `t` does not dispatch before wall
//!   instant `epoch + pace · t`, which is what makes measured recovery
//!   latencies real.
//!
//! Everything a host has yet to dispatch sits in one agenda, ordered
//! `(logical time, class, tie)`: the node's scripted crash first (the
//! simulator schedules it as a control event before the run starts, so
//! it pops ahead of everything else at its instant), then timers
//! (ordered by arm sequence), then parked messages (ordered by transport
//! `(sender, send seq)`); the causal gate admits a crash or a timer at
//! the frontier bound (they win ties) and messages strictly below it.
//! The simulator orders same-instant events by global push sequence
//! instead; the two conventions only differ for exact logical-time ties,
//! which the pinned differential tests cover.

use crate::supervisor::{LiveConfig, PanicReport};
use crate::transport::{Gate, LiveMsg, Loopback, Mailbox, Port};
use btr_crypto::{AuthSuite, KeyStore};
use btr_model::{Duration, Envelope, NodeId, PeriodIdx, TaskId, Time, Value};
use btr_obs::{FlightKind, FlightRecorder, Histogram, Phase, PhaseMark, FLIGHT_CAP};
use btr_runtime::BtrNode;
use btr_sim::{Actuation, CtxBackend, NodeBehavior, NodeCtx, Scratch, Seat, TimerId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

/// Maps logical time onto the shared wall clock: logical `t` µs may not
/// dispatch before `epoch + pace · t` µs of wall time. `pace` > 1 slows
/// the run down (more slack for scheduling jitter); it never changes
/// logical outcomes, only wall-clock fidelity.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pacer {
    epoch: Instant,
    pace: f64,
}

impl Pacer {
    /// A pacer whose logical zero is `epoch`.
    pub(crate) fn new(epoch: Instant, pace: f64) -> Pacer {
        assert!(pace > 0.0, "pace must be positive");
        Pacer { epoch, pace }
    }

    /// The wall instant before which logical `at` must not dispatch.
    pub(crate) fn wall_for(&self, at: Time) -> Instant {
        let ns = at.as_micros() as f64 * self.pace * 1_000.0;
        self.epoch + std::time::Duration::from_nanos(ns as u64)
    }

    /// Wall µs elapsed since the logical-zero epoch (0 before it).
    pub(crate) fn elapsed_us(&self) -> u64 {
        Instant::now()
            .saturating_duration_since(self.epoch)
            .as_micros() as u64
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
    /// The host started and `on_start` ran.
    Started,
    /// The host reached the horizon cleanly.
    Finished,
    /// The node fail-stopped: its mailbox is detached for good.
    Crashed,
    /// The node's runtime completed a mode switch (cumulative count).
    SwitchCompleted {
        /// The node's total switches so far.
        count: u64,
    },
    /// The behaviour panicked; the supervisor attributes and reports it.
    Panicked(String),
}

/// Agenda class of the scripted crash: pops at the causal bound, before
/// its instant's timers and messages.
const CRASH: u64 = 0;
/// Agenda class of a timer: dispatches at the causal bound.
const TIMER: u64 = 1;
/// Agenda class of a parked message: dispatches strictly below the
/// bound (one still in flight could tie and order ahead by sender).
const MESSAGE: u64 = 2;

/// One thing an actor has yet to dispatch.
struct Due {
    /// `(at, class, a, b)`: the crash is `(at, CRASH, 0, 0)`, an armed
    /// timer `(due, TIMER, arm sequence, timer id)`, a parked message
    /// `(arrival, MESSAGE, sender, send sequence)`. Unique, so it alone
    /// orders the agenda.
    key: (Time, u64, u64, u64),
    /// The parked envelope (none for a timer or the crash).
    env: Option<Envelope>,
}

impl PartialEq for Due {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Due {}
impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Due {
    /// Reversed: the earliest key is the heap's greatest element.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// Everything a live actor has yet to dispatch, in dispatch order: a
/// crash pops before its instant's timers, same-instant timers fire in
/// arm order — the simulator's global event sequence restricted to one
/// node — and before the instant's messages.
/// Timer ids are the runtime's opaque `u64` encodings, never
/// interpreted here.
#[derive(Default)]
struct Agenda {
    heap: BinaryHeap<Due>,
    armed: u64,
}

impl Agenda {
    fn crash(&mut self, at: Time) {
        let key = (at, CRASH, 0, 0);
        self.heap.push(Due { key, env: None });
    }

    fn arm(&mut self, at: Time, timer: TimerId) {
        self.armed += 1;
        let key = (at, TIMER, self.armed, timer);
        self.heap.push(Due { key, env: None });
    }

    fn park(&mut self, m: LiveMsg) {
        let key = (m.at, MESSAGE, u64::from(m.from.0), m.seq);
        self.heap.push(Due {
            key,
            env: Some(m.env),
        });
    }

    /// The next event's instant and class.
    fn peek(&self) -> Option<(Time, u64)> {
        self.heap.peek().map(|d| (d.key.0, d.key.1))
    }

    fn pop(&mut self) -> Option<Due> {
        self.heap.pop()
    }
}

/// The live, single-node counterpart of the simulator's substrate: the
/// [`CtxBackend`] a behaviour acts through on its host. All it stamps is logical time, which is what makes the two
/// substrates trace-equivalent.
pub(crate) struct LiveCtx {
    logical: Time,
    period: Duration,
    keystore: Arc<KeyStore>,
    port: Port,
    agenda: Agenda,
    pub(crate) actuations: Vec<Actuation>,
    /// Observation switch: when off, `observe` is a no-op and the mark
    /// log stays empty (the live inertness tests flip this).
    obs: bool,
    pub(crate) marks: Vec<PhaseMark>,
}

impl LiveCtx {
    /// Build the substrate of the node behind `port`, whose logical
    /// clock starts at `start`, collecting phase marks if `obs` (marks
    /// are out-of-band either way, so this cannot change a run).
    pub(crate) fn new(
        period: Duration,
        keystore: Arc<KeyStore>,
        port: Port,
        start: Time,
        obs: bool,
    ) -> LiveCtx {
        LiveCtx {
            logical: start,
            period,
            keystore,
            port,
            agenda: Agenda::default(),
            actuations: Vec::new(),
            obs,
            marks: Vec::new(),
        }
    }
}

impl CtxBackend for LiveCtx {
    fn now(&self) -> Time {
        self.logical
    }

    fn period(&self) -> Duration {
        self.period
    }

    fn keystore(&self) -> &KeyStore {
        &self.keystore
    }

    fn send_env(&mut self, _src: NodeId, env: Envelope) {
        self.port.send(self.logical, env);
    }

    fn set_timer_at(&mut self, _node: NodeId, at: Time, timer: TimerId) {
        self.agenda.arm(at.max(self.logical), timer);
    }

    fn actuate(&mut self, node: NodeId, task: TaskId, period: PeriodIdx, value: Value) {
        self.actuations.push(Actuation {
            at: self.logical,
            node,
            task,
            period,
            value,
        });
    }

    fn observe(&mut self, mark: PhaseMark) {
        if self.obs {
            self.marks.push(mark);
        }
    }
}

/// What one [`NodeActor::step`] did, or why it could not.
pub(crate) enum Step {
    /// Started the node, dispatched one event, or found a late arrival
    /// to fold: step again.
    Ran,
    /// The causal gate holds the next event until `blocker`, the peer
    /// holding the frontier lowest, publishes past it.
    Wait { blocker: NodeId },
    /// The next event may not dispatch before this wall instant.
    NotBefore(Instant),
    /// Terminal: the node finished or crashed, and comes back at the
    /// instant given, if it does.
    Done(Option<Time>),
}

/// What every host of one run shares, lent to each step: the network,
/// the keys, the clock and the horizon, where hosts report, and the
/// run's settings.
pub(crate) struct Run {
    pub(crate) net: Loopback,
    pub(crate) keystore: Arc<KeyStore>,
    pub(crate) period: Duration,
    /// The logical horizon (inclusive, as the simulator's `run_until`).
    pub(crate) end: Time,
    pub(crate) pacer: Pacer,
    pub(crate) events: Sender<RuntimeEvent>,
    pub(crate) cfg: LiveConfig,
}

/// One node host: behaviour + context + mailbox, stepped to the run's
/// horizon under the run's wall-clock pacer. Once terminal, what it
/// leaves (behaviour, actuations, marks, counters) is read off it.
pub(crate) struct NodeActor {
    pub(crate) node: NodeId,
    pub(crate) behavior: Box<dyn NodeBehavior + Send>,
    seat: Seat,
    /// Scratch for the canonical bytes of what the node signs or
    /// verifies. No verification memo: this host has one node, and each
    /// envelope reaches it once.
    scratch: Scratch,
    pub(crate) ctx: LiveCtx,
    /// Attached to the network when the host starts (a restart's only at
    /// its instant: a down node misses its downtime's traffic).
    mailbox: Mailbox,
    started: bool,
    /// The scheduler's note of the wall instant before which stepping
    /// this host is pointless.
    pub(crate) not_before: Instant,
    last_switch_count: u64,
    /// Ring of the last few dispatches: the tail a panic report shows.
    flight: FlightRecorder,
    /// Causal-gate stalls (the event at hand was not yet provably safe
    /// to dispatch, and the node blocked until a peer's publish).
    pub(crate) frontier_stalls: u64,
    /// Repeat folds: a message reached the mailbox after the drain —
    /// below the fold, or between the fold and the bound read.
    pub(crate) redrains: u64,
    /// Wall-clock lateness of timer dispatches past their paced
    /// instant, in µs (live-only: logically always 0).
    pub(crate) timer_lag: Histogram,
}

impl NodeActor {
    /// A host for `behavior` as `node` in `run`, whose logical clock
    /// starts at `start`.
    pub(crate) fn new(
        node: NodeId,
        behavior: Box<dyn NodeBehavior + Send>,
        run: &Run,
        start: Time,
    ) -> NodeActor {
        let (keystore, port) = (Arc::clone(&run.keystore), run.net.port(node));
        NodeActor {
            node,
            behavior,
            seat: Seat::derive(run.cfg.seed, node, AuthSuite::default()),
            scratch: Scratch::for_node(),
            ctx: LiveCtx::new(run.period, keystore, port, start, run.cfg.obs),
            mailbox: Mailbox::new(run.cfg.mailbox_cap),
            started: false,
            // Unknown until the first step says.
            not_before: Instant::now(),
            last_switch_count: 0,
            flight: FlightRecorder::new(FLIGHT_CAP),
            frontier_stalls: 0,
            redrains: 0,
            timer_lag: Histogram::new(),
        }
    }

    /// Crash this node at logical `at`, and restart it the run's
    /// `restart_after` later if that is inside the horizon: dying, it
    /// then hands its frontier cell to the next incarnation instead of
    /// going terminal.
    pub(crate) fn with_crash(mut self, at: Time) -> NodeActor {
        self.ctx.agenda.crash(at);
        self
    }

    /// Attach the host's mailbox to the network (again, when it starts:
    /// a cold boot's is attached up front, as its peers may send before
    /// its first step).
    pub(crate) fn attach(&self, net: &Loopback) {
        net.restore(self.node);
        net.register(self.node, self.mailbox.clone());
    }

    fn emit(&self, run: &Run, kind: EventKind) {
        // The supervisor drains the channel once the fleet has stopped.
        let _ = run.events.send(RuntimeEvent {
            node: self.node,
            logical: self.ctx.logical,
            wall_us: run.pacer.elapsed_us(),
            kind,
        });
    }

    fn post_dispatch(&mut self, run: &Run) {
        if let Some(b) = self
            .behavior
            .as_any()
            .and_then(|a| a.downcast_ref::<BtrNode>())
        {
            let count = b.switch_count();
            if count > self.last_switch_count {
                self.last_switch_count = count;
                self.flight
                    .push(self.ctx.logical, FlightKind::SwitchCompleted { count });
                self.emit(run, EventKind::SwitchCompleted { count });
            }
        }
    }

    /// One step: start the node (`Started`), or dispatch its next event
    /// once the causal gate and the wall gate admit it, or say why not.
    /// Emits `SwitchCompleted`s as they happen, and exactly one terminal
    /// `Finished`/`Crashed` event when it returns [`Step::Done`]; a
    /// behaviour armed with nothing finishes once nothing can still
    /// arrive inside the horizon.
    pub(crate) fn step(&mut self, run: &Run) -> Step {
        if !self.started {
            let at = run.pacer.wall_for(self.ctx.logical);
            if Instant::now() < at {
                return Step::NotBefore(at);
            }
            self.attach(&run.net);
            self.behavior.on_start(&mut NodeCtx::new(
                &mut self.seat,
                &mut self.scratch,
                &mut self.ctx,
                self.node,
            ));
            self.started = true;
            self.emit(run, EventKind::Started);
            self.flight.push(self.ctx.logical, FlightKind::Start);
            return Step::Ran;
        }
        let agenda = &mut self.ctx.agenda;
        self.mailbox.drain(|m| agenda.park(m));
        // Our anchor is the earliest event we could dispatch; `need` is
        // the causal bound that makes the step at hand safe: a crash's
        // or a timer's instant, one past a message's (see the classes);
        // with nothing left inside the horizon we are done once nothing
        // can still arrive in it.
        let end = run.end;
        let (anchor, need, due) = match self.ctx.agenda.peek() {
            Some((at, class)) if at <= end => {
                (at, at + Duration(u64::from(class == MESSAGE)), true)
            }
            Some((at, _)) => (at, end + Duration(1), false),
            None => (Time(u64::MAX), end + Duration(1), false),
        };
        match run.net.gate(self.node, anchor, need) {
            Gate::Go => {}
            Gate::Redrain => {
                self.redrains += 1;
                return Step::Ran;
            }
            Gate::Wait { blocker } => {
                self.frontier_stalls += 1;
                return Step::Wait { blocker };
            }
        }
        if !due {
            return self.finish(run, EventKind::Finished);
        }
        // Wall gate. The causal gate said Go, so no arrival can precede
        // the event: it is the next one whenever its instant comes.
        let target = run.pacer.wall_for(anchor);
        if Instant::now() < target {
            return Step::NotBefore(target);
        }
        let Due { key, env } = self.ctx.agenda.pop().expect("peeked event");
        let (at, class, a, b) = key;
        self.ctx.logical = self.ctx.logical.max(at);
        if class == CRASH {
            return self.finish(run, EventKind::Crashed);
        }
        let kind = match env {
            None => {
                let late = Instant::now().saturating_duration_since(target);
                self.timer_lag.record(late.as_micros() as u64);
                FlightKind::Timer
            }
            Some(_) => FlightKind::Message {
                from: NodeId(a as u32),
            },
        };
        self.flight.push(at, kind);
        let mut ctx = NodeCtx::new(&mut self.seat, &mut self.scratch, &mut self.ctx, self.node);
        match env {
            None => self.behavior.on_timer(&mut ctx, b),
            Some(env) => self.behavior.on_message(&mut ctx, env),
        }
        self.post_dispatch(run);
        Step::Ran
    }

    /// Go terminal with `terminal` (`Finished` or `Crashed`).
    fn finish(&mut self, run: &Run, terminal: EventKind) -> Step {
        self.mailbox.close();
        let crashed = terminal == EventKind::Crashed;
        if crashed {
            // Fail-stop for real: detach the mailbox and reroute around
            // this node. Fault activation is a phase boundary: the
            // recovery timeline starts here, as it does in the
            // simulator's control-action path.
            run.net.crash(self.node);
            self.flight.push(self.ctx.logical, FlightKind::Crash);
            self.ctx.observe(PhaseMark {
                observer: self.node,
                subject: self.node,
                phase: Phase::FaultActive,
                at: self.ctx.logical,
            });
        }
        let after = run.cfg.restart_after;
        let back_at = self.ctx.logical + after;
        let back_at = (crashed && after > Duration::ZERO && back_at < run.end).then_some(back_at);
        match back_at {
            // Coming back: the cell goes straight to the restart instant.
            Some(at) => run.net.hand_off(self.node, at),
            // Terminal: this node will never send again, so no peer may
            // wait on it.
            None => run.net.set_terminal(self.node),
        }
        self.emit(run, terminal);
        Step::Done(back_at)
    }

    /// The host's behaviour panicked mid-step: take the node down as a
    /// crash does, release its causal hold, and report the panic with
    /// the flight tail leading into it.
    pub(crate) fn panicked(self, run: &Run, message: String) -> PanicReport {
        self.mailbox.close();
        run.net.crash(self.node);
        run.net.set_terminal(self.node);
        self.emit(run, EventKind::Panicked(message.clone()));
        PanicReport {
            node: self.node,
            message,
            last_logical: self.flight.last_at(),
            flight_total: self.flight.total(),
            flight_tail: self.flight.tail(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::mailbox;
    use btr_model::{Payload, Topology};
    use btr_net::Network;
    use std::sync::mpsc::Receiver;

    fn harness(n: usize) -> (Loopback, Arc<KeyStore>) {
        let topo = Topology::bus(n, 100_000, Duration(5));
        let net = Loopback::new(Network::new(topo, Duration::from_millis(10), 1, 0, None));
        let ks = Arc::new(KeyStore::derive_suite(1, n, AuthSuite::default()));
        (net, ks)
    }

    /// A host for `node` on `net`, run to `end` at a ~free-running pace.
    fn host(
        node: NodeId,
        behavior: Box<dyn NodeBehavior + Send>,
        net: &Loopback,
        ks: &Arc<KeyStore>,
        end: Time,
    ) -> (NodeActor, Run, Receiver<RuntimeEvent>) {
        let (events, ev_rx) = std::sync::mpsc::channel();
        let run = Run {
            net: net.clone(),
            keystore: Arc::clone(ks),
            period: Duration::from_millis(10),
            end,
            pacer: Pacer::new(Instant::now(), 0.001),
            events,
            cfg: LiveConfig::new(1),
        };
        let actor = NodeActor::new(node, behavior, &run, Time::ZERO);
        actor.attach(net);
        (actor, run, ev_rx)
    }

    /// Step a lone host until it is terminal.
    fn run(mut actor: NodeActor, run: &Run) -> NodeActor {
        while !matches!(actor.step(run), Step::Done(_)) {
            std::thread::yield_now();
        }
        actor
    }

    #[test]
    fn agenda_pops_timers_in_arm_order_then_messages_by_sender() {
        let msg = |at, from, seq| LiveMsg {
            at,
            from: NodeId(from),
            seq,
            env: Envelope::new(NodeId(from), NodeId(0), at, Payload::Control(0)),
        };
        let mut agenda = Agenda::default();
        // Far past the 65 ms horizon the timer wheel used to promote
        // across, armed first.
        agenda.arm(Time::from_millis(500), 99);
        agenda.park(msg(Time(50), 2, 0));
        agenda.park(msg(Time(50), 1, 4));
        agenda.arm(Time(50), 70);
        agenda.park(msg(Time(50), 1, 3));
        agenda.arm(Time(50), 30);
        agenda.park(msg(Time(40), 3, 9));
        agenda.arm(Time::from_millis(70), 7);
        agenda.crash(Time(50));
        assert_eq!(agenda.peek(), Some((Time(40), MESSAGE)));
        let popped: Vec<_> = std::iter::from_fn(|| agenda.pop())
            .map(|d| (d.key, d.env.is_some()))
            .collect();
        assert_eq!(
            popped,
            [
                ((Time(40), MESSAGE, 3, 9), true),
                ((Time(50), CRASH, 0, 0), false),
                ((Time(50), TIMER, 2, 70), false),
                ((Time(50), TIMER, 3, 30), false),
                ((Time(50), MESSAGE, 1, 3), true),
                ((Time(50), MESSAGE, 1, 4), true),
                ((Time(50), MESSAGE, 2, 0), true),
                ((Time::from_millis(70), TIMER, 4, 7), false),
                ((Time::from_millis(500), TIMER, 1, 99), false),
            ]
        );
    }

    /// Arms a timer chain and sends one message per firing.
    struct Pinger {
        fired: u64,
    }
    impl NodeBehavior for Pinger {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(Duration(100), 1);
        }
        fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: TimerId) {
            self.fired += 1;
            ctx.send(NodeId(1), Payload::Control(self.fired as u8));
            ctx.actuate(TaskId(0), self.fired, self.fired);
            if self.fired < 5 {
                ctx.set_timer(Duration(100), timer);
            }
        }
    }

    #[test]
    fn actor_runs_timer_chain_to_horizon() {
        let (net, ks) = harness(2);
        let (tx1, rx1) = mailbox(64);
        net.register(NodeId(1), tx1);
        // Node 1 has no host in this test: release its causal frontier
        // so node 0's gate never waits on it.
        net.set_terminal(NodeId(1));
        let pinger = Box::new(Pinger { fired: 0 });
        let (actor, shared, ev_rx) = host(NodeId(0), pinger, &net, &ks, Time::from_millis(2));
        let out = run(actor, &shared);
        assert_eq!(out.ctx.actuations.len(), 5);
        assert_eq!(out.ctx.actuations[0].at, Time(100));
        assert_eq!(out.ctx.actuations[4].at, Time(500));
        // All five sends reached node 1's mailbox with logical stamps.
        let mut got = 0;
        for m in rx1.take() {
            assert!(m.at > Time(100 * (got as u64)));
            got += 1;
        }
        assert_eq!(got, 5);
        // Started first, Finished last.
        let evs: Vec<RuntimeEvent> = ev_rx.try_iter().collect();
        assert_eq!(
            evs.first().map(|e| e.kind.clone()),
            Some(EventKind::Started)
        );
        assert_eq!(
            evs.last().map(|e| e.kind.clone()),
            Some(EventKind::Finished)
        );
    }

    /// Arms a timer for 50 µs and actuates on every timer and message.
    struct Actuator;
    impl NodeBehavior for Actuator {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer_at(Time(50), 1);
        }
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, _env: Envelope) {
            ctx.actuate(TaskId(1), 0, 0);
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId) {
            ctx.actuate(TaskId(0), 0, 0);
        }
    }

    #[test]
    fn crash_is_terminal_and_detaches_mailbox() {
        // A crash scripted for 50 µs pops before the timer armed for 50
        // µs and the message parked for it: neither dispatches.
        let (net, ks) = harness(2);
        net.set_terminal(NodeId(1));
        let (actor, shared, ev_rx) = host(
            NodeId(0),
            Box::new(Actuator),
            &net,
            &ks,
            Time::from_millis(10),
        );
        let actor = actor.with_crash(Time(50));
        let at = Time(50);
        // A self-send arrives at its send instant: parked for 50 µs.
        let env = Envelope::new(NodeId(0), NodeId(0), at, Payload::Control(1));
        assert_eq!(net.port(NodeId(0)).send(at, env), Some(at));
        let out = run(actor, &shared);
        assert!(out.ctx.actuations.is_empty(), "{:?}", out.ctx.actuations);
        let marks: Vec<_> = out.ctx.marks.iter().map(|m| (m.phase, m.at)).collect();
        assert_eq!(marks, [(Phase::FaultActive, at)]);
        let evs: Vec<RuntimeEvent> = ev_rx.try_iter().collect();
        assert_eq!(
            evs.last().map(|e| (e.kind.clone(), e.logical)),
            Some((EventKind::Crashed, at))
        );
        // Post-crash, the network refuses traffic to the dead node.
        let mut port = net.port(NodeId(1));
        assert!(port
            .send(
                Time(60),
                Envelope::new(NodeId(1), NodeId(0), Time(60), Payload::Control(1))
            )
            .is_none());
    }
}
