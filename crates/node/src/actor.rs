//! The node host: one `NodeBehavior`, stepped by the fleet's worker.
//!
//! Each host owns a logical clock and an agenda, drains the mailbox
//! the transport keeps for its node, and holds its [`Seat`] — skew,
//! signer, RNG stream, derived as the simulator derives them and lent
//! to a `NodeCtx` per dispatch beside the [`LiveCtx`] substrate. All *protocol-visible* time is logical —
//! envelope timestamps, timer deadlines, actuation stamps — so a live
//! run produces the simulator's canonical actuation trace, and the wall
//! clock only determines how long the run physically takes (and how
//! real the measured recovery latencies are). A step borrows the
//! fleet's transport: it drains the mailbox, dispatches one event, and
//! hands what the dispatch sent to the network, with nothing between.
//!
//! A host needs no gate of its own. The fleet's worker steps the host
//! whose head — its earliest pending work, [`NodeActor::head`] — is the
//! least in the fleet, once the wall clock reaches that instant
//! (`epoch + pace · t`, which is what makes measured recovery latencies
//! real); the supervisor module says why nothing can then arrive ahead
//! of the event the step dispatches.
//!
//! Everything a host has yet to dispatch sits in one agenda, ordered
//! `(logical time, class, tie)`: the node's scripted crash first (the
//! simulator schedules it as a control event before the run starts, so
//! it pops ahead of every node's work at its instant), then timers
//! (ordered by arm sequence), then parked messages (ordered by transport
//! `(sender, send seq)`). The simulator orders same-instant events by
//! global push sequence instead; the two conventions only differ for
//! exact logical-time ties, which the pinned differential tests cover.

use crate::supervisor::{LiveConfig, PanicReport};
use crate::transport::{LiveMsg, Loopback};
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

/// Head class of a host that has not started: ahead of everything at
/// its start instant.
const START: u64 = 0;
/// Agenda class of the scripted crash: pops before its instant's timers
/// and messages, on every host.
const CRASH: u64 = 1;
/// Agenda class of a timer.
const TIMER: u64 = 2;
/// Agenda class of a parked (or still undrained) message.
const MESSAGE: u64 = 3;

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
    /// What the dispatch at hand sent, in send order; the host hands it
    /// to the network once the behaviour returns.
    outbox: Vec<Envelope>,
    /// This incarnation's sends so far.
    sent: u64,
    agenda: Agenda,
    pub(crate) actuations: Vec<Actuation>,
    /// Observation switch: when off, `observe` is a no-op and the mark
    /// log stays empty (the live inertness tests flip this).
    obs: bool,
    pub(crate) marks: Vec<PhaseMark>,
}

impl LiveCtx {
    /// Build a node's substrate, whose logical clock starts at `start`,
    /// collecting phase marks if `obs` (marks are out-of-band either way,
    /// so this cannot change a run).
    pub(crate) fn new(
        period: Duration,
        keystore: Arc<KeyStore>,
        start: Time,
        obs: bool,
    ) -> LiveCtx {
        LiveCtx {
            logical: start,
            period,
            keystore,
            outbox: Vec::new(),
            sent: 0,
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
        self.outbox.push(env);
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

/// What one [`NodeActor::step`] did.
pub(crate) enum Step {
    /// Started the node or dispatched one event.
    Ran,
    /// Terminal: the node finished or crashed, and comes back at the
    /// instant given, if it does.
    Done(Option<Time>),
}

/// What every host of one run shares, lent to each step: the network,
/// the keys, the clock and the horizon, where hosts report, and the
/// run's settings. The worker owns it and lends it to one step at a
/// time.
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

/// One node host: behaviour + context, stepped to the run's horizon
/// under the run's wall-clock pacer (its mailbox is the transport's).
/// Once terminal, what it leaves (behaviour, actuations, marks,
/// counters) is read off it.
pub(crate) struct NodeActor {
    pub(crate) node: NodeId,
    pub(crate) behavior: Box<dyn NodeBehavior + Send>,
    seat: Seat,
    /// Scratch for the canonical bytes of what the node signs or
    /// verifies. No verification memo: this host has one node, and each
    /// envelope reaches it once.
    scratch: Scratch,
    pub(crate) ctx: LiveCtx,
    started: bool,
    last_switch_count: u64,
    /// Ring of the last few dispatches: the tail a panic report shows.
    flight: FlightRecorder,
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
        let keystore = Arc::clone(&run.keystore);
        NodeActor {
            node,
            behavior,
            seat: Seat::derive(run.cfg.seed, node, AuthSuite::default()),
            scratch: Scratch::for_node(),
            ctx: LiveCtx::new(run.period, keystore, start, run.cfg.obs),
            started: false,
            last_switch_count: 0,
            flight: FlightRecorder::new(FLIGHT_CAP),
            timer_lag: Histogram::new(),
        }
    }

    /// Crash this node at logical `at`, and restart it the run's
    /// `restart_after` later if that is inside the horizon.
    pub(crate) fn with_crash(mut self, at: Time) -> NodeActor {
        self.ctx.agenda.crash(at);
        self
    }

    /// Attach the host's node to the network with its mailbox: a cold
    /// boot's up front, as its peers may send before its first step; a
    /// restart's when it starts, so a send during its downtime counts
    /// as `receiver_down`, as a send to a down node does.
    pub(crate) fn attach(&self, run: &mut Run) {
        run.net.attach(self.node, run.cfg.mailbox_cap);
    }

    /// Hand what the dispatch just sent to the network, in send order.
    fn flush(&mut self, net: &mut Loopback) {
        let ctx = &mut self.ctx;
        for env in ctx.outbox.drain(..) {
            ctx.sent += 1;
            net.send(self.node, ctx.sent, ctx.logical, env);
        }
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

    /// The host's head, `(instant, class)`: its earliest pending work.
    /// Before it starts, that is its start instant, ahead of every
    /// class; after, the earlier of its agenda's next event and the
    /// earliest arrival it has not drained. `None`: nothing pending.
    pub(crate) fn head(&self, net: &Loopback) -> Option<(Time, u64)> {
        if !self.started {
            return Some((self.ctx.logical, START));
        }
        let arrival = net.undrained(self.node).map(|at| (at, MESSAGE));
        self.ctx.agenda.peek().into_iter().chain(arrival).min()
    }

    /// One step, taken when this host's head is the fleet's least: start
    /// the node (`Started`), or drain the mailbox and dispatch the next
    /// event, or, with nothing left inside the horizon, finish. Emits
    /// `SwitchCompleted`s as they happen, and exactly one terminal
    /// `Finished`/`Crashed` event when it returns [`Step::Done`].
    pub(crate) fn step(&mut self, run: &mut Run) -> Step {
        if !self.started {
            self.attach(run);
            self.behavior.on_start(&mut NodeCtx::new(
                &mut self.seat,
                &mut self.scratch,
                &mut self.ctx,
                self.node,
            ));
            self.flush(&mut run.net);
            self.started = true;
            self.emit(run, EventKind::Started);
            self.flight.push(self.ctx.logical, FlightKind::Start);
            return Step::Ran;
        }
        let (agenda, clock) = (&mut self.ctx.agenda, self.ctx.logical);
        run.net.drain(self.node, |m| {
            // Every send that lands here came from a step before this
            // one, at a head no later than ours, so none is late.
            debug_assert!(
                m.at >= clock,
                "{} arrival at {} below the clock {clock}",
                m.from,
                m.at
            );
            agenda.park(m);
        });
        if !matches!(self.ctx.agenda.peek(), Some((at, _)) if at <= run.end) {
            return self.finish(run, EventKind::Finished);
        }
        let Due { key, env } = self.ctx.agenda.pop().expect("peeked event");
        let (at, class, a, b) = key;
        self.ctx.logical = self.ctx.logical.max(at);
        if class == CRASH {
            return self.finish(run, EventKind::Crashed);
        }
        let kind = match env {
            None => {
                let late = Instant::now().saturating_duration_since(run.pacer.wall_for(at));
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
        self.flush(&mut run.net);
        self.post_dispatch(run);
        Step::Ran
    }

    /// Go terminal with `terminal` (`Finished` or `Crashed`).
    fn finish(&mut self, run: &mut Run, terminal: EventKind) -> Step {
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
        } else {
            run.net.detach(self.node);
        }
        let after = run.cfg.restart_after;
        let back_at = self.ctx.logical + after;
        let back_at = (crashed && after > Duration::ZERO && back_at < run.end).then_some(back_at);
        self.emit(run, terminal);
        Step::Done(back_at)
    }

    /// The host's behaviour panicked mid-step: take the node down as a
    /// crash does, and report the panic with the flight tail leading
    /// into it.
    pub(crate) fn panicked(mut self, run: &mut Run, message: String) -> PanicReport {
        // What the behaviour sent before it panicked has left the node.
        self.flush(&mut run.net);
        run.net.crash(self.node);
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
        net: Loopback,
        ks: &Arc<KeyStore>,
        end: Time,
    ) -> (NodeActor, Run, Receiver<RuntimeEvent>) {
        let (events, ev_rx) = std::sync::mpsc::channel();
        let mut run = Run {
            net,
            keystore: Arc::clone(ks),
            period: Duration::from_millis(10),
            end,
            pacer: Pacer::new(Instant::now(), 0.001),
            events,
            cfg: LiveConfig::new(1),
        };
        let actor = NodeActor::new(node, behavior, &run, Time::ZERO);
        actor.attach(&mut run);
        (actor, run, ev_rx)
    }

    /// Step a lone host until it is terminal.
    fn run(mut actor: NodeActor, run: &mut Run) -> NodeActor {
        while !matches!(actor.step(run), Step::Done(_)) {}
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
        let (mut net, ks) = harness(2);
        net.attach(NodeId(1), 64);
        let pinger = Box::new(Pinger { fired: 0 });
        let (actor, mut shared, ev_rx) = host(NodeId(0), pinger, net, &ks, Time::from_millis(2));
        let out = run(actor, &mut shared);
        assert_eq!(out.ctx.actuations.len(), 5);
        assert_eq!(out.ctx.actuations[0].at, Time(100));
        assert_eq!(out.ctx.actuations[4].at, Time(500));
        // All five sends reached node 1's mailbox with logical stamps.
        let mut got = 0;
        for m in shared.net.take(NodeId(1)) {
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
        let (actor, mut shared, ev_rx) = host(
            NodeId(0),
            Box::new(Actuator),
            net,
            &ks,
            Time::from_millis(10),
        );
        let actor = actor.with_crash(Time(50));
        let at = Time(50);
        // A self-send arrives at its send instant: parked for 50 µs.
        let env = Envelope::new(NodeId(0), NodeId(0), at, Payload::Control(1));
        assert_eq!(shared.net.send(NodeId(0), 1, at, env), Some(at));
        let out = run(actor, &mut shared);
        assert!(out.ctx.actuations.is_empty(), "{:?}", out.ctx.actuations);
        let marks: Vec<_> = out.ctx.marks.iter().map(|m| (m.phase, m.at)).collect();
        assert_eq!(marks, [(Phase::FaultActive, at)]);
        let evs: Vec<RuntimeEvent> = ev_rx.try_iter().collect();
        assert_eq!(
            evs.last().map(|e| (e.kind.clone(), e.logical)),
            Some((EventKind::Crashed, at))
        );
        // Post-crash, the network refuses traffic to the dead node.
        let env = Envelope::new(NodeId(1), NodeId(0), Time(60), Payload::Control(1));
        assert!(shared.net.send(NodeId(1), 1, Time(60), env).is_none());
    }
}
