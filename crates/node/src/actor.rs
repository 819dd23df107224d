//! The per-node actor: one OS thread running one `NodeBehavior`.
//!
//! Each node owns a logical clock, an agenda, and a mailbox, and holds
//! its [`Seat`] — skew, signer, RNG stream, derived as the simulator
//! derives them and lent to a `NodeCtx` per dispatch beside the
//! [`LiveCtx`] substrate. All *protocol-visible* time is logical —
//! envelope timestamps, timer deadlines, actuation stamps — so a
//! fault-free live run produces the same canonical actuation trace as
//! the discrete-event simulator, and the wall clock only determines how
//! long the run physically takes (and how real the measured recovery
//! latencies are).
//!
//! Two gates sit in front of every dispatch:
//!
//! * **Causal gate** (correctness): conservative parallel
//!   discrete-event execution in the Chandy–Misra–Bryant style. Each
//!   node publishes a frontier through the transport — a lower bound on
//!   the arrival time of anything it may still send, which is its next
//!   dispatchable instant plus the topology's minimum link delay
//!   (lookahead). A node dispatches an event at logical `t` only once
//!   every peer's frontier has passed `t`, so an OS thread descheduled
//!   for ten milliseconds delays the run but can never reorder it. The
//!   protocol's schedules pack producer-emit → consumer-slot gaps at
//!   microsecond scale, far below thread jitter; without this gate a
//!   live run misses inputs and hallucinates faults.
//! * **Wall gate** (pacing): logical `t` does not dispatch before wall
//!   instant `epoch + pace · t`, which is what makes measured recovery
//!   latencies real.
//!
//! Everything an actor has yet to dispatch sits in one agenda, ordered
//! `(logical time, class, tie)` with timers (class 0, ordered by arm
//! sequence) before parked messages (class 1, ordered by transport
//! `(sender, send seq)`); the causal gate admits timers at the frontier
//! bound (they win ties) and messages strictly below it. The simulator
//! orders same-instant events by global push sequence instead; the two
//! conventions only differ for exact logical-time ties, which the pinned
//! differential tests cover.

use crate::transport::{Gate, LiveMsg, Loopback, Port};
use btr_crypto::KeyStore;
use btr_model::{Duration, Envelope, NodeId, PeriodIdx, TaskId, Time, Value};
use btr_obs::{FlightKind, FlightRecorder, Histogram, Phase, PhaseMark, FLIGHT_CAP};
use btr_runtime::BtrNode;
use btr_sim::{Actuation, CtxBackend, NodeBehavior, NodeCtx, Scratch, Seat, TimerId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Maps logical time onto the shared wall clock: logical `t` µs may not
/// dispatch before `epoch + pace · t` µs of wall time. `pace` > 1 slows
/// the run down (more slack for scheduling jitter); it never changes
/// logical outcomes, only wall-clock fidelity.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    epoch: Instant,
    pace: f64,
}

impl Pacer {
    /// A pacer whose logical zero is `epoch`.
    pub fn new(epoch: Instant, pace: f64) -> Pacer {
        assert!(pace > 0.0, "pace must be positive");
        Pacer { epoch, pace }
    }

    /// The wall instant before which logical `at` must not dispatch.
    pub fn wall_for(&self, at: Time) -> Instant {
        let ns = at.as_micros() as f64 * self.pace * 1_000.0;
        self.epoch + std::time::Duration::from_nanos(ns as u64)
    }

    /// Wall µs elapsed since the logical-zero epoch (0 before it).
    pub fn elapsed_us(&self) -> u64 {
        Instant::now()
            .checked_duration_since(self.epoch)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0)
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
    /// The actor thread is up and `on_start` ran.
    Started,
    /// The actor reached the horizon and exited cleanly.
    Finished,
    /// The node fail-stopped (its thread is dying for real).
    Crashed,
    /// The node's runtime completed a mode switch (cumulative count).
    SwitchCompleted {
        /// The node's total switches so far.
        count: u64,
    },
    /// The behaviour panicked; the supervisor attributes and reports it.
    Panicked(String),
}

/// Agenda class of a timer: dispatches at the causal bound.
const TIMER: u64 = 0;
/// Agenda class of a parked message: dispatches strictly below the
/// bound (one still in flight could tie and order ahead by sender).
const MESSAGE: u64 = 1;

/// One thing an actor has yet to dispatch.
struct Due {
    /// `(at, class, a, b)`: an armed timer is `(due, TIMER, arm
    /// sequence, timer id)`, a parked message `(arrival, MESSAGE,
    /// sender, send sequence)`. Unique, so it alone orders the agenda.
    key: (Time, u64, u64, u64),
    /// The parked envelope (none for a timer).
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

/// Everything a live actor has yet to dispatch, in dispatch order:
/// same-instant timers fire in arm order — the simulator's global event
/// sequence restricted to one node — and before the instant's messages.
/// Timer ids are the runtime's opaque `u64` encodings, never
/// interpreted here.
#[derive(Default)]
struct Agenda {
    heap: BinaryHeap<Due>,
    armed: u64,
}

impl Agenda {
    fn arm(&mut self, at: Time, timer: TimerId) {
        self.armed += 1;
        self.heap.push(Due {
            key: (at, TIMER, self.armed, timer),
            env: None,
        });
    }

    fn park(&mut self, m: LiveMsg) {
        self.heap.push(Due {
            key: (m.at, MESSAGE, u64::from(m.from.0), m.seq),
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
/// [`CtxBackend`] a behaviour acts through when it runs on its own
/// thread. All it stamps is logical time, which is what makes the two
/// substrates trace-equivalent.
pub struct LiveCtx {
    node: NodeId,
    logical: Time,
    period: Duration,
    keystore: Arc<KeyStore>,
    port: Port,
    agenda: Agenda,
    actuations: Vec<Actuation>,
    crashed: bool,
    /// Observation switch: when off, `observe` is a no-op and the mark
    /// log stays empty (the live inertness tests flip this).
    obs: bool,
    marks: Vec<PhaseMark>,
}

impl LiveCtx {
    /// Build the substrate for `node`, whose logical clock starts at
    /// `start`.
    pub fn new(
        node: NodeId,
        period: Duration,
        keystore: Arc<KeyStore>,
        port: Port,
        start: Time,
    ) -> LiveCtx {
        LiveCtx {
            node,
            logical: start,
            period,
            keystore,
            port,
            agenda: Agenda::default(),
            actuations: Vec::new(),
            crashed: false,
            obs: true,
            marks: Vec::new(),
        }
    }

    /// Enable or disable phase-mark collection (on by default; marks
    /// are out-of-band either way, so this cannot change a run).
    pub fn set_obs(&mut self, on: bool) {
        self.obs = on;
    }

    /// The node this context belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's current logical time.
    pub fn logical(&self) -> Time {
        self.logical
    }

    /// True once the behaviour called `crash_self`.
    pub fn is_crashed(&self) -> bool {
        self.crashed
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

    fn crash_self(&mut self, _node: NodeId) {
        self.crashed = true;
        // Fault activation is a phase boundary: the recovery timeline
        // starts here (the simulator emits the same mark in its
        // control-action path).
        if self.obs {
            self.marks.push(PhaseMark {
                observer: self.node,
                subject: self.node,
                phase: Phase::FaultActive,
                at: self.logical,
            });
        }
    }

    fn observe(&mut self, mark: PhaseMark) {
        if self.obs {
            self.marks.push(mark);
        }
    }
}

/// What an actor thread hands back when it exits.
pub struct ActorOutcome {
    /// The node.
    pub node: NodeId,
    /// The behaviour, for post-run inspection (stats, plan, fault set).
    pub behavior: Box<dyn NodeBehavior + Send>,
    /// Every actuation the node performed, logically stamped.
    pub actuations: Vec<Actuation>,
    /// True if the node fail-stopped (vs. reaching the horizon).
    pub crashed: bool,
    /// Logical time the thread stopped dispatching.
    pub stopped_at: Time,
    /// Recovery-phase boundaries the node's runtime observed.
    pub marks: Vec<PhaseMark>,
    /// Causal-gate sleeps (the event at hand was not yet provably safe
    /// to dispatch and the node parked until woken).
    pub frontier_stalls: u64,
    /// Repeat folds: a message reached the mailbox after the drain —
    /// below the fold, or between the fold and the bound read.
    pub redrains: u64,
    /// Wall-clock lateness of timer dispatches past their paced
    /// instant, in µs (live-only: logically always 0).
    pub timer_lag: Histogram,
}

/// One node's event loop: behaviour + context + mailbox, run to a
/// logical horizon under a wall-clock pacer.
pub struct NodeActor {
    node: NodeId,
    behavior: Box<dyn NodeBehavior + Send>,
    seat: Seat,
    /// Scratch for the canonical bytes of what the node signs or
    /// verifies. No verification memo: this host has one node, and each
    /// envelope reaches it once.
    scratch: Scratch,
    ctx: LiveCtx,
    rx: Receiver<LiveMsg>,
    net: Loopback,
    last_switch_count: u64,
    /// Ring of the last few dispatches, shared with the supervisor so
    /// the tail survives even when this thread panics mid-dispatch.
    flight: Arc<Mutex<FlightRecorder>>,
    /// Logical downtime after which the supervisor restarts this node
    /// if it crashes (`ZERO`: it stays down).
    restart_after: Duration,
    frontier_stalls: u64,
    redrains: u64,
    timer_lag: Histogram,
}

/// The logical instant a node that crashed at `crashed_at` comes back,
/// if it does: the supervisor restarts only what returns inside the
/// horizon. The dying actor and the supervisor both decide by this.
pub(crate) fn restart_instant(
    crashed_at: Time,
    restart_after: Duration,
    end: Time,
) -> Option<Time> {
    let back_at = crashed_at + restart_after;
    (restart_after > Duration::ZERO && back_at < end).then_some(back_at)
}

impl NodeActor {
    /// Assemble an actor (does not start it; call [`NodeActor::run`] on
    /// its thread).
    pub fn new(
        node: NodeId,
        behavior: Box<dyn NodeBehavior + Send>,
        seat: Seat,
        ctx: LiveCtx,
        rx: Receiver<LiveMsg>,
        net: Loopback,
    ) -> NodeActor {
        NodeActor {
            node,
            behavior,
            seat,
            scratch: Scratch::for_node(),
            ctx,
            rx,
            net,
            last_switch_count: 0,
            flight: Arc::new(Mutex::new(FlightRecorder::new(FLIGHT_CAP))),
            restart_after: Duration::ZERO,
            frontier_stalls: 0,
            redrains: 0,
            timer_lag: Histogram::new(),
        }
    }

    /// Share an externally owned flight recorder (the supervisor holds
    /// the other handle, so the tail is readable after a panic).
    pub fn with_flight(mut self, flight: Arc<Mutex<FlightRecorder>>) -> NodeActor {
        self.flight = flight;
        self
    }

    /// This node will be restarted `after` a crash (see
    /// `restart_instant`): dying, it hands its frontier cell to the
    /// next incarnation instead of going terminal.
    pub fn with_restart(mut self, after: Duration) -> NodeActor {
        self.restart_after = after;
        self
    }

    /// The node this actor animates.
    pub fn node(&self) -> NodeId {
        self.node
    }

    fn record_flight(&self, at: Time, kind: FlightKind) {
        self.flight.lock().expect("flight lock").push(at, kind);
    }

    fn drain(&mut self) {
        while let Ok(m) = self.rx.try_recv() {
            self.ctx.agenda.park(m);
        }
    }

    fn emit(&self, events: &Sender<RuntimeEvent>, pacer: &Pacer, kind: EventKind) {
        // The supervisor may have stopped listening (deadline overrun
        // teardown); a dead event channel must not kill the actor.
        let _ = events.send(RuntimeEvent {
            node: self.node,
            logical: self.ctx.logical(),
            wall_us: pacer.elapsed_us(),
            kind,
        });
    }

    fn post_dispatch(&mut self, events: &Sender<RuntimeEvent>, pacer: &Pacer) {
        if let Some(b) = self
            .behavior
            .as_any()
            .and_then(|a| a.downcast_ref::<BtrNode>())
        {
            let count = b.switch_count();
            if count > self.last_switch_count {
                self.last_switch_count = count;
                self.record_flight(self.ctx.logical(), FlightKind::SwitchCompleted { count });
                self.emit(events, pacer, EventKind::SwitchCompleted { count });
            }
        }
    }

    /// Run the actor until logical `end` (inclusive, matching the
    /// simulator's `run_until`), a crash, or — for a behaviour armed with
    /// nothing — mailbox silence past the horizon. Emits `Started`, then
    /// `SwitchCompleted`s, then exactly one terminal `Finished`/`Crashed`
    /// event *before* returning, so the supervisor can join without a
    /// timeout once it has seen the terminal event.
    pub fn run(mut self, end: Time, pacer: Pacer, events: Sender<RuntimeEvent>) -> ActorOutcome {
        self.behavior.on_start(&mut NodeCtx::new(
            &mut self.seat,
            &mut self.scratch,
            &mut self.ctx,
            self.node,
        ));
        self.emit(&events, &pacer, EventKind::Started);
        self.record_flight(self.ctx.logical(), FlightKind::Start);
        self.net.attach_sleeper(self.node);
        let terminal = loop {
            if self.ctx.is_crashed() {
                break EventKind::Crashed;
            }
            self.drain();
            // Our anchor is the earliest event we could dispatch; `need`
            // is the causal bound that makes the step at hand safe: a
            // timer's instant, one past a message's (see the classes);
            // with nothing left inside the horizon we are done once
            // nothing can still arrive in it.
            let (anchor, need, due) = match self.ctx.agenda.peek() {
                Some((at, class)) if at <= end => (at, at + Duration(class), true),
                Some((at, _)) => (at, end + Duration(1), false),
                None => (Time(u64::MAX), end + Duration(1), false),
            };
            match self.net.gate(self.node, anchor, need) {
                Gate::Go => {}
                Gate::Redrain => {
                    self.redrains += 1;
                    continue;
                }
                Gate::Wait { .. } => {
                    self.frontier_stalls += u64::from(self.net.wait(self.node, need));
                    continue;
                }
            }
            if !due {
                break EventKind::Finished;
            }
            // Wall gate: park arrivals until the event's wall instant,
            // then re-select (a new arrival may precede the choice).
            let target = pacer.wall_for(anchor);
            let now = Instant::now();
            if now < target {
                match self.rx.recv_timeout(target - now) {
                    Ok(m) => self.ctx.agenda.park(m),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        let left = target.saturating_duration_since(Instant::now());
                        std::thread::sleep(left);
                    }
                }
                continue;
            }
            let Due { key, env } = self.ctx.agenda.pop().expect("peeked event");
            let (at, _, a, b) = key;
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
            self.record_flight(at, kind);
            self.ctx.logical = self.ctx.logical.max(at);
            let mut ctx = NodeCtx::new(&mut self.seat, &mut self.scratch, &mut self.ctx, self.node);
            match env {
                None => self.behavior.on_timer(&mut ctx, b),
                Some(env) => self.behavior.on_message(&mut ctx, env),
            }
            self.post_dispatch(&events, &pacer);
        };
        let crashed = matches!(terminal, EventKind::Crashed);
        if crashed {
            // Fail-stop for real: detach the mailbox and reroute around
            // this node before the thread dies.
            self.net.crash(self.node);
            self.record_flight(self.ctx.logical(), FlightKind::Crash);
        }
        match restart_instant(self.ctx.logical(), self.restart_after, end).filter(|_| crashed) {
            // Coming back: the cell goes straight to the restart instant.
            Some(back_at) => self.net.hand_off(self.node, back_at),
            // Terminal: this node will never send again, so no peer may
            // wait on it.
            None => self.net.set_terminal(self.node),
        }
        self.emit(&events, &pacer, terminal);
        ActorOutcome {
            node: self.node,
            behavior: self.behavior,
            actuations: std::mem::take(&mut self.ctx.actuations),
            crashed,
            stopped_at: self.ctx.logical(),
            marks: std::mem::take(&mut self.ctx.marks),
            frontier_stalls: self.frontier_stalls,
            redrains: self.redrains,
            timer_lag: self.timer_lag,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::mailbox;
    use btr_crypto::AuthSuite;
    use btr_model::{Payload, Topology};

    fn harness(n: usize) -> (Loopback, Arc<KeyStore>) {
        let topo = Topology::bus(n, 100_000, Duration(5));
        let net = Loopback::new(topo, 1, 0, Duration::from_millis(10));
        let ks = Arc::new(KeyStore::derive_suite(1, n, AuthSuite::default()));
        (net, ks)
    }

    fn ctx_for(node: NodeId, net: &Loopback, ks: &Arc<KeyStore>) -> LiveCtx {
        let period = Duration::from_millis(10);
        LiveCtx::new(node, period, Arc::clone(ks), net.port(node), Time::ZERO)
    }

    fn seat_for(node: NodeId) -> Seat {
        Seat::derive(1, node, AuthSuite::default())
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
        assert_eq!(agenda.peek(), Some((Time(40), MESSAGE)));
        let popped: Vec<_> = std::iter::from_fn(|| agenda.pop())
            .map(|d| (d.key, d.env.is_some()))
            .collect();
        assert_eq!(
            popped,
            [
                ((Time(40), MESSAGE, 3, 9), true),
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
        let (tx, rx) = mailbox(64);
        net.register(NodeId(0), tx);
        let (tx1, rx1) = mailbox(64);
        net.register(NodeId(1), tx1);
        // Node 1 has no actor in this test: release its causal frontier
        // so node 0's gate never waits on it.
        net.set_terminal(NodeId(1));
        let (ev_tx, ev_rx) = std::sync::mpsc::channel();
        let actor = NodeActor::new(
            NodeId(0),
            Box::new(Pinger { fired: 0 }),
            seat_for(NodeId(0)),
            ctx_for(NodeId(0), &net, &ks),
            rx,
            net.clone(),
        );
        let pacer = Pacer::new(Instant::now(), 0.001); // ~free-running
        let out = actor.run(Time::from_millis(2), pacer, ev_tx);
        assert!(!out.crashed);
        assert_eq!(out.actuations.len(), 5);
        assert_eq!(out.actuations[0].at, Time(100));
        assert_eq!(out.actuations[4].at, Time(500));
        // All five sends reached node 1's mailbox with logical stamps.
        let mut got = 0;
        while let Ok(m) = rx1.try_recv() {
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

    /// Crashes itself on the first timer.
    struct Suicidal;
    impl NodeBehavior for Suicidal {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(Duration(50), 1);
        }
        fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId) {
            ctx.crash_self();
        }
    }

    #[test]
    fn crash_is_terminal_and_detaches_mailbox() {
        let (net, ks) = harness(2);
        let (tx, rx) = mailbox(64);
        net.register(NodeId(0), tx);
        net.set_terminal(NodeId(1));
        let (ev_tx, ev_rx) = std::sync::mpsc::channel();
        let actor = NodeActor::new(
            NodeId(0),
            Box::new(Suicidal),
            seat_for(NodeId(0)),
            ctx_for(NodeId(0), &net, &ks),
            rx,
            net.clone(),
        );
        let out = actor.run(
            Time::from_millis(10),
            Pacer::new(Instant::now(), 0.001),
            ev_tx,
        );
        assert!(out.crashed);
        assert_eq!(out.stopped_at, Time(50));
        let evs: Vec<RuntimeEvent> = ev_rx.try_iter().collect();
        assert_eq!(evs.last().map(|e| e.kind.clone()), Some(EventKind::Crashed));
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
