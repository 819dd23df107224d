//! The simulation engine.

use crate::queue::{Event, EventQueue};
use crate::scratch::Scratch;
use crate::seat::Seat;
use crate::trace::{DropReason, SimMetrics, TraceEvent};
use crate::{NodeBehavior, TimerId};
use btr_crypto::{AuthSuite, KeyStore, SigError, Signature, Signer};
use btr_model::{
    Duration, Envelope, EvidenceFlaw, NodeId, Payload, PeriodIdx, ReplicaIdx, SignedOutput, TaskId,
    Time, Topology, Value,
};
use btr_net::{Network, Routes};
use btr_obs::{
    Counter, Histogram, Lat, ObsRecorder, Phase, PhaseMark, Profile, Recorder, Subsystem,
    COUNTER_KINDS,
};

/// Simulation-wide configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for keys, clock skews, and per-node RNG streams.
    pub seed: u64,
    /// The system period P (guardian refill interval).
    pub period: Duration,
    /// Collect a full event trace (adds memory; metrics are always on).
    pub trace: bool,
    /// Message-loss probability in parts per million (per message, or
    /// per shard when FEC is enabled).
    ///
    /// Section 2.1 assumes "losses are rare enough to be ignored" because
    /// link-level FEC masks transmission errors; without `fec` this is
    /// the *residual* post-FEC rate. Deterministic per (seed, sender):
    /// each sender rolls its own stream (`btr_net::Network`).
    pub loss_ppm: u32,
    /// Link-level forward error correction, as a loss model: `(k, m)`
    /// sends every message as k data + m parity shards, each rolled for
    /// loss on its own; the message survives any ≤ m shard losses, at a
    /// wire-byte overhead of (k+m)/k. With this on, `loss_ppm` applies
    /// per *shard*.
    pub fec: Option<(u8, u8)>,
    /// Hard cap on dispatched events (0 = unlimited). When a run exceeds
    /// the cap, [`World::run_until`] stops dispatching and the world is
    /// marked [`World::truncated`]. Campaign fleets use this as a safety
    /// valve so one pathological schedule (e.g. a message storm) cannot
    /// stall a worker thread; a truncated run is deterministic like any
    /// other, so the cap does not break reproducibility.
    pub max_events: u64,
    /// Which authenticator suite every node's `Signer` and the shared
    /// `KeyStore` use: HMAC-SHA-256 (default, the pinned baseline) or
    /// SipHash-2-4 128-bit tags (same unforgeability inside the
    /// simulation, a fraction of the CPU). Wire sizes are identical
    /// across suites, so two runs differing only in suite are
    /// bit-identical in everything but tag bytes.
    pub auth_suite: AuthSuite,
}

impl SimConfig {
    /// A config with sensible defaults for a 10 ms period system.
    pub fn new(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            period: Duration::from_millis(10),
            trace: false,
            loss_ppm: 0,
            fec: None,
            max_events: 0,
            auth_suite: AuthSuite::default(),
        }
    }
}

/// Scheduled control-plane interventions (the fault injector's lever).
#[derive(Clone, Copy)]
pub enum ControlAction {
    /// Fail-stop the node.
    Crash(NodeId),
}

impl std::fmt::Debug for ControlAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlAction::Crash(n) => write!(f, "Crash({n})"),
        }
    }
}

/// What one [`World::step`] dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stepped {
    /// The event's instant.
    pub at: Time,
    /// The node it was for.
    pub node: NodeId,
    /// What it was.
    pub kind: StepKind,
}

/// The kinds of event a [`World::step`] dispatches. A message or timer
/// for a node that is down when it pops reaches no behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// The node came up as a fresh incarnation ([`World::schedule_start`]).
    Start,
    /// The node crashed ([`ControlAction::Crash`]).
    Crash,
    /// One of the node's timers fired.
    Timer,
    /// A message arrived at the node.
    Message {
        /// The sender the envelope names.
        src: NodeId,
    },
}

/// One recorded sink actuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Actuation {
    /// When the actuator fired.
    pub at: Time,
    /// The actuating node.
    pub node: NodeId,
    /// The sink task.
    pub task: TaskId,
    /// The release period the value belongs to.
    pub period: PeriodIdx,
    /// The emitted value.
    pub value: Value,
}

/// Hot-path observability staging. Counters and latency samples
/// accumulate in these concrete fields — a branch plus an inlined
/// increment per fact when a recorder is installed, nothing when not —
/// and flush into the boxed recorder only when it is taken, keeping
/// virtual dispatch off the per-event path (it cost several percent of
/// hot-path wall time when every fact went through `dyn Recorder`).
/// Phase marks still go straight through: they are rare (a handful per
/// fault) and their observation order is worth keeping.
#[derive(Default)]
struct ObsScratch {
    counts: [u64; COUNTER_KINDS],
    delivery: Histogram,
    /// Per-subsystem cost profile: event counts always (when a recorder
    /// is installed), wall nanoseconds only under
    /// [`World::set_wall_profiling`].
    profile: Profile,
}

/// The simulated world: platform, network, node behaviours, event queue.
pub struct World {
    /// One seat per node, beside the substrate so that a dispatch can
    /// lend the node's seat and the substrate to one [`NodeCtx`].
    seats: Vec<Seat>,
    /// Room for canonical signing bytes (send + verify paths) and the
    /// memo of verified triples: one per world, lent to every dispatch,
    /// so a multicast is MAC-checked once per world.
    scratch: Scratch,
    sub: Substrate,
}

/// The world less its seats: what a [`NodeCtx`] acts on.
struct Substrate {
    cfg: SimConfig,
    /// Links, routes, loss, and which nodes are down (crashed).
    net: Network,
    /// Each node's behaviour (`None` while it is dispatching).
    behaviors: Vec<Option<Box<dyn NodeBehavior>>>,
    /// The behaviours of scheduled starts, by incarnation (`None` once
    /// started).
    incarnations: Vec<Option<Box<dyn NodeBehavior>>>,
    queue: EventQueue,
    now: Time,
    seq: u64,
    keystore: KeyStore,
    actuations: Vec<Actuation>,
    trace: Vec<TraceEvent>,
    metrics: SimMetrics,
    started: bool,
    truncated: bool,
    /// Out-of-band observability hook (`None` = off, the default).
    ///
    /// Strictly read-only with respect to the simulation: the recorder
    /// receives copies of facts and can never influence event order,
    /// RNG streams, or message bytes, so obs-on and obs-off runs are
    /// bit-identical (pinned by `tests/obs_inert.rs`).
    obs: Option<Box<dyn Recorder>>,
    /// Staged facts for the installed recorder (empty while `obs` is
    /// `None`; flushed and reset by [`World::take_recorder`]).
    obs_scratch: ObsScratch,
    /// Wall-sampling mode: scope the hot-path subsystems with
    /// `Instant::now()` and report the nanoseconds through the profile.
    /// Wall times are machine-dependent, so they are *never* part of the
    /// logical trace or any digest — reporting only. Requires a
    /// recorder; off by default (one predictable branch per scope).
    wall_prof: bool,
    /// Wall nanoseconds attributed to nested scopes inside the current
    /// enclosing scope (lets dispatch/control report *self* time so the
    /// per-subsystem walls stay disjoint and sum to ≤ end-to-end).
    wall_nested_ns: u64,
}

impl World {
    /// Build a world over a topology. All nodes start with the idle
    /// behaviour; install real ones with [`World::set_behavior`].
    pub fn new(topo: Topology, cfg: SimConfig) -> World {
        let n = topo.node_count();
        let keystore = KeyStore::derive_suite(cfg.seed, n, cfg.auth_suite);
        let seats = (0..n as u32)
            .map(|i| Seat::derive(cfg.seed, NodeId(i), cfg.auth_suite))
            .collect();
        let behaviors = (0..n)
            .map(|_| Some(Box::new(crate::IdleBehavior) as Box<dyn NodeBehavior>))
            .collect();
        World {
            seats,
            scratch: Scratch::default(),
            sub: Substrate {
                net: Network::new(topo, cfg.period, cfg.seed, cfg.loss_ppm, cfg.fec),
                cfg,
                behaviors,
                incarnations: Vec::new(),
                queue: EventQueue::for_nodes(n),
                now: Time::ZERO,
                seq: 0,
                keystore,
                actuations: Vec::new(),
                trace: Vec::new(),
                metrics: SimMetrics::default(),
                started: false,
                truncated: false,
                obs: None,
                obs_scratch: ObsScratch::default(),
                wall_prof: false,
                wall_nested_ns: 0,
            },
        }
    }

    /// Install an out-of-band recorder (histograms, counters, phase
    /// marks). Observation can never flow back into protocol state —
    /// see the field docs — so this is safe to enable on any run.
    pub fn set_recorder(&mut self, r: Box<dyn Recorder>) {
        // Flush staged facts into any outgoing recorder first so a swap
        // never leaks one observation window's counts into the next.
        let _ = self.take_recorder();
        self.sub.obs = Some(r);
    }

    /// Enable or disable wall-clock sampling of the hot-path subsystem
    /// scopes (routing, sign, verify, audit, dispatch, control). Wall
    /// times land in the profile's nanosecond ledger and are reported
    /// only — they never enter the logical trace or any digest, because
    /// they are machine- and load-dependent. Count profiles are always
    /// collected when a recorder is installed; this switch adds timing.
    pub fn set_wall_profiling(&mut self, on: bool) {
        self.sub.wall_prof = on;
    }

    /// Remove and return the installed recorder (to read its contents
    /// after a run). Staged hot-path facts are flushed into it here.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        let mut r = self.sub.obs.take()?;
        let s = std::mem::take(&mut self.sub.obs_scratch);
        for c in Counter::all() {
            let n = s.counts[c as usize];
            if n > 0 {
                r.count(c, n);
            }
        }
        if s.delivery.count() > 0 {
            r.latencies(Lat::Delivery, &s.delivery);
        }
        if !s.profile.is_empty() {
            r.profile(&s.profile);
        }
        Some(r)
    }

    /// [`World::take_recorder`] for the collecting [`ObsRecorder`]:
    /// hands it back by value (empty when none, or another kind of
    /// recorder, was installed).
    pub fn take_obs(&mut self) -> ObsRecorder {
        self.take_recorder()
            .and_then(|r| {
                r.as_any()
                    .and_then(|a| a.downcast_ref::<ObsRecorder>().cloned())
            })
            .unwrap_or_default()
    }

    /// Install a node's behaviour (before or after start).
    pub fn set_behavior(&mut self, node: NodeId, behavior: Box<dyn NodeBehavior>) {
        self.sub.behaviors[node.index()] = Some(behavior);
    }

    /// The platform topology.
    pub fn topology(&self) -> &Topology {
        self.sub.net.topology()
    }

    /// The shared verification keystore.
    pub fn keystore(&self) -> &KeyStore {
        &self.sub.keystore
    }

    /// The system period.
    pub fn period(&self) -> Duration {
        self.sub.cfg.period
    }

    /// Recorded actuations so far.
    pub fn actuations(&self) -> &[Actuation] {
        &self.sub.actuations
    }

    /// The run's canonical logical trace (the cross-substrate
    /// equivalence oracle; see [`crate::trace::LogicalTrace`]).
    pub fn logical_trace(&self) -> crate::trace::LogicalTrace {
        crate::trace::LogicalTrace::from_actuations(&self.sub.actuations)
    }

    /// Aggregate metrics.
    pub fn metrics(&self) -> &SimMetrics {
        &self.sub.metrics
    }

    /// The trace (empty unless `cfg.trace`).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.sub.trace
    }

    /// True if the node has crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.sub.net.is_down(node)
    }

    /// True if a run hit the `max_events` cap and stopped dispatching.
    pub fn truncated(&self) -> bool {
        self.sub.truncated
    }

    /// Heap bytes resident for routing state — O(n² · diameter) for the
    /// precomputed table, near-linear for the demand-driven rows (held
    /// under 3 MiB on the 1000-node torus by `btr-bench`'s tests).
    pub fn routing_resident_bytes(&self) -> usize {
        self.sub.net.routes().resident_bytes()
    }

    /// (routing rows built, how many of those healed a row a crash
    /// crossed) so far; zeros for the precomputed backend.
    pub fn routing_rows_built(&self) -> (u64, u64) {
        self.sub.net.routes().rows_built()
    }

    /// The selected routing backend ("precomputed" or "demand").
    pub fn routing_kind(&self) -> &'static str {
        self.sub.net.routes().kind()
    }

    /// Events currently queued (diagnostics).
    pub fn queued_events(&self) -> usize {
        self.sub.queue.len()
    }

    /// Envelopes parked in the event arena awaiting delivery. Must
    /// track the queued `Deliver` count exactly — a nonzero value after
    /// the queue drains would be an arena leak.
    pub fn envelopes_in_flight(&self) -> usize {
        self.sub.queue.envelopes_in_flight()
    }

    /// Pre-materialise routing state toward the given destinations (the
    /// plan-derived traffic matrix; see `WorldPlans::route_demand`). A
    /// no-op for the precomputed backend, which is always warm; purely a
    /// latency optimisation for the demand backend — rows are built
    /// deterministically on first use either way.
    pub fn warm_routes<I: IntoIterator<Item = NodeId>>(&mut self, dsts: I) {
        self.sub.net.warm_routes(dsts);
    }

    /// Borrow a node's behaviour for inspection (None while dispatching).
    pub fn behavior(&self, node: NodeId) -> Option<&dyn crate::NodeBehavior> {
        self.sub.behaviors[node.index()].as_deref()
    }

    /// Total guardian-denied bytes for a node across all links.
    pub fn guardian_drops(&self, node: NodeId) -> u64 {
        self.sub.net.guardian_drops(node)
    }

    /// Schedule a control action at an absolute time.
    pub fn schedule_control(&mut self, at: Time, action: ControlAction) {
        self.sub.push(at, Event::Control(action));
    }

    /// Bring `node` up at `at` as a fresh incarnation running
    /// `behavior`, and run its `on_start` there: a restart after a crash,
    /// or a first start on a host that starts its nodes one event at a
    /// time. Events of one instant pop in the order they were queued, so
    /// a start scheduled before [`World::start`] pops ahead of everything
    /// the nodes queue at its instant. The node is up in the network
    /// again from then on (routes go through it, and its loss stream goes
    /// on where it stopped); what arrives for it while it is down is lost.
    pub fn schedule_start(&mut self, at: Time, node: NodeId, behavior: Box<dyn NodeBehavior>) {
        let incarnation = self.sub.incarnations.len() as u32;
        self.sub.incarnations.push(Some(behavior));
        self.sub.push(at, Event::Start { node, incarnation });
    }

    /// Call `on_start` on every behaviour (in node-id order) and mark the
    /// world runnable.
    pub fn start(&mut self) {
        assert!(!self.sub.started, "world already started");
        self.sub.started = true;
        for i in 0..self.sub.behaviors.len() {
            self.dispatch_start(NodeId(i as u32));
        }
    }

    /// The instant of the next queued event, if any.
    pub fn next_at(&self) -> Option<Time> {
        self.sub.queue.next_at()
    }

    /// Dispatch the next event if it is due at or before `t`, and say
    /// what it was; `None` when nothing is, or when the run has reached
    /// `cfg.max_events` (then [`World::truncated`] turns true if an
    /// event was due: the cap is checked per event, so runs are still
    /// bit-deterministic).
    #[inline]
    pub fn step(&mut self, t: Time) -> Option<Stepped> {
        assert!(self.sub.started, "call start() first");
        if self.sub.cfg.max_events > 0 && self.sub.metrics.events >= self.sub.cfg.max_events {
            // Cut short only if another event would have dispatched: a
            // run that *finishes* with exactly `max_events` events must
            // not be flagged.
            if matches!(self.sub.queue.next_at(), Some(at) if at <= t) {
                self.sub.truncated = true;
            }
            return None;
        }
        let (at, event) = self.sub.queue.pop_due(t)?;
        self.sub.now = at;
        self.sub.metrics.events += 1;
        if self.sub.obs.is_some() {
            self.sub.obs_scratch.counts[Counter::Events as usize] += 1;
            self.sub.obs_scratch.profile.bump(Subsystem::Queue);
        }
        let (node, kind) = match event {
            Event::Deliver { dst, env } => {
                let src = env.src;
                self.dispatch_message(dst, env);
                (dst, StepKind::Message { src })
            }
            Event::Timer { node, timer } => {
                self.dispatch_timer(node, timer);
                (node, StepKind::Timer)
            }
            Event::Control(action) => {
                self.apply_control(action);
                let ControlAction::Crash(node) = action;
                (node, StepKind::Crash)
            }
            Event::Start { node, incarnation } => {
                let behavior = self.sub.incarnations[incarnation as usize].take();
                self.sub.behaviors[node.index()] = behavior;
                self.sub.net.set_down(node, false);
                self.dispatch_start(node);
                (node, StepKind::Start)
            }
        };
        Some(Stepped { at, node, kind })
    }

    /// Run until the queue is empty or `t` is reached, one
    /// [`World::step`] at a time; time advances to `t`.
    pub fn run_until(&mut self, t: Time) {
        while self.step(t).is_some() {}
        if t > self.sub.now {
            self.sub.now = t;
        }
    }

    fn apply_control(&mut self, action: ControlAction) {
        if self.sub.obs.is_some() {
            self.sub.obs_scratch.counts[Counter::Controls as usize] += 1;
            self.sub.obs_scratch.profile.bump(Subsystem::ModeSwitch);
        }
        let t0 = self.sub.wall_start();
        let nested0 = self.sub.wall_nested_ns;
        self.apply_control_inner(action);
        self.sub
            .wall_end_exclusive(Subsystem::ModeSwitch, t0, nested0);
    }

    fn apply_control_inner(&mut self, action: ControlAction) {
        match action {
            ControlAction::Crash(n) => self.sub.crash(n),
        }
    }

    /// Bind `node`'s seat, the world's scratch and the substrate into the
    /// context of one dispatch.
    fn ctx(&mut self, node: NodeId) -> NodeCtx<'_> {
        let seat = &mut self.seats[node.index()];
        NodeCtx::new(seat, &mut self.scratch, &mut self.sub, node)
    }

    fn dispatch_start(&mut self, node: NodeId) {
        if self.sub.net.is_down(node) {
            return;
        }
        let mut behavior = match self.sub.behaviors[node.index()].take() {
            Some(b) => b,
            None => return,
        };
        let mut ctx = self.ctx(node);
        behavior.on_start(&mut ctx);
        self.sub.behaviors[node.index()].get_or_insert(behavior);
    }

    fn dispatch_message(&mut self, dst: NodeId, env: Envelope) {
        if self.sub.net.is_down(dst) {
            self.sub
                .record_drop(env.src, dst, DropReason::ReceiverCrashed);
            return;
        }
        self.sub.metrics.msgs_delivered += 1;
        if self.sub.obs.is_some() {
            self.sub.obs_scratch.counts[Counter::Delivers as usize] += 1;
            self.sub.obs_scratch.profile.bump(Subsystem::Dispatch);
        }
        if self.sub.cfg.trace {
            self.sub.trace.push(TraceEvent::Delivered {
                at: self.sub.now,
                src: env.src,
                dst,
                label: env.payload.label(),
            });
        }
        let mut behavior = match self.sub.behaviors[dst.index()].take() {
            Some(b) => b,
            None => return,
        };
        let t0 = self.sub.wall_start();
        let nested0 = self.sub.wall_nested_ns;
        let mut ctx = self.ctx(dst);
        behavior.on_message(&mut ctx, env);
        self.sub
            .wall_end_exclusive(Subsystem::Dispatch, t0, nested0);
        self.sub.behaviors[dst.index()].get_or_insert(behavior);
    }

    fn dispatch_timer(&mut self, node: NodeId, timer: TimerId) {
        if self.sub.net.is_down(node) {
            return;
        }
        self.sub.metrics.timers += 1;
        if self.sub.obs.is_some() {
            self.sub.obs_scratch.counts[Counter::Timers as usize] += 1;
            self.sub.obs_scratch.profile.bump(Subsystem::Dispatch);
        }
        let mut behavior = match self.sub.behaviors[node.index()].take() {
            Some(b) => b,
            None => return,
        };
        let t0 = self.sub.wall_start();
        let nested0 = self.sub.wall_nested_ns;
        let mut ctx = self.ctx(node);
        behavior.on_timer(&mut ctx, timer);
        self.sub
            .wall_end_exclusive(Subsystem::Dispatch, t0, nested0);
        self.sub.behaviors[node.index()].get_or_insert(behavior);
    }
}

impl Substrate {
    /// Start a wall-sampling scope (None unless wall profiling is on
    /// and a recorder is installed).
    #[inline]
    fn wall_start(&self) -> Option<std::time::Instant> {
        if self.wall_prof && self.obs.is_some() {
            Some(std::time::Instant::now())
        } else {
            None
        }
    }

    /// Close a leaf wall-sampling scope: charge the subsystem and add
    /// the span to the enclosing scope's nested ledger.
    #[inline]
    fn wall_end(&mut self, s: Subsystem, t0: Option<std::time::Instant>) {
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.obs_scratch.profile.add_wall(s, ns);
            self.wall_nested_ns = self.wall_nested_ns.saturating_add(ns);
        }
    }

    /// Close an *enclosing* wall-sampling scope (dispatch, control):
    /// charge only the self time — elapsed minus whatever nested leaf
    /// scopes already claimed — so subsystem walls stay disjoint.
    #[inline]
    fn wall_end_exclusive(&mut self, s: Subsystem, t0: Option<std::time::Instant>, nested0: u64) {
        if let Some(t0) = t0 {
            let total = t0.elapsed().as_nanos() as u64;
            let nested = self.wall_nested_ns.saturating_sub(nested0);
            self.obs_scratch
                .profile
                .add_wall(s, total.saturating_sub(nested));
        }
    }

    /// Count one subsystem invocation (no-op without a recorder).
    #[inline]
    fn prof(&mut self, s: Subsystem) {
        if self.obs.is_some() {
            self.obs_scratch.profile.bump(s);
        }
    }

    fn push(&mut self, at: Time, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        if self.obs.is_some() {
            self.obs_scratch.profile.bump(Subsystem::Queue);
        }
        self.queue.push(at, seq, event);
    }

    /// Route and transmit an envelope from `src` through the world's
    /// [`Network`]. Returns the delivery time on success (mainly for
    /// tests; behaviours ignore it).
    ///
    /// This is the simulator's hottest function: one call per message. It
    /// performs no heap allocation — the network stages the route into a
    /// reusable hop buffer, and loss sampling is a few arithmetic ops per
    /// roll.
    fn transmit(&mut self, src: NodeId, env: Envelope) -> Option<Time> {
        let bytes = env.wire_size();
        let dst = env.dst;
        if self.net.is_down(src) {
            self.record_drop(src, dst, DropReason::SenderCrashed);
            return None;
        }
        if self.cfg.trace {
            self.trace.push(TraceEvent::Sent {
                at: self.now,
                src,
                dst,
                label: env.payload.label(),
                bytes,
            });
        }
        if src == dst {
            // Loopback: deliver immediately (no network traversal).
            self.metrics.msgs_sent += 1;
            if self.obs.is_some() {
                self.obs_scratch.counts[Counter::Sends as usize] += 1;
            }
            let at = self.now;
            self.push(at, Event::Deliver { dst, env });
            return Some(at);
        }

        self.prof(Subsystem::Routing);
        let route_t0 = self.wall_start();
        let routed = self.net.route(src, dst);
        self.wall_end(Subsystem::Routing, route_t0);
        let sent = routed.and_then(|()| self.net.transmit(self.now, src, bytes));
        self.metrics.bytes_sent = self.net.link_bytes();
        let t = match sent {
            Ok(t) => t,
            Err(reason) => {
                self.record_drop(src, dst, reason);
                return None;
            }
        };
        self.metrics.msgs_sent += 1;
        if self.obs.is_some() {
            self.obs_scratch.counts[Counter::Sends as usize] += 1;
            self.obs_scratch.delivery.record((t - self.now).as_micros());
        }
        self.push(t, Event::Deliver { dst, env });
        Some(t)
    }

    /// Fail-stop `node` by control action: it stops relaying, the
    /// fault's timeline starts, routes heal around it.
    fn crash(&mut self, node: NodeId) {
        if self.net.is_down(node) {
            return;
        }
        self.net.set_down(node, true);
        if self.cfg.trace {
            self.trace.push(TraceEvent::Crashed { at: self.now, node });
        }
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.mark(PhaseMark {
                observer: node,
                subject: node,
                phase: Phase::FaultActive,
                at: self.now,
            });
        }
    }

    fn record_drop(&mut self, src: NodeId, dst: NodeId, reason: DropReason) {
        match reason {
            DropReason::GuardianDenied => self.metrics.drops_guardian += 1,
            DropReason::ForwardRefused(_) => self.metrics.drops_forward += 1,
            _ => self.metrics.drops_other += 1,
        }
        if self.cfg.trace {
            self.trace.push(TraceEvent::Dropped {
                at: self.now,
                src,
                dst,
                reason,
            });
        }
    }
}

/// The substrate a [`NodeCtx`] acts on.
///
/// Node behaviours never touch this trait directly — they see the
/// concrete `NodeCtx` wrapper. The [`World`]'s substrate implements it,
/// whether the world runs free or under the live fleet's wall-clock
/// pacer (`btr_core::supervisor`), and so can a test's fake, to hold one
/// behaviour at an instant of its choosing.
///
/// This is the substrate's half of hosting a node — time, transport,
/// timers, actuators. A crash is not among them: the host applies a
/// scripted crash itself ([`ControlAction::Crash`]), so the protocol
/// cannot end its own node's run. The node's half (its clock, key and
/// RNG stream: the [`Seat`]) and everything done with it (stamping,
/// signing, verifying) is `NodeCtx`'s own. Methods take the acting node
/// explicitly: the id the dispatcher bound into the `NodeCtx`.
pub trait CtxBackend {
    /// Global time (simulation time, or the live runtime's logical clock).
    fn now(&self) -> Time;
    /// The system period.
    fn period(&self) -> Duration;
    /// The shared verification keystore.
    fn keystore(&self) -> &KeyStore;
    /// Transmit a pre-built envelope, charging `src`'s allocation.
    fn send_env(&mut self, src: NodeId, env: Envelope);
    /// Arm a timer for `node` at an absolute global time.
    fn set_timer_at(&mut self, node: NodeId, at: Time, timer: TimerId);
    /// Record a sink actuation by `node`.
    fn actuate(&mut self, node: NodeId, task: TaskId, period: PeriodIdx, value: Value);
    /// Observe a recovery-phase boundary (out-of-band).
    ///
    /// Defaults to a no-op so backends without an observability layer
    /// pay nothing. Implementations must treat the mark as write-only
    /// telemetry: nothing about it may flow back into protocol state,
    /// timing, or RNG streams — that is what keeps obs-on and obs-off
    /// runs bit-identical.
    fn observe(&mut self, _mark: PhaseMark) {}
    /// `NodeCtx` is about to do `n` operations' worth of `s` (sign for
    /// `n` envelopes, verify one): a substrate that profiles counts them
    /// and, if it samples wall time, starts the clock. Out-of-band like
    /// [`CtxBackend::observe`]; the default does nothing.
    fn scope_enter(&mut self, _s: Subsystem, _n: u64) -> Option<std::time::Instant> {
        None
    }
    /// Close the scope [`CtxBackend::scope_enter`] opened.
    fn scope_exit(&mut self, _s: Subsystem, _t0: Option<std::time::Instant>) {}
}

impl CtxBackend for Substrate {
    fn now(&self) -> Time {
        self.now
    }

    fn period(&self) -> Duration {
        self.cfg.period
    }

    fn keystore(&self) -> &KeyStore {
        &self.keystore
    }

    fn send_env(&mut self, src: NodeId, env: Envelope) {
        self.transmit(src, env);
    }

    fn set_timer_at(&mut self, node: NodeId, at: Time, timer: TimerId) {
        let at = at.max(self.now);
        self.push(at, Event::Timer { node, timer });
    }

    fn actuate(&mut self, node: NodeId, task: TaskId, period: PeriodIdx, value: Value) {
        self.metrics.actuations += 1;
        if self.obs.is_some() {
            self.obs_scratch.counts[Counter::Actuations as usize] += 1;
        }
        let a = Actuation {
            at: self.now,
            node,
            task,
            period,
            value,
        };
        self.actuations.push(a);
        if self.cfg.trace {
            self.trace.push(TraceEvent::Actuated {
                at: a.at,
                node: a.node,
                task: a.task,
                period: a.period,
                value: a.value,
            });
        }
    }

    fn observe(&mut self, mark: PhaseMark) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.mark(mark);
        }
    }

    fn scope_enter(&mut self, s: Subsystem, n: u64) -> Option<std::time::Instant> {
        if self.obs.is_some() {
            self.obs_scratch.profile.bump_n(s, n);
        }
        self.wall_start()
    }

    fn scope_exit(&mut self, s: Subsystem, t0: Option<std::time::Instant>) {
        self.wall_end(s, t0);
    }
}

/// The API a node behaviour uses to act on the world.
///
/// One node's [`Seat`] bound to a [`CtxBackend`] for one dispatch: the
/// world constructs one per dispatch (a test may bind one to a fake).
pub struct NodeCtx<'w> {
    seat: &'w mut Seat,
    /// Where the canonical bytes of what is signed or verified are laid
    /// out (the host's to reuse: signing allocates nothing), and what
    /// the host remembers having verified.
    scratch: &'w mut Scratch,
    backend: &'w mut dyn CtxBackend,
    node: NodeId,
}

impl<'w> NodeCtx<'w> {
    /// Bind a context for `node`, whose seat is `seat`, over a backend
    /// (used by dispatchers, not behaviours).
    pub fn new(
        seat: &'w mut Seat,
        scratch: &'w mut Scratch,
        backend: &'w mut dyn CtxBackend,
        node: NodeId,
    ) -> NodeCtx<'w> {
        NodeCtx {
            seat,
            scratch,
            backend,
            node,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Global simulation time. (The paper assumes synchronised clocks;
    /// use [`NodeCtx::local_now`] for the node's skewed local view.)
    pub fn now(&self) -> Time {
        self.backend.now()
    }

    /// The node's local clock reading (global time + bounded skew).
    pub fn local_now(&self) -> Time {
        self.seat.local(self.backend.now())
    }

    /// The system period.
    pub fn period(&self) -> Duration {
        self.backend.period()
    }

    /// This node's signer. Only the owning node can reach its signer —
    /// the key secrecy, enforced by construction, that makes evidence
    /// sound.
    pub fn signer(&self) -> &Signer {
        &self.seat.signer
    }

    /// The shared verification keystore.
    pub fn keystore(&self) -> &KeyStore {
        self.backend.keystore()
    }

    /// Sign and send a payload to `dst`.
    pub fn send(&mut self, dst: NodeId, payload: Payload) {
        self.send_many(&[dst], payload);
    }

    /// Sign a payload once and send a copy to each of `dsts`, in order
    /// (a destination may repeat). An envelope signature does not cover
    /// the destination, so every copy carries the tag a [`NodeCtx::send`]
    /// of its own would have given it, for one MAC — the only one the
    /// host computes for it, if its memo is armed (see
    /// [`NodeCtx::sign_output`]).
    pub fn send_many(&mut self, dsts: &[NodeId], payload: Payload) {
        let Some((&last, rest)) = dsts.split_last() else {
            return;
        };
        // One signed envelope per destination is what a profile counts.
        let t0 = self
            .backend
            .scope_enter(Subsystem::CryptoSign, dsts.len() as u64);
        let (src, sent_at) = (self.node, self.local_now());
        if !rest.is_empty() {
            self.scratch.saw_multicast();
        }
        let buf = &mut self.scratch.buf;
        let sig = Envelope::sign_parts(&self.seat.signer, src, sent_at, &payload, buf);
        self.scratch
            .signed(self.backend.keystore(), &self.seat.signer, &sig);
        self.backend.scope_exit(Subsystem::CryptoSign, t0);
        let env = Envelope {
            src,
            dst: last,
            sent_at,
            payload,
            sig: Some(sig),
        };
        // Transmitted in the caller's order, so the sender's loss stream
        // and the event queue see what a `send` per destination gives them.
        for &dst in rest {
            self.backend.send_env(src, Envelope { dst, ..env.clone() });
        }
        self.backend.send_env(src, env);
    }

    /// Verify an envelope signature using the host's scratch: what
    /// `env.verify(ctx.keystore())` returns, without the per-call
    /// allocation, and without the MAC when this host has already
    /// verified the very same key id, tag and signing bytes (another
    /// receiver's copy of a multicast; see DESIGN.md "Hosting a node").
    pub fn verify_env(&mut self, env: &Envelope) -> Result<(), SigError> {
        let t0 = self.backend.scope_enter(Subsystem::CryptoVerify, 1);
        let (Scratch { buf, memo, .. }, ks) = (&mut *self.scratch, self.backend.keystore());
        let r = env.verify_by(buf, |sig, msg| memo.verify(ks, sig, msg));
        self.backend.scope_exit(Subsystem::CryptoVerify, t0);
        r
    }

    /// Verify a signed task output using the host's scratch (what
    /// `output.verify(ctx.keystore())` returns, as [`NodeCtx::verify_env`]
    /// does it).
    pub fn verify_output(&mut self, output: &SignedOutput) -> Result<(), EvidenceFlaw> {
        let t0 = self.backend.scope_enter(Subsystem::Audit, 1);
        let (memo, ks) = (&mut self.scratch.memo, self.backend.keystore());
        let r = output.verify_by(|sig, msg| memo.verify(ks, sig, msg));
        self.backend.scope_exit(Subsystem::Audit, t0);
        r
    }

    /// Sign a task output as this node: what
    /// `SignedOutput::sign(ctx.signer(), …)` returns, laid out in the
    /// host's scratch. On a host whose memo is armed the triple is
    /// remembered as it is signed, so that this host's receivers of the
    /// output — consumers, checkers, a detector reading it as a witness —
    /// spend no MAC on it (DESIGN.md "The host's verification memo").
    pub fn sign_output(
        &mut self,
        task: TaskId,
        replica: ReplicaIdx,
        period: PeriodIdx,
        value: Value,
        inputs_digest: u64,
        producer: NodeId,
    ) -> SignedOutput {
        let signer = &self.seat.signer;
        let output = SignedOutput::sign_with(
            signer,
            task,
            replica,
            period,
            value,
            inputs_digest,
            producer,
            &mut self.scratch.buf,
        );
        self.scratch
            .signed(self.backend.keystore(), signer, &output.sig);
        output
    }

    /// What this node's detector checks signed records with, lent beside
    /// the node's signer (for the declarations it raises): the keystore's
    /// verdicts, behind the host's memo as in [`NodeCtx::verify_output`],
    /// but with no profile scope of its own.
    pub fn verifier(
        &mut self,
    ) -> (
        impl FnMut(&Signature, &[u8]) -> Result<(), SigError> + '_,
        &Signer,
    ) {
        let (memo, ks) = (&mut self.scratch.memo, self.backend.keystore());
        (
            move |sig: &Signature, msg: &[u8]| memo.verify(ks, sig, msg),
            &self.seat.signer,
        )
    }

    /// Send an arbitrary envelope (Byzantine behaviours use this to spoof
    /// headers or send unsigned traffic). The network still charges the
    /// *actual* sender's bandwidth allocation.
    pub fn send_env(&mut self, env: Envelope) {
        self.backend.send_env(self.node, env);
    }

    /// Set a timer to fire after `delay` (global time base).
    pub fn set_timer(&mut self, delay: Duration, timer: TimerId) {
        let at = self.backend.now() + delay;
        self.backend.set_timer_at(self.node, at, timer);
    }

    /// Set a timer to fire at an absolute global time (clamped to now).
    pub fn set_timer_at(&mut self, at: Time, timer: TimerId) {
        self.backend.set_timer_at(self.node, at, timer);
    }

    /// Record a sink actuation (an output to the physical world).
    pub fn actuate(&mut self, task: TaskId, period: PeriodIdx, value: Value) {
        self.backend.actuate(self.node, task, period, value);
    }

    /// Observe a recovery-phase boundary concerning `subject`, as seen
    /// by this node at the current global time. Write-only telemetry:
    /// a no-op unless the backend has a recorder installed, and inert
    /// with respect to protocol state either way.
    pub fn observe(&mut self, phase: Phase, subject: NodeId) {
        let at = self.backend.now();
        self.backend.observe(PhaseMark {
            observer: self.node,
            subject,
            phase,
            at,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_crypto::Signature;
    use btr_model::Payload;

    /// Echoes every control message back to its (claimed) source.
    struct Echo;
    impl NodeBehavior for Echo {
        fn on_start(&mut self, _ctx: &mut NodeCtx<'_>) {}
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
            if let Payload::Control(tag) = env.payload {
                if tag < 10 {
                    ctx.send(env.src, Payload::Control(tag + 1));
                }
            }
        }
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _t: TimerId) {}
    }

    /// Sends one message to node 1 at start, records deliveries.
    struct Starter {
        sent: bool,
    }
    impl NodeBehavior for Starter {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if !self.sent {
                ctx.send(NodeId(1), Payload::Control(0));
                self.sent = true;
            }
        }
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
            if let Payload::Control(tag) = env.payload {
                if tag < 10 {
                    ctx.send(env.src, Payload::Control(tag + 1));
                }
            }
        }
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _t: TimerId) {}
    }

    fn world(n: usize) -> World {
        let topo = Topology::bus(n, 10_000, Duration(10));
        let mut cfg = SimConfig::new(1);
        cfg.trace = true;
        World::new(topo, cfg)
    }

    #[test]
    fn ping_pong_until_ttl() {
        let mut w = world(2);
        w.set_behavior(NodeId(0), Box::new(Starter { sent: false }));
        w.set_behavior(NodeId(1), Box::new(Echo));
        w.start();
        w.run_until(Time::from_millis(100));
        // Tags 0..=10 = 11 messages.
        assert_eq!(w.metrics().msgs_sent, 11);
        assert_eq!(w.metrics().msgs_delivered, 11);
    }

    #[test]
    fn determinism_same_seed() {
        let run = || {
            let mut w = world(4);
            w.set_behavior(NodeId(0), Box::new(Starter { sent: false }));
            w.set_behavior(NodeId(1), Box::new(Echo));
            w.start();
            w.run_until(Time::from_millis(50));
            (*w.metrics(), w.trace().to_vec())
        };
        let (m1, t1) = run();
        let (m2, t2) = run();
        assert_eq!(m1, m2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn crash_stops_node() {
        let mut w = world(2);
        w.set_behavior(NodeId(0), Box::new(Starter { sent: false }));
        w.set_behavior(NodeId(1), Box::new(Echo));
        w.schedule_control(Time(0), ControlAction::Crash(NodeId(1)));
        w.start();
        w.run_until(Time::from_millis(10));
        // The starter's message is dropped at the crashed receiver.
        assert_eq!(w.metrics().msgs_delivered, 0);
        assert!(w.is_crashed(NodeId(1)));
        assert!(w.trace().iter().any(|e| matches!(
            e,
            TraceEvent::Dropped {
                reason: DropReason::ReceiverCrashed,
                ..
            }
        )));
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerChain {
            fired: Vec<TimerId>,
        }
        impl NodeBehavior for TimerChain {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(Duration(300), 3);
                ctx.set_timer(Duration(100), 1);
                ctx.set_timer(Duration(200), 2);
            }
            fn on_message(&mut self, _c: &mut NodeCtx<'_>, _e: Envelope) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, t: TimerId) {
                self.fired.push(t);
                if t == 1 {
                    ctx.actuate(TaskId(0), 0, t);
                }
            }
        }
        let mut w = world(1);
        w.set_behavior(NodeId(0), Box::new(TimerChain { fired: vec![] }));
        w.start();
        w.run_until(Time::from_millis(1));
        assert_eq!(w.metrics().timers, 3);
        assert_eq!(w.actuations().len(), 1);
        assert_eq!(w.actuations()[0].value, 1);
    }

    #[test]
    fn local_clock_skew_is_bounded() {
        let topo = Topology::bus(8, 10_000, Duration(10));
        let w = World::new(topo, SimConfig::new(3));
        for i in 0..8 {
            let off = w.seats[i].clock_offset;
            assert!(
                off.unsigned_abs() <= crate::seat::MAX_CLOCK_SKEW.as_micros(),
                "node {i} skew {off}"
            );
        }
    }

    /// Multicasts a payload per timer to a list that repeats one
    /// destination and skips others, as one `send_many` or as the `send`
    /// loop it stands for; node 2 sends on its own in between.
    struct Caster {
        many: bool,
        round: u64,
    }
    impl NodeBehavior for Caster {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(Duration(100), 0);
        }
        fn on_message(&mut self, _c: &mut NodeCtx<'_>, _e: Envelope) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, t: TimerId) {
            let dsts = [NodeId(1), NodeId(4), NodeId(2), NodeId(4), NodeId(5)];
            let payload = Payload::Heartbeat { period: self.round };
            if ctx.id() == NodeId(2) {
                ctx.send(NodeId(4), payload);
            } else if self.many {
                ctx.send_many(&dsts, payload);
                ctx.send_many(&[], Payload::Control(0));
            } else {
                for dst in dsts {
                    ctx.send(dst, payload.clone());
                }
            }
            self.round += 1;
            if self.round < 40 {
                ctx.set_timer(Duration(150), t);
            }
        }
    }

    /// Keeps every envelope it is handed and actuates on its tag, so the
    /// logical trace covers who got what, signed how, and when.
    #[derive(Default)]
    struct Keeper {
        got: Vec<Envelope>,
    }
    impl NodeBehavior for Keeper {
        fn on_start(&mut self, _c: &mut NodeCtx<'_>) {}
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
            assert!(ctx.verify_env(&env).is_ok());
            let tag = env.sig.expect("signed").tag.0;
            let value = u64::from_be_bytes(tag[..8].try_into().unwrap());
            ctx.actuate(TaskId(env.src.0), self.got.len() as u64, value);
            self.got.push(env);
        }
        fn on_timer(&mut self, _c: &mut NodeCtx<'_>, _t: TimerId) {}
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }

    #[test]
    fn send_many_is_the_send_loop_with_one_signature() {
        // Lossy links with FEC: every copy draws six loss rolls from its
        // sender's stream, so a reordered or skipped transmission would
        // shift every later verdict of that sender.
        let run = |many: bool| {
            let mut cfg = SimConfig::new(11);
            cfg.trace = true;
            cfg.loss_ppm = 250_000;
            cfg.fec = Some((4, 2));
            let mut w = World::new(Topology::ring(6, 50_000, Duration(10)), cfg);
            w.set_recorder(Box::new(ObsRecorder::new()));
            for n in [0, 2, 3] {
                w.set_behavior(NodeId(n), Box::new(Caster { many, round: 0 }));
            }
            for n in [1, 4, 5] {
                w.set_behavior(NodeId(n), Box::new(Keeper::default()));
            }
            w.start();
            let macs_before = btr_crypto::mac_count();
            w.run_until(Time::from_millis(20));
            let macs = btr_crypto::mac_count() - macs_before;
            let got: Vec<Vec<Envelope>> = [1, 4, 5]
                .iter()
                .map(|&n| {
                    let b = w.behavior(NodeId(n)).and_then(|b| b.as_any());
                    b.and_then(|a| a.downcast_ref::<Keeper>())
                        .expect("keeper")
                        .got
                        .clone()
                })
                .collect();
            let rec = w.take_obs();
            let p = rec.subsystem_profile();
            let counts: Vec<u64> = Subsystem::all().iter().map(|&s| p.count(s)).collect();
            (
                got,
                w.logical_trace().digest(),
                *w.metrics(),
                w.trace().to_vec(),
                counts,
                macs,
            )
        };
        let (looped, many) = (run(false), run(true));
        assert!(looped.0.iter().all(|g| !g.is_empty()), "nothing delivered");
        assert!(looped.2.drops_other > 0, "no loss exercised");
        assert_eq!(looped.0, many.0, "envelopes (tags included)");
        assert_eq!(looped.1, many.1, "logical trace digest");
        assert_eq!(looped.2, many.2, "metrics");
        assert_eq!(looped.3, many.3, "event trace");
        assert_eq!(
            looped.4, many.4,
            "count profile (signed envelopes, not MACs)"
        );
        // Two casters x 40 rounds x 5 copies, plus node 2's 40 sends:
        // the loop signs every copy and — no multicast ever arming the
        // world's memo — MAC-checks every delivery; `send_many` signs a
        // round once, and no keeper computes a tag again: node 0's first
        // round arms the memo before anything is signed, and from then
        // on every tag is remembered as it is signed.
        let delivered: Vec<&Envelope> = many.0.iter().flatten().collect();
        let distinct: std::collections::BTreeSet<_> =
            delivered.iter().map(|e| e.sig.unwrap().tag.0).collect();
        assert!(distinct.len() < delivered.len());
        assert_eq!(looped.5, (2 * 40 * 5 + 40) + delivered.len() as u64);
        assert_eq!(many.5, 2 * 40 + 40);
        // ...while a profile still counts a verification per delivery.
        let verify = Subsystem::all()
            .iter()
            .position(|&s| s == Subsystem::CryptoVerify)
            .unwrap();
        assert_eq!(many.4[verify], delivered.len() as u64);

        // The same on the smallest case: one round to eight receivers
        // costs one MAC world-wide.
        struct Round;
        impl NodeBehavior for Round {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                let peers: Vec<NodeId> = (1..9).map(NodeId).collect();
                ctx.send_many(&peers, Payload::Heartbeat { period: 3 });
            }
            fn on_message(&mut self, _c: &mut NodeCtx<'_>, _e: Envelope) {}
            fn on_timer(&mut self, _c: &mut NodeCtx<'_>, _t: TimerId) {}
        }
        let mut w = world(9);
        w.set_recorder(Box::new(ObsRecorder::new()));
        w.set_behavior(NodeId(0), Box::new(Round));
        for n in 1..9 {
            w.set_behavior(NodeId(n), Box::new(Keeper::default()));
        }
        let macs_before = btr_crypto::mac_count();
        w.start();
        w.run_until(Time::from_millis(10));
        // One to sign; all eight receivers find the triple the signature
        // left in the memo (it was two when the first receiver checked
        // the tag, nine when every receiver did).
        assert_eq!(btr_crypto::mac_count() - macs_before, 1);
        assert_eq!(w.actuations().len(), 8, "every receiver verified its copy");
        let rec = w.take_obs();
        let profile = rec.subsystem_profile();
        assert_eq!(profile.count(Subsystem::CryptoVerify), 8);
        assert_eq!(profile.count(Subsystem::CryptoSign), 8);
    }

    #[test]
    fn signed_send_verifies_at_receiver() {
        struct Verify {
            ok: bool,
        }
        impl NodeBehavior for Verify {
            fn on_start(&mut self, _c: &mut NodeCtx<'_>) {}
            fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
                self.ok = env.verify(ctx.keystore()).is_ok();
                ctx.actuate(TaskId(9), 0, self.ok as u64);
            }
            fn on_timer(&mut self, _c: &mut NodeCtx<'_>, _t: TimerId) {}
        }
        let mut w = world(2);
        w.set_behavior(NodeId(0), Box::new(Starter { sent: false }));
        w.set_behavior(NodeId(1), Box::new(Verify { ok: false }));
        w.start();
        w.run_until(Time::from_millis(10));
        assert_eq!(w.actuations()[0].value, 1, "signature must verify");
    }

    #[test]
    fn siphash_suite_signs_and_verifies_end_to_end() {
        struct Verify;
        impl NodeBehavior for Verify {
            fn on_start(&mut self, _c: &mut NodeCtx<'_>) {}
            fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
                let ok = ctx.verify_env(&env).is_ok();
                ctx.actuate(TaskId(9), 0, ok as u64);
            }
            fn on_timer(&mut self, _c: &mut NodeCtx<'_>, _t: TimerId) {}
        }
        let topo = Topology::bus(2, 10_000, Duration(10));
        let mut cfg = SimConfig::new(1);
        cfg.auth_suite = AuthSuite::SipHash24;
        let mut w = World::new(topo, cfg);
        assert_eq!(w.sub.cfg.auth_suite, AuthSuite::SipHash24);
        assert_eq!(w.keystore().suite(), AuthSuite::SipHash24);
        w.set_behavior(NodeId(0), Box::new(Starter { sent: false }));
        w.set_behavior(NodeId(1), Box::new(Verify));
        w.start();
        w.run_until(Time::from_millis(10));
        assert_eq!(w.actuations()[0].value, 1, "sip tag must verify");
    }

    #[test]
    fn spoofed_envelope_fails_verification() {
        struct Spoof;
        impl NodeBehavior for Spoof {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                // Claim to be node 2 without node 2's key.
                let env = Envelope::new(NodeId(2), NodeId(1), ctx.now(), Payload::Control(9));
                ctx.send_env(env);
            }
            fn on_message(&mut self, ctx: &mut NodeCtx<'_>, genuine: Envelope) {
                // Having seen what node 2 really sent: the same claim
                // again, unsigned, and node 2's tag on another payload.
                let unsigned = Envelope::new(
                    genuine.src,
                    NodeId(1),
                    genuine.sent_at,
                    genuine.payload.clone(),
                );
                ctx.send_env(unsigned);
                ctx.send_env(Envelope {
                    dst: NodeId(1),
                    payload: Payload::Control(8),
                    ..genuine
                });
            }
            fn on_timer(&mut self, _c: &mut NodeCtx<'_>, _t: TimerId) {}
        }
        /// Node 2 itself: one multicast, to the checker and the spoofer.
        struct Genuine;
        impl NodeBehavior for Genuine {
            fn on_start(&mut self, _c: &mut NodeCtx<'_>) {}
            fn on_message(&mut self, _c: &mut NodeCtx<'_>, _e: Envelope) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _t: TimerId) {
                ctx.send_many(&[NodeId(1), NodeId(0)], Payload::Control(9));
            }
        }
        struct Check;
        impl NodeBehavior for Check {
            fn on_start(&mut self, _c: &mut NodeCtx<'_>) {}
            fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
                let ok = ctx.verify_env(&env).is_ok();
                assert_eq!(ok, env.verify(ctx.keystore()).is_ok());
                ctx.actuate(TaskId(0), 0, ok as u64);
            }
            fn on_timer(&mut self, _c: &mut NodeCtx<'_>, _t: TimerId) {}
        }
        let mut w = world(3);
        w.set_behavior(NodeId(0), Box::new(Spoof));
        w.set_behavior(NodeId(1), Box::new(Check));
        w.set_behavior(NodeId(2), Box::new(Genuine));
        w.start();
        w.run_until(Time::from_millis(10));
        assert_eq!(w.actuations()[0].value, 0, "spoof must fail verification");
        // Again with the genuine copy verified first, by the checker and
        // by the spoofer, so that the world's memo holds it.
        w.sub.set_timer_at(NodeId(2), Time::from_millis(11), 0);
        w.run_until(Time::from_millis(20));
        let verdicts: Vec<Value> = w.actuations()[1..].iter().map(|a| a.value).collect();
        assert_eq!(verdicts, [1, 0, 0], "genuine, then two spoofs of it");
    }

    /// `n` witnesses for an output payload (never verified: an envelope
    /// signature covers their bytes, not their validity).
    fn filler(n: usize) -> Vec<SignedOutput> {
        let sig = Signature {
            key: 3,
            tag: btr_crypto::Digest([7; 32]),
        };
        (0..n as u64)
            .map(|i| SignedOutput {
                task: TaskId(1),
                replica: 0,
                period: i,
                value: i,
                inputs_digest: 0,
                producer: NodeId(3),
                sig,
            })
            .collect()
    }

    proptest::proptest! {
        /// A hit is exact. With the memo armed and holding genuine
        /// envelopes and outputs — two of each it verified, one of each
        /// a node of its own signed — every tampered sibling of one — a
        /// payload byte, the send time, the source, a tag lifted from
        /// another, another key id under the same tag, no signature —
        /// gets from the host what a cold verification returns, the first
        /// time and the second (a failure is never remembered, and costs
        /// its MAC each time); and so does an envelope too long to be
        /// remembered, signed here or not.
        #[test]
        fn prop_warm_memo_answers_as_a_cold_verify(
            (seed, suite) in (0u64..1_000, 0usize..2),
            (bit, witnesses, at) in (0u32..64, 0usize..4, 0u64..1_000_000),
        ) {
            let mut cfg = SimConfig::new(seed);
            cfg.auth_suite = AuthSuite::ALL[suite];
            let mut w = World::new(Topology::bus(4, 10_000, Duration(10)), cfg);
            // The first multicast arms the memo.
            w.ctx(NodeId(0)).send_many(&[NodeId(1), NodeId(2)], Payload::Control(0));
            let ks = w.keystore().clone();
            let out = |w: &World, node: u32, period: u64, value: Value| {
                let signer = &w.seats[node as usize].signer;
                SignedOutput::sign(signer, TaskId(2), 1, period, value, 9, NodeId(node))
            };
            let carrying = |o: &SignedOutput| Payload::Output { output: o.clone(), witnesses: filler(witnesses) };
            let (o1, o2) = (out(&w, 1, 5, 1 << bit), out(&w, 2, 5, 77));
            let e1 = Envelope::new(NodeId(1), NodeId(3), Time(at), carrying(&o1))
                .signed(&w.seats[1].signer);
            let e2 = Envelope::new(NodeId(2), NodeId(3), Time(at), Payload::Heartbeat { period: at })
                .signed(&w.seats[2].signer);
            // Signed on this host: the memo takes each triple as its tag
            // is computed.
            let o3 = w.ctx(NodeId(1)).sign_output(TaskId(2), 1, 6, 1 << bit, 9, NodeId(1));
            proptest::prop_assert_eq!(&o3, &out(&w, 1, 6, 1 << bit));
            w.ctx(NodeId(1)).send(NodeId(3), carrying(&o3));
            let e3 = Envelope::new(NodeId(1), NodeId(3), w.seats[1].local(w.sub.now), carrying(&o3))
                .signed(&w.seats[1].signer);
            // Warm: a MAC each the first time, none the second; none ever
            // for what was signed here.
            let mut ctx = w.ctx(NodeId(3));
            for pass in 0..2 {
                let macs = btr_crypto::mac_count();
                proptest::prop_assert_eq!(ctx.verify_env(&e1), Ok(()));
                proptest::prop_assert_eq!(ctx.verify_env(&e2), Ok(()));
                proptest::prop_assert_eq!(ctx.verify_output(&o1), Ok(()));
                proptest::prop_assert_eq!(ctx.verify_output(&o2), Ok(()));
                proptest::prop_assert_eq!(btr_crypto::mac_count() - macs, [4, 0][pass]);
                let macs = btr_crypto::mac_count();
                proptest::prop_assert_eq!(ctx.verify_env(&e3), Ok(()));
                proptest::prop_assert_eq!(ctx.verify_output(&o3), Ok(()));
                proptest::prop_assert_eq!(btr_crypto::mac_count() - macs, 0);
            }

            let other = e2.sig.unwrap();
            for (genuine, o) in [(&e1, &o1), (&e3, &o3)] {
                let sig = genuine.sig.unwrap();
                let mut envs = vec![genuine.clone(); 8];
                if let Payload::Output { output, witnesses } = &mut envs[0].payload {
                    match witnesses.last_mut() {
                        Some(w) => w.value ^= 1 << bit,
                        None => output.value ^= 1 << bit,
                    }
                }
                envs[1].sent_at = Time(genuine.sent_at.0 ^ (1 << (bit % 20)));
                envs[2].src = NodeId(2);
                (envs[3].src, envs[3].sig) = (NodeId(2), Some(Signature { key: 2, ..sig }));
                envs[4].sig = Some(Signature { tag: other.tag, ..sig });
                envs[5].sig = Some(Signature { key: 2, ..sig });
                envs[6].sig = None;
                envs[7].payload = e2.payload.clone();
                let mut flipped = sig;
                flipped.tag.0[(bit % 32) as usize] ^= 1 << (bit % 8);
                envs.push(Envelope { sig: Some(flipped), ..genuine.clone() });
                for (i, env) in envs.iter().enumerate() {
                    let cold = env.verify(&ks);
                    proptest::prop_assert!(cold.is_err(), "sibling {i} is a forgery");
                    // The attribution gate refuses some before any MAC.
                    let gated = env.sig.is_none_or(|s| s.key != env.src.0);
                    for _ in 0..2 {
                        let macs = btr_crypto::mac_count();
                        proptest::prop_assert!(ctx.verify_env(env) == cold, "sibling {i}");
                        proptest::prop_assert_eq!(btr_crypto::mac_count() - macs, u64::from(!gated));
                    }
                }

                let mut outs = vec![o.clone(); 9];
                outs[0].task = TaskId(3);
                outs[1].replica = 0;
                outs[2].period ^= 1 << bit;
                outs[3].value ^= 1;
                outs[4].inputs_digest ^= 1 << bit;
                outs[5].producer = NodeId(2);
                (outs[6].producer, outs[6].sig.key) = (NodeId(2), 2);
                outs[7].sig.tag = o2.sig.tag;
                outs[8].sig.tag.0[(bit % 32) as usize] ^= 1 << (bit % 8);
                for (i, out) in outs.iter().enumerate() {
                    let cold = out.verify(&ks);
                    proptest::prop_assert!(cold.is_err(), "output sibling {i} is a forgery");
                    let gated = out.sig.key != out.producer.0;
                    for _ in 0..2 {
                        let macs = btr_crypto::mac_count();
                        proptest::prop_assert!(ctx.verify_output(out) == cold, "output sibling {i}");
                        proptest::prop_assert_eq!(btr_crypto::mac_count() - macs, u64::from(!gated));
                    }
                }
            }
            // None of that displaced what is genuine.
            let macs = btr_crypto::mac_count();
            for (e, o) in [(&e1, &o1), (&e3, &o3)] {
                proptest::prop_assert_eq!(ctx.verify_env(e), Ok(()));
                proptest::prop_assert_eq!(ctx.verify_output(o), Ok(()));
            }
            proptest::prop_assert_eq!(btr_crypto::mac_count() - macs, 0);

            // Past the memo's cap, signed here or not: right answers, a
            // MAC every time.
            let filled = filler(crate::scratch::MAX_MSG / SignedOutput::CANONICAL_ID_LEN + witnesses);
            let long = Payload::Output { output: o2.clone(), witnesses: filled };
            w.ctx(NodeId(2)).send(NodeId(3), long.clone());
            let long = Envelope::new(NodeId(2), NodeId(3), w.seats[2].local(w.sub.now), long)
                .signed(&w.seats[2].signer);
            let mut far = long.clone();
            far.sent_at = Time(at);
            let far = far.signed(&w.seats[2].signer);
            let mut tampered = long.clone();
            tampered.sent_at = Time(long.sent_at.0 + 1);
            let cold = tampered.verify(&ks);
            let mut ctx = w.ctx(NodeId(3));
            for _ in 0..2 {
                let macs = btr_crypto::mac_count();
                proptest::prop_assert_eq!(ctx.verify_env(&long), Ok(()));
                proptest::prop_assert_eq!(ctx.verify_env(&far), Ok(()));
                proptest::prop_assert!(ctx.verify_env(&tampered) == cold && cold.is_err());
                proptest::prop_assert_eq!(btr_crypto::mac_count() - macs, 3);
            }
        }
    }

    #[test]
    fn a_world_without_multicasts_keeps_no_memo() {
        // Unicast traffic can only miss: such a world never allocates the
        // memo, and pays a MAC per verification as it always did.
        let mut w = world(3);
        w.ctx(NodeId(0)).send(NodeId(1), Payload::Control(1));
        let env = Envelope::new(NodeId(2), NodeId(1), Time(5), Payload::Control(2))
            .signed(&w.seats[2].signer);
        let macs = btr_crypto::mac_count();
        for _ in 0..3 {
            assert_eq!(w.ctx(NodeId(1)).verify_env(&env), Ok(()));
        }
        assert_eq!(btr_crypto::mac_count() - macs, 3);
        assert_eq!(w.scratch.memo_bytes(), 0);
        w.ctx(NodeId(0))
            .send_many(&[NodeId(1), NodeId(2)], Payload::Control(1));
        assert!(w.scratch.memo_bytes() > 32 * 1024 && w.scratch.memo_bytes() < 35 * 1024);
    }

    #[test]
    fn an_n_receiver_multicast_costs_one_mac_world_wide() {
        // Node 0 multicasts a heartbeat, then an output signed through
        // its context: three signatures, and they are the only MACs —
        // every receiver finds each triple the signing host remembered,
        // envelope and output alike.
        struct Producer(u32);
        impl NodeBehavior for Producer {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                let receivers: Vec<NodeId> = (1..=self.0).map(NodeId).collect();
                ctx.send_many(&receivers, Payload::Heartbeat { period: 1 });
                let output = ctx.sign_output(TaskId(1), 0, 3, 7, 9, NodeId(0));
                let witnesses = Vec::new();
                ctx.send_many(&receivers, Payload::Output { output, witnesses });
            }
            fn on_message(&mut self, _c: &mut NodeCtx<'_>, _e: Envelope) {}
            fn on_timer(&mut self, _c: &mut NodeCtx<'_>, _t: TimerId) {}
        }
        struct Consumer;
        impl NodeBehavior for Consumer {
            fn on_start(&mut self, _c: &mut NodeCtx<'_>) {}
            fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
                assert_eq!(ctx.verify_env(&env), Ok(()));
                if let Payload::Output { output, .. } = &env.payload {
                    assert_eq!(ctx.verify_output(output), Ok(()));
                }
                ctx.actuate(TaskId(0), 0, 1);
            }
            fn on_timer(&mut self, _c: &mut NodeCtx<'_>, _t: TimerId) {}
        }
        for n in 2..=12u32 {
            let mut w = world(n as usize + 1);
            w.set_behavior(NodeId(0), Box::new(Producer(n)));
            for r in 1..=n {
                w.set_behavior(NodeId(r), Box::new(Consumer));
            }
            let macs = btr_crypto::mac_count();
            w.start();
            w.run_until(Time::from_millis(10));
            assert_eq!(w.actuations().len(), 2 * n as usize, "{n}: all delivered");
            assert_eq!(btr_crypto::mac_count() - macs, 3, "{n} receivers");
        }
    }

    #[test]
    fn run_until_advances_time_even_when_idle() {
        let mut w = world(1);
        w.start();
        w.run_until(Time::from_millis(123));
        assert_eq!(w.sub.now, Time::from_millis(123));
    }

    #[test]
    fn fec_masks_heavy_shard_loss() {
        // 5% per-shard loss: unprotected messages drop ~5%; FEC(4,2)
        // messages survive unless 3+ of 6 shards die (~0.2%).
        struct Blaster;
        impl NodeBehavior for Blaster {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                for i in 0..5_000u64 {
                    ctx.set_timer(Duration(i * 10), i);
                }
            }
            fn on_message(&mut self, _c: &mut NodeCtx<'_>, _e: Envelope) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _t: TimerId) {
                ctx.send(NodeId(1), Payload::Control(1));
            }
        }
        let run = |fec: Option<(u8, u8)>| -> (u64, u64) {
            let topo = Topology::bus(2, 1_000_000, Duration(1));
            let mut cfg = SimConfig::new(5);
            cfg.loss_ppm = 50_000;
            cfg.fec = fec;
            let mut w = World::new(topo, cfg);
            w.set_behavior(NodeId(0), Box::new(Blaster));
            w.start();
            w.run_until(Time::from_millis(50));
            (w.metrics().msgs_delivered, w.metrics().drops_other)
        };
        let (plain_ok, plain_drop) = run(None);
        let (fec_ok, fec_drop) = run(Some((4, 2)));
        assert!(plain_drop >= 10, "expected visible loss, got {plain_drop}");
        assert!(
            fec_drop * 5 < plain_drop,
            "FEC should mask most losses: {fec_drop} vs {plain_drop}"
        );
        assert!(fec_ok > plain_ok);
    }

    #[test]
    fn a_senders_losses_do_not_depend_on_other_senders() {
        // Node 0 sends 200 heartbeats to node 2 at 20% loss; node 1, when
        // present, sends to node 2 at the same instants. Each sender rolls
        // its own loss stream, so node 0's delivered set is the same
        // either way.
        struct Sender;
        impl NodeBehavior for Sender {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                for i in 0..200u64 {
                    ctx.set_timer(Duration(i * 100), i);
                }
            }
            fn on_message(&mut self, _c: &mut NodeCtx<'_>, _e: Envelope) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, t: TimerId) {
                ctx.send(NodeId(2), Payload::Heartbeat { period: t });
            }
        }
        let delivered_from_0 = |second_sender: bool| -> Vec<u64> {
            let mut cfg = SimConfig::new(8);
            cfg.loss_ppm = 200_000;
            let mut w = World::new(Topology::bus(3, 1_000_000, Duration(1)), cfg);
            w.set_behavior(NodeId(0), Box::new(Sender));
            if second_sender {
                w.set_behavior(NodeId(1), Box::new(Sender));
            }
            w.set_behavior(NodeId(2), Box::new(Keeper::default()));
            w.start();
            w.run_until(Time::from_millis(30));
            let keeper = w.behavior(NodeId(2)).and_then(|b| b.as_any());
            let got = &keeper.and_then(|a| a.downcast_ref::<Keeper>()).unwrap().got;
            got.iter()
                .filter(|e| e.src == NodeId(0))
                .map(|e| match e.payload {
                    Payload::Heartbeat { period } => period,
                    _ => unreachable!("only heartbeats are sent"),
                })
                .collect()
        };
        let alone = delivered_from_0(false);
        assert!(
            (100..200).contains(&alone.len()),
            "20% loss must show: {} of 200 delivered",
            alone.len()
        );
        assert_eq!(delivered_from_0(true), alone);
    }

    #[test]
    fn fec_charges_wire_overhead() {
        struct One;
        impl NodeBehavior for One {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.send(NodeId(1), Payload::Control(1));
            }
            fn on_message(&mut self, _c: &mut NodeCtx<'_>, _e: Envelope) {}
            fn on_timer(&mut self, _c: &mut NodeCtx<'_>, _t: TimerId) {}
        }
        let bytes_with = |fec: Option<(u8, u8)>| -> u64 {
            let topo = Topology::bus(2, 1_000_000, Duration(1));
            let mut cfg = SimConfig::new(6);
            cfg.loss_ppm = 1; // Enable the loss path without real losses.
            cfg.fec = fec;
            let mut w = World::new(topo, cfg);
            w.set_behavior(NodeId(0), Box::new(One));
            w.start();
            w.run_until(Time::from_millis(5));
            w.metrics().bytes_sent
        };
        let plain = bytes_with(None);
        let fec = bytes_with(Some((4, 2)));
        // (4+2)/4 = 1.5x overhead.
        assert_eq!(fec, plain * 6 / 4);
    }

    #[test]
    fn a_forged_transfer_size_saturates_on_the_link() {
        // Any behaviour may send a transfer claiming any size: sizing it
        // must neither overflow nor wrap round to a few bytes of link time.
        struct Forger;
        impl NodeBehavior for Forger {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                let forged = Payload::StateTransfer {
                    task: TaskId(0),
                    to_plan: btr_model::PlanId(1),
                    seq: 0,
                    total: 1,
                    bytes: u32::MAX - 10,
                };
                ctx.send(NodeId(1), forged);
            }
            fn on_message(&mut self, _c: &mut NodeCtx<'_>, _e: Envelope) {}
            fn on_timer(&mut self, _c: &mut NodeCtx<'_>, _t: TimerId) {}
        }
        let topo = Topology::bus(2, 1_000_000, Duration(1));
        let mut cfg = SimConfig::new(6);
        cfg.trace = true;
        let mut w = World::new(topo, cfg);
        w.set_behavior(NodeId(0), Box::new(Forger));
        w.start();
        w.run_until(Time::from_millis(5));
        let sent: Vec<u32> = w
            .trace()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Sent { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(sent, [u32::MAX]);
        // The sender's slice of the link is charged the whole saturated
        // size, which its guardian refuses; wrapped, it would have
        // crossed the link as 77 bytes.
        assert_eq!(w.guardian_drops(NodeId(0)), u64::from(u32::MAX));
        assert_eq!(w.metrics().bytes_sent, 0);
    }

    #[test]
    fn max_events_cap_truncates_deterministically() {
        let run = |cap: u64| {
            let topo = Topology::bus(2, 10_000, Duration(10));
            let mut cfg = SimConfig::new(1);
            cfg.max_events = cap;
            let mut w = World::new(topo, cfg);
            w.set_behavior(NodeId(0), Box::new(Starter { sent: false }));
            w.set_behavior(NodeId(1), Box::new(Echo));
            w.start();
            w.run_until(Time::from_millis(100));
            (
                w.truncated(),
                w.metrics().events,
                w.metrics().msgs_delivered,
            )
        };
        let (full_trunc, full_events, full_msgs) = run(0);
        assert!(!full_trunc);
        assert_eq!(full_msgs, 11);
        let cap = full_events / 2;
        let (t1, e1, m1) = run(cap);
        let (t2, e2, m2) = run(cap);
        assert!(t1, "capped run must report truncation");
        assert_eq!(e1, cap);
        assert!(m1 < full_msgs);
        assert_eq!((t1, e1, m1), (t2, e2, m2), "truncation is deterministic");
        // A run that completes using exactly the cap was not cut short.
        let (t3, e3, m3) = run(full_events);
        assert!(!t3, "exact-cap completion must not be flagged");
        assert_eq!((e3, m3), (full_events, full_msgs));
    }

    /// On a line n0 - n1 - n2, n0 sends `Control(k)` at k ms, k in
    /// 1..=30, to n1 and across it to n2; a receiver actuates `k` under
    /// its own id as task, and a restarted incarnation (`restarted`)
    /// actuates task 9 in its `on_start`.
    struct Line {
        restarted: bool,
    }
    impl NodeBehavior for Line {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if self.restarted {
                ctx.actuate(TaskId(9), 0, 0);
            }
            if ctx.id() == NodeId(0) {
                ctx.set_timer(Duration::from_millis(1), 1);
            }
        }
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
            if let Payload::Control(k) = env.payload {
                ctx.actuate(TaskId(ctx.id().0), 0, u64::from(k));
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, k: TimerId) {
            ctx.send_many(&[NodeId(1), NodeId(2)], Payload::Control(k as u8));
            if k < 30 {
                ctx.set_timer(Duration::from_millis(1), k + 1);
            }
        }
    }

    fn line(cfg: SimConfig) -> World {
        let mut b = btr_model::TopologyBuilder::new();
        let [n0, n1, n2] = [b.full_node(), b.full_node(), b.full_node()];
        b.link(&[n0, n1], 10_000, Duration(5));
        b.link(&[n1, n2], 10_000, Duration(5));
        World::new(b.build().expect("a line"), cfg)
    }

    #[test]
    fn a_restarted_node_starts_ahead_of_its_instant_and_routes_heal_back() {
        let run = |restart: Option<Time>| {
            let mut w = line(SimConfig::new(3));
            for i in 0..3 {
                w.set_behavior(NodeId(i), Box::new(Line { restarted: false }));
            }
            if let Some(at) = restart {
                w.schedule_control(Time::from_millis(10), ControlAction::Crash(NodeId(1)));
                w.schedule_start(at, NodeId(1), Box::new(Line { restarted: true }));
            }
            w.start();
            w.run_until(Time::from_millis(40));
            w.actuations().to_vec()
        };
        let got = |acts: &[Actuation], task: u32| -> Vec<u64> {
            let of_task = acts.iter().filter(|a| a.task == TaskId(task));
            of_task.map(|a| a.value).collect()
        };
        // The restart instant: when n0's twentieth message reaches n1.
        let free = run(None);
        let at = |acts: &[Actuation], task, k| {
            acts.iter()
                .find(|a| a.task == TaskId(task) && a.value == k)
                .map(|a| a.at)
        };
        let back = at(&free, 1, 20).expect("delivered without a crash");
        assert!(back > Time::from_millis(20));
        let acts = run(Some(back));
        // The new incarnation's `on_start` ran at its instant, ahead of the
        // message due there, which reached it.
        let started = acts.iter().position(|a| a.task == TaskId(9));
        let first = acts
            .iter()
            .position(|a| a.task == TaskId(1) && a.value == 20);
        assert_eq!(at(&acts, 9, 0), Some(back));
        assert_eq!(at(&acts, 1, 20), Some(back));
        assert!(started < first, "{acts:?}");
        // Messages for n1 that arrived while it was down were lost, and so
        // were those routed across it; the route heals back with it.
        let upto = |hi: u64| (1..=hi).collect::<Vec<_>>();
        assert_eq!(got(&acts, 1), [upto(9), (20..=30).collect()].concat());
        assert_eq!(got(&acts, 2), [upto(9), (21..=30).collect()].concat());
        assert_eq!((got(&free, 1), got(&free, 2)), (upto(30), upto(30)));
    }

    #[test]
    fn a_restarted_node_continues_its_loss_stream() {
        // Forty sends from one incarnation of n1, or twenty from each of
        // two with a crash between: one loss pattern.
        struct Sends(u8, u8);
        impl NodeBehavior for Sends {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(Duration::from_millis(1), 0);
            }
            fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
                if let Payload::Control(k) = env.payload {
                    ctx.actuate(TaskId(0), 0, u64::from(k));
                }
            }
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _t: TimerId) {
                if self.0 < self.1 {
                    ctx.send(NodeId(0), Payload::Control(self.0));
                    self.0 += 1;
                    ctx.set_timer(Duration::from_millis(1), 0);
                }
            }
        }
        let pattern = |incarnations: u8| {
            let mut cfg = SimConfig::new(9);
            cfg.loss_ppm = 200_000;
            let mut w = line(cfg);
            w.set_behavior(NodeId(0), Box::new(Sends(0, 0)));
            w.set_behavior(NodeId(1), Box::new(Sends(0, 40 / incarnations)));
            if incarnations == 2 {
                w.schedule_control(Time::from_millis(25), ControlAction::Crash(NodeId(1)));
                w.schedule_start(Time::from_millis(30), NodeId(1), Box::new(Sends(20, 40)));
            }
            w.start();
            w.run_until(Time::from_millis(80));
            w.actuations().iter().map(|a| a.value).collect::<Vec<_>>()
        };
        let one = pattern(1);
        assert!(one.len() > 20 && one.len() < 40, "{one:?}");
        assert_eq!(pattern(2), one);
    }

    #[test]
    fn crash_heals_multi_hop_routes() {
        // 0 -> 2 relays through 1: by the lowest-id tie break on a ring of
        // 4, and as the only shortest path on a 10x10 mesh, whose 100
        // nodes take the demand backend (rows kept across the crash, the
        // stale one healed). After 1 crashes, the route heals around it
        // and deliveries keep flowing; without healing the relay would
        // drop everything.
        struct Periodic;
        impl NodeBehavior for Periodic {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(Duration::from_millis(1), 0);
            }
            fn on_message(&mut self, _c: &mut NodeCtx<'_>, _e: Envelope) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _t: TimerId) {
                ctx.send(NodeId(2), Payload::Control(1));
                ctx.set_timer(Duration::from_millis(1), 0);
            }
        }
        struct Count;
        impl NodeBehavior for Count {
            fn on_start(&mut self, _c: &mut NodeCtx<'_>) {}
            fn on_message(&mut self, ctx: &mut NodeCtx<'_>, _e: Envelope) {
                ctx.actuate(TaskId(0), 0, 1);
            }
            fn on_timer(&mut self, _c: &mut NodeCtx<'_>, _t: TimerId) {}
        }
        for (topo, kind, rows_built) in [
            (
                Topology::ring(4, 10_000, Duration(5)),
                "precomputed",
                (0, 0),
            ),
            (
                Topology::mesh(10, 10, 10_000, Duration(5)),
                "demand",
                (2, 1),
            ),
        ] {
            let mut w = World::new(topo, SimConfig::new(4));
            w.set_behavior(NodeId(0), Box::new(Periodic));
            w.set_behavior(NodeId(2), Box::new(Count));
            w.schedule_control(Time::from_millis(10), ControlAction::Crash(NodeId(1)));
            w.start();
            w.run_until(Time::from_millis(30));
            // ~29 sends, all delivered (loss-free): the post-crash sends
            // heal around node 1 instead of being refused by the dead relay.
            let delivered = w.actuations().len() as u64;
            assert!(delivered >= 28, "{kind}: only {delivered} deliveries");
            assert_eq!(w.metrics().drops_forward, 0, "{kind}: dead relay refused");
            assert_eq!(w.routing_kind(), kind);
            assert_eq!(w.routing_rows_built(), rows_built, "{kind}");
        }
    }
}
