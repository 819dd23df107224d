//! The driver on behaviours `run_live` does not build, each run held to
//! the simulator's run of the same world (`tests/live.rs` runs the
//! planned system's own), and one test for each thing the driver adds to
//! that world: the order of a restart, panic attribution, the wall
//! deadline and a wedged worker.

use super::*;
use btr_model::{Envelope, FaultKind, Payload, TaskId};
use btr_obs::Phase;
use btr_runtime::Attack;
use btr_sim::{NodeBehavior, NodeCtx, TimerId};
use std::sync::Arc;

#[path = "../../tests/common/mod.rs"]
mod common;
use common::*;

/// Makes the behaviours of a run that does not run `BtrNode`s.
type Make = fn(NodeId, Option<Attack>) -> Box<dyn NodeBehavior>;

/// Run `scenario` unpaced on `sys`'s fleet with the behaviours `make`
/// builds, and hold it to the simulator's run; returns the simulator's
/// trace.
fn assert_behaviours_match(
    name: &str,
    sys: &BtrSystem,
    scenario: &FaultScenario,
    horizon: Duration,
    make: Make,
) -> LogicalTrace {
    let end = Time::ZERO + horizon + sys.grace();
    let (topo, sim) = (sys.topology().clone(), sys.sim_config(SEED));
    let cfg = live_cfg(UNPACED);
    let live = run_paced(sim, topo, scenario, end, &cfg, make);
    let world = sys.world_of(&make, scenario, SEED);
    assert_matches(name, sys, scenario, horizon, &cfg, world, &live)
}

/// Passes a token round the nine nodes, one hop per receipt, and
/// actuates each receipt: only the node the token is in flight to has
/// work.
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

fn token_ring(node: NodeId, _: Option<Attack>) -> Box<dyn NodeBehavior> {
    Box::new(TokenRing {
        me: node.0,
        hops: 0,
    })
}

/// On a 3 × 3 mesh, the edge-centre nodes each send across the centre
/// n4 at the instant it crashes, and each receiver actuates on arrival,
/// stamped with the sender.
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

fn across_the_centre(_: NodeId, _: Option<Attack>) -> Box<dyn NodeBehavior> {
    Box::new(AcrossTheCentre)
}

#[test]
fn the_least_head_carries_a_token_round_the_ring() {
    // Every node but one has nothing pending: the one event queued is
    // the token's arrival.
    let (none, horizon) = (FaultScenario::none(), Duration::from_millis(20));
    let reference = assert_behaviours_match("token ring", &bus9(), &none, horizon, token_ring);
    assert_eq!(reference.len(), 9 * 60 - 8, "the token went round");
}

#[test]
fn a_send_at_a_peers_crash_instant_takes_the_healed_route() {
    // Both worlds queue n4's crash ahead of every event at its instant,
    // so the route heals before the sends, and each message takes a
    // four-hop path round the centre.
    let scenario = FaultScenario::single(NodeId(4), FaultKind::Crash, CENTRE_CRASH);
    let horizon = Duration::from_millis(5);
    let reference =
        assert_behaviours_match("across", &mesh9(), &scenario, horizon, across_the_centre);
    assert_eq!(reference.len(), 4, "every cross-centre send arrived");
}

#[test]
fn unpaced_runs_are_trace_identical_to_simulator() {
    // The planned system's own behaviours under an omission fault (the
    // other scenarios are `tests/live.rs`'s).
    let omission = FaultScenario::single(NodeId(3), FaultKind::Omission, Time::from_millis(42));
    let horizon = Duration::from_millis(250);
    assert_live_matches("omission", &bus9(), &omission, horizon, &live_cfg(UNPACED));
}

#[test]
fn every_incarnation_of_a_run_shares_one_plan_handle() {
    // A restart is `make` called again for the node: its incarnation
    // reads the tables the run's first incarnations derived. A second
    // run gets a handle of its own.
    let sys = bus9();
    let handle = |b: Box<dyn NodeBehavior>| {
        let node = b.as_any().and_then(|a| a.downcast_ref::<BtrNode>());
        Arc::clone(node.expect("a BtrNode").plans())
    };
    let nodes = sys.nodes();
    let first = handle(nodes.make(NodeId(6), None));
    assert!(Arc::ptr_eq(&first, &handle(nodes.make(NodeId(6), None))));
    assert!(Arc::ptr_eq(&first, &handle(nodes.make(NodeId(2), None))));
    let other_run = handle(sys.nodes().make(NodeId(6), None));
    assert!(!Arc::ptr_eq(&first, &other_run));
}

/// Actuates each start (stamped with its instant) and each receipt
/// (stamped with the sender); n0 sends n1 one message at [`SEND`].
struct Herald;

/// When n0 sends its one message.
const SEND: Time = Time(10_000);

impl NodeBehavior for Herald {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.actuate(TaskId(0), 0, ctx.now().as_micros());
        if ctx.id() == NodeId(0) {
            ctx.set_timer_at(SEND, 0);
        }
    }
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
        ctx.actuate(TaskId(1), 0, u64::from(env.src.0));
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId) {
        ctx.send(NodeId(1), Payload::Control(0));
    }
}

fn herald(_: NodeId, _: Option<Attack>) -> Box<dyn NodeBehavior> {
    Box::new(Herald)
}

#[test]
fn a_restart_comes_up_ahead_of_a_message_due_at_its_instant() {
    // n1 crashes 100 µs after n0's send and restarts at the instant the
    // message arrives. The restart was queued before anything its peers
    // queued for that instant, so n1 is up to take it — in a reference
    // world that schedules the same start, and on the fleet.
    let (topo, sim) = (
        Topology::bus(3, 100_000, Duration(1_000)),
        SimConfig::new(SEED),
    );
    let end = Time::from_millis(15);
    let run = |scenario: &FaultScenario, restart: Option<Time>| {
        let mut world = crate::scenario_world(topo.clone(), sim.clone(), scenario, herald);
        if let Some(at) = restart {
            world.schedule_start(at, NodeId(1), herald(NodeId(1), None));
        }
        world.start();
        world.run_until(end);
        world.logical_trace()
    };
    let receipt = |a: &&btr_sim::Actuation| a.node == NodeId(1) && a.task == TaskId(1);
    let fault_free = run(&FaultScenario::none(), None);
    let arrival = fault_free.events.iter().find(receipt).expect("arrives").at;
    let crash_at = SEND + Duration(100);
    assert!(arrival > crash_at + Duration(100), "{arrival}");
    let scenario = FaultScenario::single(NodeId(1), FaultKind::Crash, crash_at);
    let reference = run(&scenario, Some(arrival));
    let received = reference.events.iter().filter(receipt).map(|a| a.at);
    assert_eq!(
        received.collect::<Vec<_>>(),
        [arrival],
        "the restart took it"
    );
    for pace in [UNPACED, SLOW] {
        let mut cfg = live_cfg(pace);
        cfg.restart_after = arrival - crash_at;
        let live = run_paced(sim.clone(), topo.clone(), &scenario, end, &cfg, herald);
        assert!(
            live.healthy(),
            "{:?} {:?}",
            live.panics,
            live.deadline_overruns
        );
        assert_eq!(
            live.trace.digest(),
            reference.digest(),
            "pace {pace}: {:?}",
            live.trace
                .first_divergence(&reference, ["live", "simulator"])
        );
        let started = instants(&live, NodeId(1), EventKind::Started);
        assert_eq!(started, [Time::ZERO, arrival], "pace {pace}");
        assert_eq!(instants(&live, NodeId(1), EventKind::Crashed), [crash_at]);
        assert_eq!(instants(&live, NodeId(1), EventKind::Finished), [end]);
        assert_paced("restart", &live, pace);
        // n0's one timer is lagged from its paced instant, not the epoch.
        let paced_send = (pace * SEND.as_micros() as f64) as u64;
        assert!(pace < 1.0 || live.timer_lag.max() < Some(paced_send));
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
    let nodes = sys.nodes();
    let make = move |node: NodeId, attack| -> Box<dyn NodeBehavior> {
        let inner = nodes.make(node, attack);
        match victims.iter().find(|&&(victim, _)| victim == node) {
            Some(&(_, at)) => Box::new(PanicsAt { inner, at }),
            None => inner,
        }
    };
    let none = FaultScenario::none();
    let end = Time::ZERO + Duration::from_millis(120) + sys.grace();
    let (topo, sim) = (sys.topology().clone(), sys.sim_config(SEED));
    let live = run_paced(sim, topo, &none, end, &live_cfg(UNPACED), make);
    assert_eq!(live.panics.len(), 2, "{:?}", live.panics);
    for (p, (victim, at)) in live.panics.iter().zip(victims) {
        assert_eq!(p.node, victim);
        assert!(p.message.starts_with("scripted panic at "), "{}", p.message);
        // The flight recorder logged the dispatch that panicked: the
        // victim's first event at or after the scripted instant.
        let last = p.last_logical.expect("dispatched before the panic");
        let soon = at + Duration::from_millis(10);
        assert!(last >= at && last < soon, "{last:?}");
        assert!(p.flight_total > 0 && !p.flight_tail.is_empty());
        // The worker took the victim down through the crash lever.
        let down = |m: &PhaseMark| (m.phase, m.subject, m.at) == (Phase::FaultActive, victim, last);
        assert!(live.phase_marks.iter().any(down), "{victim} not taken down");
    }
    // Every other node ran to the horizon.
    assert!(
        live.deadline_overruns.is_empty(),
        "{:?}",
        live.deadline_overruns
    );
    let finished = live.events.iter().filter(|e| e.kind == EventKind::Finished);
    let finished: Vec<NodeId> = finished.map(|e| e.node).collect();
    assert_eq!(finished.len(), 7, "{finished:?}");
    assert!(victims.iter().all(|(victim, _)| !finished.contains(victim)));
}

/// Ticks every millisecond, actuating each tick; n0's tick at
/// [`BLOCK_AT`] blocks the worker for `block`.
struct Ticker {
    block: std::time::Duration,
}

const BLOCK_AT: Time = Time(2_000);

impl NodeBehavior for Ticker {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(Duration::from_millis(1), 0);
    }
    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) {}
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId) {
        ctx.actuate(TaskId(0), 0, ctx.now().as_micros());
        if ctx.id() == NodeId(0) && ctx.now() == BLOCK_AT {
            thread::sleep(self.block);
        }
        ctx.set_timer(Duration::from_millis(1), 0);
    }
}

/// The ticking fleet of three, run unpaced to 10 ms under a wall grace
/// of `grace`, with n0's tick at 2 ms blocking for `block`.
fn blocked_run(grace_ms: u64, block_ms: u64) -> LiveReport {
    let block = std::time::Duration::from_millis(block_ms);
    let (topo, sim) = (Topology::bus(3, 100_000, Duration(5)), SimConfig::new(SEED));
    let mut cfg = live_cfg(UNPACED);
    cfg.join_grace = std::time::Duration::from_millis(grace_ms);
    let make = move |_, _| -> Box<dyn NodeBehavior> { Box::new(Ticker { block }) };
    let none = FaultScenario::none();
    run_paced(sim, topo, &none, Time::from_millis(10), &cfg, make)
}

#[test]
fn a_worker_past_its_deadline_stops_and_lists_the_nodes_up() {
    // The block ends past the stop (the horizon's wall instant and one
    // grace) but inside the wait for the worker (one more grace): the
    // worker stops at its next step with every node up and reports.
    let live = blocked_run(200, 300);
    let all: Vec<NodeId> = (0..3).map(NodeId).collect();
    assert_eq!(live.deadline_overruns, all);
    assert!(live.panics.is_empty());
    assert!(!live.events.iter().any(|e| e.kind == EventKind::Finished));
    // The worker's own report: the actuations up to the block.
    let ticks = live.trace.events.iter().map(|a| a.at);
    assert_eq!(ticks.max(), Some(BLOCK_AT), "{:?}", live.trace);
}

#[test]
fn a_wedged_worker_is_left_behind_and_every_node_overruns() {
    // The block outlasts the wait for the worker: the fleet reports
    // without it, and only the event log, drained from the channel,
    // says what ran.
    let live = blocked_run(100, 500);
    let all: Vec<NodeId> = (0..3).map(NodeId).collect();
    assert_eq!(live.deadline_overruns, all);
    assert!(live.trace.is_empty(), "{:?}", live.trace);
    let started = live.events.iter().filter(|e| e.kind == EventKind::Started);
    assert_eq!(started.count(), 3, "{:?}", live.events);
}
