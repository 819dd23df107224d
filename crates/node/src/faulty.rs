//! Runtime fault injection for live nodes.
//!
//! [`FaultyNode`] splices a [`FaultScenario`](btr_core::FaultScenario)
//! entry into a live node's behaviour. Byzantine manifestations
//! (omission, commission, timing, equivocation, babble, evidence spam,
//! with their `FaultMods` sub-strategies) ride the runtime's own
//! `Attack` script, handed to `BtrNode::new` exactly as the simulator
//! hands it; crashes become *real*: a sentinel timer fires at the scripted
//! instant, the wrapper calls `crash_self`, and the actor loop lets the
//! OS thread die. The supervisor may later restart the node with a
//! fresh runtime wrapped in [`Rejoin`], which re-synchronises the period
//! engine to the next boundary instead of replaying period 0.

use btr_core::InjectedFault;
use btr_model::{Envelope, FaultKind, NodeId, Strategy, Time};
use btr_runtime::timers::{self, Timer};
use btr_runtime::BtrNode;
use btr_sim::{NodeBehavior, NodeCtx, TimerId};
use btr_workload::Workload;
use std::sync::Arc;

/// The crash-trigger sentinel. `u64::MAX` has timer kind 15, outside
/// the runtime's `[1, 4]` encoding range, so `timers::decode` rejects it
/// and the inner runtime could never confuse it for its own timer.
pub(crate) const CRASH_TIMER: TimerId = u64::MAX;

/// A live node with a scripted fault spliced into its behaviour.
pub(crate) struct FaultyNode {
    inner: BtrNode,
    crash_at: Option<Time>,
}

impl FaultyNode {
    /// Build the faulty node: `fault.attack()` (None for crashes) is
    /// the runtime's attack script, a crash schedules the sentinel timer.
    pub(crate) fn make(
        node: NodeId,
        workload: Arc<Workload>,
        strategy: Arc<Strategy>,
        n: usize,
        fault: &InjectedFault,
    ) -> FaultyNode {
        FaultyNode {
            inner: BtrNode::new(node, workload, strategy, n, fault.attack()),
            crash_at: (fault.kind == FaultKind::Crash).then_some(fault.at),
        }
    }
}

impl NodeBehavior for FaultyNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.inner.on_start(ctx);
        if let Some(at) = self.crash_at {
            ctx.set_timer_at(at, CRASH_TIMER);
        }
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
        self.inner.on_message(ctx, env);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: TimerId) {
        if timer == CRASH_TIMER {
            ctx.crash_self();
            return;
        }
        self.inner.on_timer(ctx, timer);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

/// Wraps a *fresh* runtime for a restarted node.
///
/// `BtrNode::on_start` unconditionally arms `PeriodBoundary { period: 0
/// }` at the current instant — correct at cold boot, wrong for a node
/// rejoining mid-run (it would run the period-0 boundary at, say, t =
/// 180 ms and derive nonsense slot times). `Rejoin` lets `on_start` run
/// (it also builds the checker tables), swallows that first stale
/// boundary when it fires, and re-arms the boundary at the next true
/// period start with the correct period index.
pub(crate) struct Rejoin {
    inner: BtrNode,
    resynced: bool,
}

impl Rejoin {
    /// Wrap a fresh runtime for rejoin.
    pub(crate) fn new(inner: BtrNode) -> Rejoin {
        Rejoin {
            inner,
            resynced: false,
        }
    }
}

impl NodeBehavior for Rejoin {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
        self.inner.on_message(ctx, env);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: TimerId) {
        if !self.resynced {
            if let Some(Timer::PeriodBoundary { period: 0 }) = timers::decode(timer) {
                self.resynced = true;
                let period = ctx.period();
                // Strictly the *next* boundary: at an exact boundary the
                // node still missed this period's slot starts, so it
                // waits out the remainder.
                let next = (ctx.now() + btr_model::Duration(1)).next_period_start(period);
                ctx.set_timer_at(
                    next,
                    timers::encode(Timer::PeriodBoundary {
                        period: next.period_index(period),
                    }),
                );
                return;
            }
        }
        self.inner.on_timer(ctx, timer);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_model::{Duration, Topology};
    use btr_planner::PlannerConfig;
    use btr_sim::{ControlAction, SimConfig, World};

    const N: usize = 9;

    fn strategy() -> (Arc<Workload>, Arc<Strategy>) {
        let workload = btr_workload::generators::avionics(N);
        let topo = Topology::bus(N, 100_000, Duration(5));
        let mut cfg = PlannerConfig::new(1, Duration::from_millis(150));
        cfg.admit_best_effort = true;
        let (strategy, _) = btr_planner::build_strategy(&workload, &topo, &cfg).expect("plan");
        (Arc::new(workload), Arc::new(strategy))
    }

    #[test]
    fn crash_timer_sentinel_is_outside_runtime_space() {
        assert_eq!(timers::decode(CRASH_TIMER), None);
    }

    #[test]
    fn faulty_node_crashes_at_scripted_instant_in_sim() {
        // The wrapper is substrate-agnostic: run it in the simulator and
        // check the node fail-stops exactly at the scripted time.
        let (workload, strategy) = strategy();
        let topo = Topology::bus(N, 100_000, Duration(5));
        let mut world = World::new(topo, SimConfig::new(3));
        let fault = InjectedFault::new(NodeId(4), FaultKind::Crash, Time::from_millis(42));
        for i in 0..N as u32 {
            let node = NodeId(i);
            let behavior: Box<dyn NodeBehavior> = if node == fault.node {
                Box::new(FaultyNode::make(
                    node,
                    Arc::clone(&workload),
                    Arc::clone(&strategy),
                    N,
                    &fault,
                ))
            } else {
                Box::new(BtrNode::new(
                    node,
                    Arc::clone(&workload),
                    Arc::clone(&strategy),
                    N,
                    None,
                ))
            };
            world.set_behavior(node, behavior);
        }
        world.start();
        world.run_until(Time::from_millis(41));
        assert!(!world.is_crashed(NodeId(4)));
        world.run_until(Time::from_millis(200));
        assert!(world.is_crashed(NodeId(4)));
    }

    #[test]
    fn faulty_crash_matches_control_action_crash() {
        // The FaultyNode crash path and the simulator's native
        // ControlAction::Crash must yield identical logical traces —
        // this is what lets the live runtime reuse the simulator as its
        // oracle for crash scenarios.
        let (workload, strategy) = strategy();
        let fault = InjectedFault::new(NodeId(6), FaultKind::Crash, Time::from_millis(42));
        let build = |faulty_wrapper: bool| {
            let topo = Topology::bus(N, 100_000, Duration(5));
            let mut world = World::new(topo, SimConfig::new(3));
            for i in 0..N as u32 {
                let node = NodeId(i);
                let behavior: Box<dyn NodeBehavior> = if faulty_wrapper && node == fault.node {
                    Box::new(FaultyNode::make(
                        node,
                        Arc::clone(&workload),
                        Arc::clone(&strategy),
                        N,
                        &fault,
                    ))
                } else {
                    Box::new(BtrNode::new(
                        node,
                        Arc::clone(&workload),
                        Arc::clone(&strategy),
                        N,
                        None,
                    ))
                };
                world.set_behavior(node, behavior);
            }
            if !faulty_wrapper {
                world.schedule_control(fault.at, ControlAction::Crash(fault.node));
            }
            world.start();
            world.run_until(Time::from_millis(400));
            world.logical_trace()
        };
        let via_wrapper = build(true);
        let via_control = build(false);
        assert!(!via_wrapper.is_empty());
        assert_eq!(
            via_wrapper.digest(),
            via_control.digest(),
            "divergence: {:?}",
            via_wrapper.first_divergence(&via_control, ["wrapper", "control"])
        );
    }
}
