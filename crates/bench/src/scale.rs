//! The thousand-node scale benchmark (`harness scale`).
//!
//! Sweeps the hot-path traffic pattern across 2-D torus platforms of
//! n ∈ {20, 100, 400, 1000} nodes and measures what actually limits
//! scale: delivered throughput, per-delivery cost, heap allocations, and
//! — the number this PR exists for — **routing-resident bytes**, which
//! the all-pairs table grows as O(n² · diameter) and the demand-driven
//! rows keep near-linear (`btr_net::RouteBackend` switches backend
//! at `DEMAND_ROUTING_THRESHOLD` nodes, so the sweep crosses it).
//!
//! Each sweep point also crashes one relay mid-run, exercising the
//! `avoiding_transit` recomputation path at scale: a full table rebuild
//! below the threshold, an O(n) invalidation above it.
//!
//! `harness scale` emits `BENCH_scale.json` and exits non-zero if any
//! point's routing residency exceeds [`SCALE_ROUTING_BUDGET`] — the
//! sub-quadratic gate CI enforces at n = 1000.

use btr_model::{Duration, Envelope, NodeId, Payload, Time};
use btr_sim::{NodeBehavior, NodeCtx, SimConfig, TimerId, World};
use btr_topo::{torus, torus_dims};

/// The default sweep sizes.
pub const SCALE_NODES: [usize; 4] = [20, 100, 400, 1000];
/// Messages injected per sweep point in a full run (split across nodes).
pub const SCALE_TARGET_MSGS: u64 = 400_000;
/// Messages injected per sweep point in a `--smoke` run.
pub const SCALE_SMOKE_MSGS: u64 = 40_000;
/// Hard ceiling on routing-resident bytes at any sweep point (64 MiB).
///
/// At n = 1000 the all-pairs table would hold ~16 M path-pool entries
/// plus an 8 MB next-hop matrix — well past this; the demand backend's
/// rows stay near 2 MB. The gate fails the harness (and CI) if
/// routing residency ever grows back toward quadratic.
pub const SCALE_ROUTING_BUDGET: usize = 64 << 20;

/// Per-period traffic: every node sends three unsigned data-plane
/// envelopes — two short-stride peers and the torus antipode (which
/// forces diameter-scale multi-hop routes) — plus one signed heartbeat
/// to its successor. The same shape as the pinned 20-node hot-path
/// scenario, sized by n. Shared with the profiling kernel
/// (`crate::profile`), which drives the identical traffic over every
/// topology family.
pub(crate) struct ScaleBlaster {
    pub(crate) period: Duration,
    pub(crate) periods: u64,
    pub(crate) fired: u64,
    pub(crate) n: u32,
}

impl NodeBehavior for ScaleBlaster {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(Duration(0), 0);
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId) {
        let me = ctx.id().0;
        let n = self.n;
        for stride in [7u32, 13, n / 2] {
            let stride = stride.max(1) % n;
            if stride == 0 {
                continue;
            }
            let dst = NodeId((me + stride) % n);
            let env = Envelope::new(
                ctx.id(),
                dst,
                ctx.local_now(),
                Payload::Control((stride % 251) as u8),
            );
            ctx.send_env(env);
        }
        ctx.send(
            NodeId((me + 1) % n),
            Payload::Heartbeat { period: self.fired },
        );
        self.fired += 1;
        if self.fired < self.periods {
            ctx.set_timer(self.period, 0);
        }
    }
}

/// One measured sweep point.
#[derive(Debug, Clone)]
pub struct ScaleMeasurement {
    /// Node count.
    pub nodes: usize,
    /// Torus rows.
    pub rows: usize,
    /// Torus columns.
    pub cols: usize,
    /// Traffic periods driven.
    pub periods: u64,
    /// Messages accepted into the network.
    pub msgs_sent: u64,
    /// Messages delivered end to end.
    pub msgs_delivered: u64,
    /// Engine events processed.
    pub events: u64,
    /// Wall-clock nanoseconds for the run.
    pub wall_ns: u128,
    /// Heap allocations during the run (0 without a counting allocator).
    pub allocations: u64,
    /// Routing-resident heap bytes at end of run.
    pub routing_resident_bytes: usize,
    /// Selected routing backend ("precomputed" / "demand").
    pub routing_kind: &'static str,
    /// Relay-refused drops (must stay 0: the mid-run crash heals).
    pub drops_forward: u64,
    /// Envelopes still parked in the event arena after the run (must be
    /// 0: the queue drained).
    pub envelopes_leaked: usize,
    /// True if the run hit the event-cap safety valve before the
    /// horizon — the sweep point covers a prefix, not the scenario.
    pub truncated: bool,
}

impl ScaleMeasurement {
    /// Delivered messages per wall-clock second.
    pub fn msgs_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.msgs_delivered as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Wall-clock nanoseconds per delivered message.
    pub fn ns_per_delivery(&self) -> f64 {
        if self.msgs_delivered == 0 {
            return 0.0;
        }
        self.wall_ns as f64 / self.msgs_delivered as f64
    }

    /// True if routing residency respects the sub-quadratic gate.
    pub fn within_routing_budget(&self) -> bool {
        self.routing_resident_bytes <= SCALE_ROUTING_BUDGET
    }
}

/// Build the n-node torus world for one sweep point.
pub fn scale_world(n: usize, seed: u64, periods: u64) -> World {
    let (rows, cols) = torus_dims(n);
    let topo = torus(rows, cols, 1_000_000, Duration(5)).expect("sweep sizes are torus-valid");
    let cfg = SimConfig::new(seed);
    let mut w = World::new(topo, cfg);
    for i in 0..n as u32 {
        w.set_behavior(
            NodeId(i),
            Box::new(ScaleBlaster {
                period: w.period(),
                periods,
                fired: 0,
                n: n as u32,
            }),
        );
    }
    // One relay dies mid-run: the link layer must heal multi-hop routes
    // around it (table rebuild below the backend threshold, row-cache
    // invalidation above it).
    if n >= 4 {
        w.schedule_control(
            Time(periods / 2 * w.period().as_micros()),
            btr_sim::ControlAction::Crash(NodeId(1)),
        );
    }
    w
}

/// Measure one sweep point. `alloc_counter` reads the process-wide
/// allocation count (the harness wires in its counting allocator;
/// library callers pass `|| 0`).
pub fn measure_scale(
    n: usize,
    seed: u64,
    target_msgs: u64,
    alloc_counter: &dyn Fn() -> u64,
) -> ScaleMeasurement {
    // Sends per period = 4 per node; pick periods to hit the target
    // message count so every sweep point does comparable work.
    let periods = (target_msgs / (4 * n as u64)).max(20);
    let mut w = scale_world(n, seed, periods);
    w.start();
    let horizon = crate::hotpath::horizon(&w, periods);
    let allocs_before = alloc_counter();
    let start = std::time::Instant::now();
    w.run_until(horizon);
    let wall_ns = start.elapsed().as_nanos();
    let allocations = alloc_counter().saturating_sub(allocs_before);
    let (rows, cols) = torus_dims(n);
    let m = w.metrics();
    ScaleMeasurement {
        nodes: n,
        rows,
        cols,
        periods,
        msgs_sent: m.msgs_sent,
        msgs_delivered: m.msgs_delivered,
        events: m.events,
        wall_ns,
        allocations,
        routing_resident_bytes: w.routing_resident_bytes(),
        routing_kind: w.routing_kind(),
        drops_forward: m.drops_forward,
        envelopes_leaked: w.envelopes_in_flight(),
        truncated: w.truncated(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_net::DEMAND_ROUTING_THRESHOLD;

    #[test]
    fn scale_points_are_deterministic() {
        let a = measure_scale(20, 7, 4_000, &|| 0);
        let b = measure_scale(20, 7, 4_000, &|| 0);
        assert_eq!(
            (a.msgs_sent, a.msgs_delivered, a.events),
            (b.msgs_sent, b.msgs_delivered, b.events)
        );
        assert!(a.msgs_delivered > 0);
    }

    #[test]
    fn backend_crosses_threshold_with_n() {
        let small = measure_scale(20, 7, 2_000, &|| 0);
        assert_eq!(small.routing_kind, "precomputed");
        let large = measure_scale(DEMAND_ROUTING_THRESHOLD + 36, 7, 2_000, &|| 0);
        assert_eq!(large.routing_kind, "demand");
        assert!(large.within_routing_budget());
    }

    #[test]
    fn crash_heals_and_arena_drains_at_scale() {
        let m = measure_scale(100, 3, 8_000, &|| 0);
        // The dead relay never refuses traffic: routes healed around it.
        assert_eq!(m.drops_forward, 0, "unhealed relay refusals");
        // Messages *addressed* to the dead node drop at the receiver,
        // so deliveries < sends after the crash.
        assert!(m.msgs_delivered < m.msgs_sent);
        assert_eq!(m.envelopes_leaked, 0, "event arena leaked envelopes");
    }

    #[test]
    fn demand_residency_is_far_below_the_table() {
        // At 100 nodes the demand rows (plus adjacency index) must be
        // tiny; the all-pairs table at the same size is ~180 kB of
        // next-hop matrix alone and grows quadratically.
        let m = measure_scale(100, 7, 2_000, &|| 0);
        assert!(
            m.routing_resident_bytes < 512 << 10,
            "demand residency {} unexpectedly large",
            m.routing_resident_bytes
        );
    }
}
