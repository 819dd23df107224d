//! The scale traffic and its sweep constants.
//!
//! `harness profile` sweeps this traffic across 2-D torus platforms of
//! n ∈ {20, 100, 400, 1000} nodes and measures what actually limits
//! scale: delivered throughput, per-delivery cost, heap allocations,
//! and **routing-resident bytes**, which the all-pairs table grows as
//! O(n² · diameter) and the demand-driven rows keep near-linear
//! (`btr_net::RouteBackend` switches backend at
//! `DEMAND_ROUTING_THRESHOLD` nodes, so the sweep crosses it).
//!
//! Each point also crashes one relay mid-run
//! (`crate::profile::profile_world`), exercising the
//! `avoiding_transit` recomputation path at scale: a full table rebuild
//! below the threshold; above it the rows are kept, marked stale, and
//! healed one at a time as traffic crosses the dead relay. A point whose
//! routing residency exceeds [`SCALE_ROUTING_BUDGET`] fails the harness
//! — the sub-quadratic gate CI enforces at n = 1000.

use btr_model::{Duration, Envelope, NodeId, Payload};
use btr_sim::{NodeBehavior, NodeCtx, TimerId};

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
/// scenario, sized by n; `crate::profile` drives it over the torus
/// sweep.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{measure_profile_point, ProfilePoint};
    use btr_net::DEMAND_ROUTING_THRESHOLD;

    fn torus_point(n: usize, seed: u64, target_msgs: u64) -> ProfilePoint {
        measure_profile_point(n, seed, target_msgs, &|| 0)
    }

    #[test]
    fn scale_points_are_deterministic() {
        let a = torus_point(20, 7, 4_000);
        let b = torus_point(20, 7, 4_000);
        assert_eq!(a.metrics, b.metrics);
        assert!(a.metrics.msgs_delivered > 0);
    }

    #[test]
    fn backend_crosses_threshold_with_n() {
        let small = torus_point(20, 7, 2_000);
        assert_eq!(small.routing_kind, "precomputed");
        let large = torus_point(DEMAND_ROUTING_THRESHOLD + 36, 7, 2_000);
        assert_eq!(large.routing_kind, "demand");
        assert!(large.routing_resident_bytes <= SCALE_ROUTING_BUDGET);
    }

    #[test]
    fn crash_heals_and_arena_drains_at_scale() {
        let p = torus_point(100, 3, 8_000);
        // The dead relay never refuses traffic: routes healed around it.
        assert_eq!(p.metrics.drops_forward, 0, "unhealed relay refusals");
        // Messages *addressed* to the dead node drop at the receiver,
        // so deliveries < sends after the crash.
        assert!(p.metrics.msgs_delivered < p.metrics.msgs_sent);
        assert_eq!(p.envelopes_leaked, 0, "event arena leaked envelopes");
    }

    #[test]
    fn demand_residency_is_far_below_the_table() {
        // At 100 nodes the demand rows (plus adjacency index) must be
        // tiny; the all-pairs table at the same size is ~180 kB of
        // next-hop matrix alone and grows quadratically.
        let p = torus_point(100, 7, 2_000);
        assert!(
            p.routing_resident_bytes < 512 << 10,
            "demand residency {} unexpectedly large",
            p.routing_resident_bytes
        );
    }
}
