//! The deterministic profiling kernel (`harness profile`).
//!
//! Each profile point runs the scale-benchmark traffic on one topology
//! family three times with the same seed:
//!
//! 1. **baseline** — no recorder: end-to-end wall time and the logical
//!    digest the other passes are held against;
//! 2. **counts** — a collecting recorder, wall sampling off: the
//!    digest-stable per-subsystem event counts and the per-node /
//!    per-link traffic matrix. The run must be *bit-identical* to the
//!    baseline (same `SimMetrics`, same logical digest) — that equality
//!    is the inertness proof the point carries in its report;
//! 3. **wall** — the recorder plus `World::set_wall_profiling`:
//!    per-subsystem wall nanoseconds. Machine-dependent, so reported
//!    but never folded into any digest; the unscoped remainder is
//!    published as `other`, making the shares sum to exactly 100% of
//!    this pass's end-to-end wall time.
//!
//! The measured traffic matrix then prices the PDES split: every
//! natural partition of the family (torus bands/tiles, fat-tree pods,
//! star-of-rings arms) is scored by `btr_topo::shard` into the
//! `shard_plan` section — cut-traffic fraction, load imbalance,
//! lookahead, and the predicted speedup ceiling.

use crate::scale::ScaleBlaster;
use btr_model::{NodeId, Time, Topology};
use btr_obs::{ObsRecorder, Profile, Subsystem, TrafficMatrix};
use btr_sim::{SimConfig, SimMetrics, World};
use btr_topo::shard::{analyze_partition, candidate_partitions, ShardCandidate};
use btr_topo::{by_name, TopoParams};

/// Topology families profiled per sweep point. Torus is the headline
/// (it is what `harness scale` sweeps); the other families exist for
/// their distinct natural cuts.
pub const PROFILE_FAMILIES: [&str; 3] = ["torus", "fat-tree", "scada-star"];

/// One profiled (family, n) point.
#[derive(Debug, Clone)]
pub struct ProfilePoint {
    /// Topology family name (from `btr_topo::catalog`).
    pub family: &'static str,
    /// Node count.
    pub nodes: usize,
    /// Traffic periods driven.
    pub periods: u64,
    /// Baseline (unobserved) wall nanoseconds.
    pub baseline_wall_ns: u128,
    /// Engine metrics of the baseline run.
    pub metrics: SimMetrics,
    /// Logical trace digest of the baseline run.
    pub digest: u64,
    /// True when the counts pass reproduced the baseline bit-for-bit
    /// (same metrics, same logical digest) — the inertness proof.
    pub inert: bool,
    /// Digest-stable per-subsystem event counts (counts pass).
    pub counts: Profile,
    /// Per-node / per-link traffic matrix (counts pass).
    pub traffic: TrafficMatrix,
    /// Per-subsystem wall nanoseconds (wall pass; counts ledger also
    /// populated but identical to `counts` by determinism).
    pub wall: Profile,
    /// End-to-end wall nanoseconds of the wall pass.
    pub wall_total_ns: u128,
    /// Scored candidate partitions for the family's natural cuts.
    pub shard_plan: Vec<ShardCandidate>,
}

impl ProfilePoint {
    /// Baseline wall nanoseconds per delivered message.
    pub fn ns_per_delivery(&self) -> f64 {
        if self.metrics.msgs_delivered == 0 {
            return 0.0;
        }
        self.baseline_wall_ns as f64 / self.metrics.msgs_delivered as f64
    }

    /// Wall nanoseconds not attributed to any scoped subsystem in the
    /// wall pass — queue ops, event-loop bookkeeping, and the sampling
    /// itself. Published as `other` so shares sum to 100%.
    pub fn other_wall_ns(&self) -> u128 {
        self.wall_total_ns
            .saturating_sub(self.scoped_wall_ns() as u128)
    }

    /// Total wall nanoseconds the scoped subsystems accounted for.
    pub fn scoped_wall_ns(&self) -> u64 {
        self.wall.total_wall_ns()
    }

    /// One subsystem's share of the wall pass's end-to-end time, in
    /// per cent. [`Subsystem::Other`] reports the unscoped remainder.
    pub fn wall_share_pct(&self, s: Subsystem) -> f64 {
        if self.wall_total_ns == 0 {
            return 0.0;
        }
        let ns = if s == Subsystem::Other {
            self.other_wall_ns()
        } else {
            self.wall.wall_ns(s) as u128
        };
        ns as f64 / self.wall_total_ns as f64 * 100.0
    }

    /// The traffic matrix must be a re-aggregation of the engine
    /// counters: per-node sends, deliveries, and drops sum to the
    /// `SimMetrics` totals, and per-link bytes sum to `bytes_sent`.
    pub fn traffic_consistent(&self) -> bool {
        traffic_matches_metrics(&self.traffic, &self.metrics)
    }
}

/// The four row/column-sum invariants tying a [`TrafficMatrix`] to the
/// engine's [`SimMetrics`] (also pinned by property tests on random
/// scenarios).
pub fn traffic_matches_metrics(t: &TrafficMatrix, m: &SimMetrics) -> bool {
    t.tx_total() == m.msgs_sent
        && t.rx_total() == m.msgs_delivered
        && t.drop_total() == m.drops_guardian + m.drops_forward + m.drops_other
        && t.link_bytes_total() == m.bytes_sent
}

/// Build the profiled topology for one (family, n) point: the family's
/// catalog generator with the scale benchmark's link parameters.
pub fn profile_topology(family: &str, n: usize) -> Topology {
    let generator = by_name(family).expect("profiled families are in the catalog");
    let mut p = TopoParams::new(n);
    p.bytes_per_ms = 1_000_000;
    generator(&p).expect("profiled sizes instantiate")
}

/// Build one profile world: the scale-benchmark traffic on `topo`,
/// including the mid-run relay crash (which is what exercises the
/// mode-switch subsystem scope).
pub fn profile_world(topo: Topology, n: usize, seed: u64, periods: u64) -> World {
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
    if n >= 4 {
        w.schedule_control(
            Time(periods / 2 * w.period().as_micros()),
            btr_sim::ControlAction::Crash(NodeId(1)),
        );
    }
    w
}

fn run_to_horizon(w: &mut World, periods: u64) -> u128 {
    w.start();
    let horizon = crate::hotpath::horizon(w, periods);
    let start = std::time::Instant::now();
    w.run_until(horizon);
    start.elapsed().as_nanos()
}

fn take_obs(w: &mut World) -> ObsRecorder {
    w.take_recorder()
        .and_then(|r| {
            r.as_any()
                .and_then(|a| a.downcast_ref::<ObsRecorder>().cloned())
        })
        .unwrap_or_default()
}

/// Measure one (family, n) profile point: baseline, counts, and wall
/// passes plus the shard plan over the measured traffic.
pub fn measure_profile_point(
    family: &'static str,
    n: usize,
    seed: u64,
    target_msgs: u64,
) -> ProfilePoint {
    let periods = (target_msgs / (4 * n as u64)).max(20);
    let topo = profile_topology(family, n);

    // Pass 1: baseline, nothing installed.
    let mut w = profile_world(topo.clone(), n, seed, periods);
    let baseline_wall_ns = run_to_horizon(&mut w, periods);
    let metrics = *w.metrics();
    let digest = w.logical_trace().digest();

    // Pass 2: counts. Must reproduce the baseline bit-for-bit.
    let mut w = profile_world(topo.clone(), n, seed, periods);
    w.set_recorder(Box::new(ObsRecorder::new()));
    let _ = run_to_horizon(&mut w, periods);
    let counts_metrics = *w.metrics();
    let inert = counts_metrics == metrics && w.logical_trace().digest() == digest;
    let rec = take_obs(&mut w);
    let counts = rec.subsystem_profile().clone();
    let traffic = rec.traffic_matrix().clone();

    // Pass 3: wall sampling. The per-subsystem nanoseconds are
    // machine-dependent and never enter a digest.
    let mut w = profile_world(topo.clone(), n, seed, periods);
    w.set_recorder(Box::new(ObsRecorder::new()));
    w.set_wall_profiling(true);
    let wall_total_ns = run_to_horizon(&mut w, periods);
    let wall = take_obs(&mut w).subsystem_profile().clone();

    let shard_plan = candidate_partitions(family, n)
        .iter()
        .map(|(name, assign)| analyze_partition(&topo, assign, &traffic, name))
        .collect();

    ProfilePoint {
        family,
        nodes: n,
        periods,
        baseline_wall_ns,
        metrics,
        digest,
        inert,
        counts,
        traffic,
        wall,
        wall_total_ns,
        shard_plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_profile_is_inert_and_consistent() {
        let p = measure_profile_point("torus", 20, 7, 4_000);
        assert!(p.inert, "count profiling perturbed the run: {p:?}");
        assert!(p.traffic_consistent(), "{:?} vs {:?}", p.traffic, p.metrics);
        assert!(p.counts.count(Subsystem::Routing) > 0);
        assert!(p.counts.count(Subsystem::CryptoSign) > 0);
        assert!(p.counts.count(Subsystem::Dispatch) > 0);
        // The mid-run crash heals routes: a mode switch was profiled.
        assert!(p.counts.count(Subsystem::ModeSwitch) > 0);
        assert_eq!(p.counts.total_wall_ns(), 0, "counts pass sampled wall");
    }

    #[test]
    fn count_profiles_are_deterministic() {
        let a = measure_profile_point("torus", 20, 7, 4_000);
        let b = measure_profile_point("torus", 20, 7, 4_000);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn wall_pass_attributes_time_and_keeps_shares_complete() {
        let p = measure_profile_point("torus", 20, 7, 4_000);
        assert!(p.wall.total_wall_ns() > 0, "wall pass recorded nothing");
        assert!(
            p.scoped_wall_ns() as u128 <= p.wall_total_ns,
            "scoped wall {} exceeds end-to-end {}",
            p.scoped_wall_ns(),
            p.wall_total_ns
        );
        let share_sum: f64 = Subsystem::all().iter().map(|&s| p.wall_share_pct(s)).sum();
        assert!(
            (share_sum - 100.0).abs() < 0.01,
            "shares sum to {share_sum}"
        );
    }

    #[test]
    fn every_family_scores_at_least_two_partitions() {
        for family in PROFILE_FAMILIES {
            let p = measure_profile_point(family, 100, 7, 2_000);
            assert!(p.inert, "{family}: profiling perturbed the run");
            assert!(
                p.shard_plan.len() >= 2,
                "{family}: only {} candidates",
                p.shard_plan.len()
            );
            for c in &p.shard_plan {
                assert!(
                    c.cut_traffic_fraction > 0.0,
                    "{family}/{}: no cut traffic",
                    c.name
                );
                assert!(c.predicted_ceiling >= 1.0, "{family}/{}: {c:?}", c.name);
                assert!(c.lookahead_us > 0, "{family}/{}: zero lookahead", c.name);
            }
        }
    }

    #[test]
    fn signed_lane_is_separated() {
        let p = measure_profile_point("torus", 20, 7, 4_000);
        // The blaster sends 3 unsigned + 1 signed per node per period:
        // both lanes must carry traffic, and they must sum to the total.
        assert!(p.traffic.link_bytes_signed_total() > 0);
        assert!(p.traffic.link_bytes_total() > p.traffic.link_bytes_signed_total());
    }
}
