//! The simulator measurement (`harness profile`).
//!
//! Each profile point runs the scale traffic (`crate::scale`) on one
//! 2-D torus in three kinds of pass with the same seed:
//!
//! 1. **baseline** — no recorder: end-to-end wall time, throughput,
//!    allocations, routing residency, and the logical digest the other
//!    passes are held against;
//! 2. **counts** — a collecting recorder, wall sampling off: the
//!    digest-stable per-subsystem event counts. The run must be
//!    *bit-identical* to the baseline (same `SimMetrics`, same logical
//!    digest) — that equality is the inertness proof the point carries
//!    in its report — and its wall time against the baseline's is what
//!    the recorder costs.
//!    Passes 1 and 2 run [`OBS_AB_ROUNDS`] interleaved rounds and each
//!    keeps its best (minimum) wall: noise only ever adds time, so the
//!    minima converge on the true costs where single shots jitter by
//!    several per cent;
//! 3. **wall** — the recorder plus `World::set_wall_profiling`:
//!    per-subsystem wall nanoseconds. Machine-dependent, so reported
//!    but never folded into any digest; the unscoped remainder is
//!    published as `other`, making the shares sum to exactly 100% of
//!    this pass's end-to-end wall time.

use crate::scale::{ScaleBlaster, SCALE_ROUTING_BUDGET};
use btr_model::{Duration, NodeId, Time, Topology};
use btr_obs::{ObsRecorder, Profile, Subsystem};
use btr_sim::{SimConfig, SimMetrics, World};
use btr_topo::{torus, torus_dims};

/// Recorder-overhead ceiling: a collecting recorder on the hot path may
/// cost at most this much wall-clock overhead (per cent).
pub const OBS_OVERHEAD_PCT: f64 = 2.0;
/// Absolute noise floor for the overhead gate: short smoke runs jitter
/// by more than 2% run-to-run, so deltas below this many nanoseconds
/// never fail the gate.
pub const OBS_NOISE_NS: u128 = 10_000_000;
/// Interleaved baseline/counts rounds per point; each side keeps its
/// best wall.
pub const OBS_AB_ROUNDS: u32 = 3;

/// One profiled torus point.
#[derive(Debug, Clone)]
pub struct ProfilePoint {
    /// Node count.
    pub nodes: usize,
    /// Traffic periods driven.
    pub periods: u64,
    /// Baseline (unobserved) wall nanoseconds, best round.
    pub baseline_wall_ns: u128,
    /// Counts-pass (collecting recorder) wall nanoseconds, best round.
    pub observed_wall_ns: u128,
    /// Engine metrics of the baseline run.
    pub metrics: SimMetrics,
    /// Heap allocations during the baseline run (0 without a counting
    /// allocator; the harness binary installs one).
    pub allocations: u64,
    /// Routing-resident heap bytes at the end of the baseline run.
    pub routing_resident_bytes: usize,
    /// Selected routing backend ("precomputed" / "demand").
    pub routing_kind: &'static str,
    /// Routing rows the baseline run built by BFS, heals included (0 for
    /// the precomputed backend).
    pub routing_rows_built: u64,
    /// Of those, stale rows rebuilt because a message's walk crossed the
    /// crashed relay — what the crash cost the routing layer.
    pub routing_rows_healed: u64,
    /// Envelopes still parked in the event arena after the baseline run
    /// (must be 0: the queue drained).
    pub envelopes_leaked: usize,
    /// True if the baseline run hit the event-cap safety valve before
    /// the horizon — the point covers a prefix, not the scenario.
    pub truncated: bool,
    /// Logical trace digest of the baseline run.
    pub digest: u64,
    /// True when the counts pass reproduced the baseline bit-for-bit
    /// (same metrics, same logical digest) — the inertness proof.
    pub inert: bool,
    /// Digest-stable per-subsystem event counts (counts pass).
    pub counts: Profile,
    /// Per-subsystem wall nanoseconds (wall pass; counts ledger also
    /// populated but identical to `counts` by determinism).
    pub wall: Profile,
    /// End-to-end wall nanoseconds of the wall pass.
    pub wall_total_ns: u128,
}

impl ProfilePoint {
    /// Delivered messages per baseline wall-clock second.
    pub fn msgs_per_sec(&self) -> f64 {
        if self.baseline_wall_ns == 0 {
            return 0.0;
        }
        self.metrics.msgs_delivered as f64 / (self.baseline_wall_ns as f64 / 1e9)
    }

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

    /// The gates `harness profile` exits 1 on, one line per gate this
    /// point trips (empty when healthy).
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failed = Vec::new();
        if !self.inert {
            failed.push("count profiling perturbed the run".to_string());
        }
        if self.counts.total_count() == 0 {
            failed.push("the recorder staged no subsystem events".to_string());
        }
        if self.routing_resident_bytes > SCALE_ROUTING_BUDGET {
            failed.push(format!(
                "routing residency {} exceeds the sub-quadratic budget {SCALE_ROUTING_BUDGET}",
                self.routing_resident_bytes
            ));
        }
        if self.metrics.msgs_delivered == 0 {
            failed.push("delivered nothing".to_string());
        }
        if self.envelopes_leaked != 0 {
            failed.push(format!("leaked {} arena envelopes", self.envelopes_leaked));
        }
        if self.truncated {
            failed.push("hit the event-cap safety valve (truncated measurement)".to_string());
        }
        failed
    }
}

/// What the collecting recorder cost over a whole sweep: every point's
/// best baseline wall against its best counts-pass wall, summed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsOverhead {
    /// Summed best baseline walls (ns).
    pub baseline_wall_ns: u128,
    /// Summed best counts-pass walls (ns).
    pub observed_wall_ns: u128,
}

impl ObsOverhead {
    /// Sum the sweep's points.
    pub fn of(points: &[ProfilePoint]) -> ObsOverhead {
        ObsOverhead {
            baseline_wall_ns: points.iter().map(|p| p.baseline_wall_ns).sum(),
            observed_wall_ns: points.iter().map(|p| p.observed_wall_ns).sum(),
        }
    }

    /// Recorder overhead in per cent of the baseline (NaN on an empty
    /// sweep; a recorder run that came out faster reads 0).
    pub fn pct(&self) -> f64 {
        if self.baseline_wall_ns == 0 {
            return f64::NAN;
        }
        let delta = self.observed_wall_ns.saturating_sub(self.baseline_wall_ns);
        delta as f64 / self.baseline_wall_ns as f64 * 100.0
    }

    /// The gate: over [`OBS_OVERHEAD_PCT`] *and* over the absolute
    /// [`OBS_NOISE_NS`] floor, which keeps it meaningful on smoke runs.
    pub fn exceeded(&self) -> bool {
        self.pct() > OBS_OVERHEAD_PCT
            && self.observed_wall_ns.saturating_sub(self.baseline_wall_ns) > OBS_NOISE_NS
    }
}

/// Build one profile world: the scale traffic on `topo`, with one relay
/// dying mid-run so the link layer must heal multi-hop routes around it
/// (table rebuild below the backend threshold, stale rows healed on
/// demand above it) — which is also what exercises the mode-switch
/// subsystem scope.
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

/// The horizon by which `periods` periods have run and their traffic
/// has drained (one second past the last).
pub(crate) fn horizon(period: Duration, periods: u64) -> Time {
    Time(periods * period.as_micros() + 1_000_000)
}

/// Start `w`, run it to the horizon, and return wall nanoseconds and
/// the allocations `alloc_counter` saw meanwhile.
fn run_to_horizon(w: &mut World, periods: u64, alloc_counter: &dyn Fn() -> u64) -> (u128, u64) {
    w.start();
    let horizon = horizon(w.period(), periods);
    let allocs_before = alloc_counter();
    let start = std::time::Instant::now();
    w.run_until(horizon);
    let wall_ns = start.elapsed().as_nanos();
    (wall_ns, alloc_counter().saturating_sub(allocs_before))
}

/// Measure one torus profile point of `n` nodes: baseline, counts, and
/// wall passes. `alloc_counter` reads the process-wide allocation count
/// (the harness wires in its counting allocator; library callers pass
/// `|| 0`).
pub fn measure_profile_point(
    n: usize,
    seed: u64,
    target_msgs: u64,
    alloc_counter: &dyn Fn() -> u64,
) -> ProfilePoint {
    // Sends per period = 4 per node; pick periods to hit the target
    // message count so every point does comparable work.
    let periods = (target_msgs / (4 * n as u64)).max(20);
    // The most nearly square torus of exactly `n` nodes.
    let (rows, cols) = torus_dims(n);
    let topo = torus(rows, cols, 1_000_000, Duration(5)).expect("profiled sizes instantiate");

    // Passes 1 and 2, interleaved. Every round of a pass is the same
    // deterministic run, so everything but the wall clock is read off
    // the last round.
    let mut baseline_wall_ns = u128::MAX;
    let mut observed_wall_ns = u128::MAX;
    let mut last_round = None;
    for _ in 0..OBS_AB_ROUNDS {
        // Pass 1: baseline, nothing installed.
        let mut base = profile_world(topo.clone(), n, seed, periods);
        let (wall_ns, allocations) = run_to_horizon(&mut base, periods, alloc_counter);
        baseline_wall_ns = baseline_wall_ns.min(wall_ns);
        // Pass 2: counts. Must reproduce the baseline bit-for-bit.
        let mut observed = profile_world(topo.clone(), n, seed, periods);
        observed.set_recorder(Box::new(ObsRecorder::new()));
        let (wall_ns, _) = run_to_horizon(&mut observed, periods, alloc_counter);
        observed_wall_ns = observed_wall_ns.min(wall_ns);
        last_round = Some((base, allocations, observed));
    }
    let (base, allocations, mut observed) = last_round.expect("OBS_AB_ROUNDS is at least 1");
    let (routing_rows_built, routing_rows_healed) = base.routing_rows_built();
    let metrics = *base.metrics();
    let digest = base.logical_trace().digest();
    let inert = *observed.metrics() == metrics && observed.logical_trace().digest() == digest;
    let rec = observed.take_obs();
    let counts = rec.subsystem_profile().clone();

    // Pass 3: wall sampling. The per-subsystem nanoseconds are
    // machine-dependent and never enter a digest.
    let mut w = profile_world(topo, n, seed, periods);
    w.set_recorder(Box::new(ObsRecorder::new()));
    w.set_wall_profiling(true);
    let (wall_total_ns, _) = run_to_horizon(&mut w, periods, alloc_counter);
    let wall = w.take_obs().subsystem_profile().clone();

    ProfilePoint {
        nodes: n,
        periods,
        baseline_wall_ns,
        observed_wall_ns,
        metrics,
        allocations,
        routing_resident_bytes: base.routing_resident_bytes(),
        routing_kind: base.routing_kind(),
        routing_rows_built,
        routing_rows_healed,
        envelopes_leaked: base.envelopes_in_flight(),
        truncated: base.truncated(),
        digest,
        inert,
        counts,
        wall,
        wall_total_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_profile_is_inert_and_consistent() {
        let p = measure_profile_point(20, 7, 4_000, &|| 0);
        assert!(p.inert, "count profiling perturbed the run: {p:?}");
        // One dispatch count per delivered message and per fired timer.
        assert_eq!(
            p.counts.count(Subsystem::Dispatch),
            p.metrics.msgs_delivered + p.metrics.timers
        );
        assert!(p.counts.count(Subsystem::Routing) > 0);
        assert!(p.counts.count(Subsystem::CryptoSign) > 0);
        // The mid-run crash heals routes: a mode switch was profiled.
        assert!(p.counts.count(Subsystem::ModeSwitch) > 0);
        assert_eq!(p.counts.total_wall_ns(), 0, "counts pass sampled wall");
    }

    #[test]
    fn count_profiles_are_deterministic() {
        let a = measure_profile_point(20, 7, 4_000, &|| 0);
        let b = measure_profile_point(20, 7, 4_000, &|| 0);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn wall_pass_attributes_time_and_keeps_shares_complete() {
        let p = measure_profile_point(20, 7, 4_000, &|| 0);
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
    fn signed_lane_is_separated() {
        let p = measure_profile_point(20, 7, 4_000, &|| 0);
        // Every firing routes 3 unsigned envelopes and one signed
        // heartbeat, and signs only the heartbeat.
        let signed = p.counts.count(Subsystem::CryptoSign);
        assert!(signed > 0);
        assert_eq!(p.counts.count(Subsystem::Routing), 4 * signed);
    }

    #[test]
    fn every_point_gate_bites() {
        let healthy = measure_profile_point(20, 7, 4_000, &|| 0);
        assert_eq!(healthy.gate_failures(), Vec::<String>::new());
        assert_eq!(healthy.envelopes_leaked, 0);
        assert!(!healthy.truncated);

        // Break one thing at a time; each must trip exactly its gate.
        let trips = |break_it: &dyn Fn(&mut ProfilePoint), needle: &str| {
            let mut p = healthy.clone();
            break_it(&mut p);
            let failed = p.gate_failures();
            assert_eq!(failed.len(), 1, "{needle}: {failed:?}");
            assert!(failed[0].contains(needle), "{needle}: {failed:?}");
        };
        trips(&|p| p.inert = false, "perturbed");
        trips(&|p| p.counts = Profile::new(), "staged no subsystem events");
        trips(
            &|p| p.routing_resident_bytes = SCALE_ROUTING_BUDGET + 1,
            "sub-quadratic budget",
        );
        trips(&|p| p.metrics.msgs_delivered = 0, "delivered nothing");
        trips(&|p| p.envelopes_leaked = 3, "leaked 3");
        trips(&|p| p.truncated = true, "truncated");
    }

    #[test]
    fn the_smallest_tori_pass_every_gate() {
        for n in [2, 3] {
            let p = measure_profile_point(n, 7, 4_000, &|| 0);
            assert_eq!(p.gate_failures(), Vec::<String>::new(), "n = {n}");
        }
    }

    #[test]
    fn recorder_overhead_gate_needs_both_the_ceiling_and_the_floor() {
        let ab = |baseline_wall_ns, observed_wall_ns| ObsOverhead {
            baseline_wall_ns,
            observed_wall_ns,
        };
        // 5% of a full-length sweep: over the ceiling and the floor.
        assert!(ab(700_000_000, 735_000_000).exceeded());
        // 1.5%: under the ceiling however many nanoseconds it is.
        assert!(!ab(2_000_000_000, 2_030_000_000).exceeded());
        // 10% of a smoke run is 7 ms: inside the noise floor.
        assert!(!ab(70_000_000, 77_000_000).exceeded());
        // A recorder run that came out faster costs nothing.
        assert_eq!(ab(100, 90).pct(), 0.0);
        assert!(!ab(0, 0).exceeded());

        let p = measure_profile_point(20, 7, 4_000, &|| 0);
        let sum = ObsOverhead::of(&[p.clone(), p.clone()]);
        assert_eq!(sum.baseline_wall_ns, 2 * p.baseline_wall_ns);
        assert_eq!(sum.observed_wall_ns, 2 * p.observed_wall_ns);
    }
}
