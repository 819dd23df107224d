//! The pinned simulator hot-path scenario and its goldens.
//!
//! A 20-node end-to-end workload that stresses the simulator's
//! per-message costs: multi-hop routing on a mesh (O(1) cached route
//! slices), per-shard FEC loss sampling (one xoshiro256** stream per
//! world), signed control traffic (scratch-buffer signing), and unsigned
//! data-plane traffic. Runs are deterministic per seed; the tests below
//! pin them with golden counters and a golden trace digest. The wall
//! clock of this scenario is the benchmark's `sim_mesh20_unsigned`
//! workload (`benchmark/`); this module only holds the run to its bits.
//! The same traffic on the torus of `sim_torus1000_unsigned`, relay
//! crash included, is held to its routing and inertness facts here too.

use btr_model::{Duration, Envelope, NodeId, Payload, Time, Topology};
use btr_sim::{NodeBehavior, NodeCtx, SimConfig, SimMetrics, TimerId, World};

/// Nodes in the pinned scenario (4x5 mesh).
pub const HOTPATH_NODES: usize = 20;
/// Per-shard loss probability (ppm) in the pinned scenario.
pub const HOTPATH_LOSS_PPM: u32 = 20_000;
/// FEC code of the pinned scenario: 4 data + 2 parity shards.
pub const HOTPATH_FEC: (u8, u8) = (4, 2);

/// Traffic generator: every period, each node sends three unsigned
/// data-plane envelopes to distant peers (multi-hop on the mesh) and one
/// signed heartbeat to its successor.
struct Blaster {
    period: Duration,
    periods: u64,
    fired: u64,
    n: u32,
    /// Far-peer strides of the data plane: coprime with n on the mesh so
    /// the whole mesh sees traffic; the torus swaps the middle one for the
    /// antipode so routes reach diameter length.
    strides: [u32; 3],
}

impl NodeBehavior for Blaster {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(Duration(0), 0);
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId) {
        let me = ctx.id().0;
        let n = self.n;
        for stride in self.strides {
            let dst = NodeId((me + stride) % n);
            let env = Envelope::new(
                ctx.id(),
                dst,
                ctx.local_now(),
                Payload::Control((stride % 251) as u8),
            );
            ctx.send_env(env);
        }
        // Signed control plane: heartbeat to the successor.
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

/// Build the pinned 20-node world.
///
/// `loss_ppm` is parameterised so the golden-trace test can turn losses
/// off; `trace` enables full event tracing for the determinism tests.
pub fn hotpath_world(seed: u64, periods: u64, loss_ppm: u32, trace: bool) -> World {
    let topo = Topology::mesh(4, 5, 1_000_000, Duration(5));
    let mut cfg = SimConfig::new(seed);
    cfg.loss_ppm = loss_ppm;
    cfg.fec = if loss_ppm > 0 {
        Some(HOTPATH_FEC)
    } else {
        None
    };
    cfg.trace = trace;
    let mut w = World::new(topo, cfg);
    for i in 0..HOTPATH_NODES as u32 {
        w.set_behavior(
            NodeId(i),
            Box::new(Blaster {
                period: w.period(),
                periods,
                fired: 0,
                n: HOTPATH_NODES as u32,
                strides: [7, 11, 13],
            }),
        );
    }
    w
}

/// The horizon by which `periods` periods have run and their traffic
/// has drained (one second past the last).
pub(crate) fn horizon(period: Duration, periods: u64) -> Time {
    Time(periods * period.as_micros() + 1_000_000)
}

/// Run the pinned scenario to completion and return its metrics.
pub fn run_hotpath(seed: u64, periods: u64, loss_ppm: u32) -> SimMetrics {
    let mut w = hotpath_world(seed, periods, loss_ppm, false);
    w.start();
    w.run_until(horizon(w.period(), periods));
    *w.metrics()
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_obs::{Counter, Lat, ObsRecorder, Subsystem};
    use btr_sim::{ControlAction, TraceEvent};

    fn traced_run(seed: u64, periods: u64, loss_ppm: u32) -> (SimMetrics, Vec<TraceEvent>) {
        let mut w = hotpath_world(seed, periods, loss_ppm, true);
        w.start();
        w.run_until(horizon(w.period(), periods));
        (*w.metrics(), w.trace().to_vec())
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let a = traced_run(11, 50, HOTPATH_LOSS_PPM);
        let b = traced_run(11, 50, HOTPATH_LOSS_PPM);
        assert_eq!(a.0, b.0, "metrics diverged");
        assert_eq!(a.1, b.1, "traces diverged");
    }

    #[test]
    fn loss_free_run_matches_pinned_golden() {
        // With the loss sampler out of the picture, routing, signing and
        // the event queue alone decide the run. The golden — the metrics
        // plus a SHA-256 over the `Debug` of the full trace — was recorded
        // at 584b735 from the seed implementation of all three (per-
        // message route walk, allocating signing, inline-heap queue).
        let (m, trace) = traced_run(23, 100, 0);
        let golden = SimMetrics {
            msgs_sent: 8_000,
            bytes_sent: 1_496_200,
            msgs_delivered: 8_000,
            drops_guardian: 0,
            drops_forward: 0,
            drops_other: 0,
            events: 10_000,
            timers: 2_000,
            actuations: 0,
        };
        assert_eq!(m, golden, "loss-free pinned run changed");
        assert_eq!(trace.len(), 16_000);
        assert_eq!(
            btr_crypto::sha256(format!("{trace:?}").as_bytes()).to_hex(),
            "f66ebe3ee422f892bc2f4f853ba8fc0e1c8b63be532f9c2ed6d66fe1e5fc43d6",
            "loss-free pinned trace changed"
        );
    }

    #[test]
    fn different_seeds_diverge_under_loss() {
        let a = run_hotpath(1, 100, HOTPATH_LOSS_PPM);
        let b = run_hotpath(2, 100, HOTPATH_LOSS_PPM);
        assert_ne!(
            (a.drops_other, a.msgs_delivered),
            (b.drops_other, b.msgs_delivered),
            "independent seeds should sample different loss patterns"
        );
    }

    #[test]
    fn loss_rate_tracks_config() {
        // FEC(4,2) at 2% per-shard loss: a message dies iff >= 3 of its 6
        // shards drop, i.e. P = C(6,3)·0.02³·0.98³ + ... ≈ 1.5e-4. Over
        // 160 000 attempts the expectation is ~24 drops (σ ≈ 5); the band
        // below is > 4σ wide on both sides.
        let m = run_hotpath(5, 2_000, HOTPATH_LOSS_PPM);
        let attempts = m.msgs_sent + m.drops_other;
        let rate = m.drops_other as f64 / attempts as f64;
        assert!(
            (0.00004..0.0004).contains(&rate),
            "loss rate {rate} outside expected band ({} of {attempts})",
            m.drops_other
        );
    }

    #[test]
    fn lossy_run_matches_pinned_golden() {
        // The lossy golden: xoshiro loss stream + arena-backed event
        // queue, seed 7, 200 periods. Together with the loss-free golden
        // above this pins the pinned scenario bit-for-bit run over run:
        // any change to event ordering or the loss stream moves these
        // counters.
        let m = run_hotpath(7, 200, HOTPATH_LOSS_PPM);
        let golden = SimMetrics {
            msgs_sent: 15_997,
            bytes_sent: 4_464_624,
            msgs_delivered: 15_997,
            drops_guardian: 0,
            drops_forward: 0,
            drops_other: 3,
            events: 19_997,
            timers: 4_000,
            actuations: 0,
        };
        assert_eq!(m, golden, "lossy pinned run changed");
    }

    #[test]
    fn arena_drains_after_run() {
        // Every queued envelope handle must be reclaimed by the time the
        // queue drains — a nonzero count here is an arena leak.
        let mut w = hotpath_world(7, 50, HOTPATH_LOSS_PPM, false);
        w.start();
        w.run_until(horizon(w.period(), 50));
        assert_eq!(w.queued_events(), 0);
        assert_eq!(w.envelopes_in_flight(), 0);
    }

    #[test]
    fn observed_hotpath_matches_unobserved_run() {
        // A recorder must see the *same* run: identical engine counters,
        // and tallies that agree with the metrics it shadowed.
        let plain = run_hotpath(7, 100, HOTPATH_LOSS_PPM);
        let mut w = hotpath_world(7, 100, HOTPATH_LOSS_PPM, false);
        w.set_recorder(Box::new(ObsRecorder::new()));
        w.start();
        w.run_until(horizon(w.period(), 100));
        assert_eq!(*w.metrics(), plain);
        assert!(!w.truncated());
        let rec = w.take_obs();
        assert_eq!(rec.counter(Counter::Sends), plain.msgs_sent);
        assert_eq!(rec.counter(Counter::Delivers), plain.msgs_delivered);
        assert_eq!(rec.counter(Counter::Events), plain.events);
        assert_eq!(rec.counter(Counter::Timers), plain.timers);
        let profile = rec.subsystem_profile();
        // One dispatch per delivered message and per fired timer. Every
        // firing routes three unsigned envelopes and one heartbeat, and
        // signs only the heartbeat.
        assert_eq!(
            profile.count(Subsystem::Dispatch),
            plain.msgs_delivered + plain.timers
        );
        assert_eq!(
            profile.count(Subsystem::Routing),
            4 * profile.count(Subsystem::CryptoSign)
        );
        // The recorder's ceiling, restated as work: the increments it
        // stages per dispatched event, exactly (7.80: eight for a
        // delivered message's send and delivery, seven for a timer's
        // firing and its heartbeat's signature). The benchmark judges
        // their wall cost (`sim.trace_overhead_pct`,
        // `obs.recorder_overhead_pct`); this pin makes any added
        // per-event staging a visible change.
        let staged = profile.total_count()
            + Counter::all().iter().map(|&c| rec.counter(c)).sum::<u64>()
            + rec.lat(Lat::Delivery).count()
            + rec.lat(Lat::TimerLag).count();
        assert_eq!(
            (staged, plain.events),
            (77_993, 9_999),
            "{:.4} staged increments per event",
            staged as f64 / plain.events as f64
        );
    }

    /// The benchmark's `sim_torus1000_unsigned` world over `periods`
    /// periods: the same traffic on a `rows` × `cols` torus, relay n1
    /// crashed at mid-run.
    fn torus_world(rows: usize, cols: usize, periods: u64) -> World {
        let n = (rows * cols) as u32;
        let topo = btr_topo::torus(rows, cols, 1_000_000, Duration(5)).expect("a valid torus");
        let mut w = World::new(topo, SimConfig::new(1));
        for i in 0..n {
            w.set_behavior(
                NodeId(i),
                Box::new(Blaster {
                    period: w.period(),
                    periods,
                    fired: 0,
                    n,
                    strides: [7, 13, n / 2],
                }),
            );
        }
        w.schedule_control(
            Time(periods / 2 * w.period().as_micros()),
            ControlAction::Crash(NodeId(1)),
        );
        w
    }

    #[test]
    fn torus_heals_the_crash_and_records_the_same_run() {
        let periods = 4;
        for (rows, cols) in [(1, 2), (1, 3), (25, 40)] {
            let n = rows * cols;
            let run = |recorded: bool| {
                let mut w = torus_world(rows, cols, periods);
                if recorded {
                    w.set_recorder(Box::new(ObsRecorder::new()));
                }
                w.start();
                w.run_until(horizon(w.period(), periods));
                w
            };
            let plain = run(false);
            let m = *plain.metrics();
            assert!(!plain.truncated(), "n = {n}: truncated");
            assert_eq!(plain.envelopes_in_flight(), 0, "n = {n}: leaked envelopes");
            // The dead relay never refuses traffic: routes healed around it.
            assert_eq!(m.drops_forward, 0, "n = {n}: {m:?}");
            assert!(m.msgs_delivered > 0, "n = {n}: {m:?}");
            let mut recorded = run(true);
            assert_eq!(
                *recorded.metrics(),
                m,
                "n = {n}: the recorder moved the run"
            );
            assert_eq!(
                recorded.logical_trace().digest(),
                plain.logical_trace().digest()
            );
            let switches = recorded
                .take_obs()
                .subsystem_profile()
                .count(Subsystem::ModeSwitch);
            assert_eq!(switches, 1, "n = {n}: the crash");
            if n == 1000 {
                let resident = plain.routing_resident_bytes();
                assert!(resident < 3 << 20, "{resident} routing bytes");
                // The crash takes the lazy path: some rows crossed the dead
                // relay and were rebuilt, far from all of them.
                let (built, healed) = plain.routing_rows_built();
                assert!(
                    (1..500).contains(&healed),
                    "{healed} of {built} rows healed"
                );
            }
        }
    }
}
