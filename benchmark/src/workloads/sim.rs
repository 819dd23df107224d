//! The three bare-simulator workloads.
//!
//! Each drives `btr-sim` with a traffic generator owned by this file,
//! so the protocol crates do almost no work and the event queue, the
//! dispatch loop, routing and (on the signed lane) the authenticators
//! do nearly all of it. An operation is one delivered message; a slice
//! is a fresh `World` run for a fixed number of periods.

use super::{Budget, Outcome, RunArgs, MIB};
use crate::calib::Calibrator;
use crate::trace::Tracer;
use crate::{alloc, probes, stats};
use btr::crypto::{AuthSuite, SigBatch};
use btr::model::{Duration, Envelope, NodeId, Payload, SignedOutput, TaskId, Time, Topology};
use btr::sim::{ControlAction, NodeBehavior, NodeCtx, SimConfig, SimMetrics, TimerId, World};
use btr_obs::{ObsRecorder, Subsystem};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Mesh20Unsigned,
    Torus1000Unsigned,
    Mesh20Signed,
}

/// Witnesses attached to every signed output (evidence-set size).
const WITNESSES: usize = 3;
/// Per-shard loss (ppm) and the FEC code masking it on the unsigned mesh.
const LOSS_PPM: u32 = 20_000;
const FEC: (u8, u8) = (4, 2);
/// Room for the samples of a 60 s run of the shortest slices.
const MAX_SLICES: usize = 1 << 13;

impl Kind {
    fn nodes(self) -> u32 {
        match self {
            Kind::Mesh20Unsigned | Kind::Mesh20Signed => 20,
            Kind::Torus1000Unsigned => 1000,
        }
    }

    fn periods(self, smoke: bool) -> u64 {
        let full = match self {
            Kind::Mesh20Unsigned | Kind::Mesh20Signed => 500,
            Kind::Torus1000Unsigned => 12,
        };
        if smoke {
            (full / 10).max(4)
        } else {
            full
        }
    }

    fn topology(self, tracer: &mut Tracer, op: u64) -> Topology {
        match self {
            Kind::Mesh20Unsigned | Kind::Mesh20Signed => {
                let s = tracer.begin("model.Topology::mesh", op);
                let t = Topology::mesh(4, 5, 1_000_000, Duration(5));
                tracer.end(s);
                t
            }
            Kind::Torus1000Unsigned => {
                let s = tracer.begin("topo.torus", op);
                let t = btr::topo::torus(25, 40, 1_000_000, Duration(5))
                    .expect("25x40 is a valid torus");
                tracer.end(s);
                t
            }
        }
    }

    /// Far-peer strides of the unsigned data plane; the torus swaps the
    /// middle one for the antipode so routes reach diameter length.
    fn strides(self) -> [u32; 3] {
        match self {
            Kind::Torus1000Unsigned => [7, 13, 500],
            _ => [7, 11, 13],
        }
    }
}

/// Unsigned traffic: per period each node sends three unsigned
/// envelopes to far peers and one signed heartbeat to its successor.
struct Blaster {
    period: Duration,
    periods: u64,
    fired: u64,
    n: u32,
    strides: [u32; 3],
}

impl NodeBehavior for Blaster {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(Duration(0), 0);
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId) {
        let me = ctx.id().0;
        for stride in self.strides {
            let env = Envelope::new(
                ctx.id(),
                NodeId((me + stride) % self.n),
                ctx.local_now(),
                Payload::Control((stride % 251) as u8),
            );
            ctx.send_env(env);
        }
        ctx.send(
            NodeId((me + 1) % self.n),
            Payload::Heartbeat { period: self.fired },
        );
        self.fired += 1;
        if self.fired < self.periods {
            ctx.set_timer(self.period, 0);
        }
    }
}

/// Signed traffic: per period each node signs an output, attaches its
/// last accepted outputs as witnesses and sends the set in a signed
/// envelope; the receiver audits envelope, output and witnesses the way
/// the runtime's authentication gate does.
struct SignedBlaster {
    period: Duration,
    periods: u64,
    fired: u64,
    n: u32,
    window: Vec<SignedOutput>,
    batch: SigBatch,
    ok: Vec<bool>,
    scratch: Vec<u8>,
    signs: u64,
    verifies: u64,
    rejects: u64,
}

impl NodeBehavior for SignedBlaster {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(Duration(0), 0);
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
        if ctx.verify_env(&env).is_err() {
            self.rejects += 1;
            return;
        }
        self.verifies += 1;
        if let Payload::Output { output, witnesses } = env.payload {
            self.batch.clear();
            self.ok.clear();
            output.stage_for_verify(&mut self.batch);
            for w in &witnesses {
                w.stage_for_verify(&mut self.batch);
            }
            self.verifies += self.batch.len() as u64;
            if ctx.keystore().verify_batch(&self.batch, &mut self.ok) != self.batch.len() {
                self.rejects += 1;
                return;
            }
            if self.window.len() == WITNESSES {
                self.window.remove(0);
            }
            self.window.push(output);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId) {
        let me = ctx.id().0;
        let p = self.fired;
        let output = SignedOutput::sign_with(
            ctx.signer(),
            TaskId(me),
            0,
            p,
            ((me as u64) << 32) | p,
            0,
            ctx.id(),
            &mut self.scratch,
        );
        // The output's tag, and the envelope's inside `ctx.send`.
        self.signs += 2;
        let witnesses = self.window.clone();
        ctx.send(
            NodeId((me + 1) % self.n),
            Payload::Output { output, witnesses },
        );
        self.fired += 1;
        if self.fired < self.periods {
            ctx.set_timer(self.period, 0);
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Everything up to the first timed operation: topology, `World::new`
/// (key derivation, NICs, routing state), behaviours, the scripted crash.
fn build_world(kind: Kind, seed: u64, periods: u64, tracer: &mut Tracer, op: u64) -> World {
    let topo = kind.topology(tracer, op);
    let mut cfg = SimConfig::new(seed);
    match kind {
        Kind::Mesh20Unsigned => {
            cfg.loss_ppm = LOSS_PPM;
            cfg.fec = Some(FEC);
        }
        Kind::Mesh20Signed => cfg.auth_suite = AuthSuite::SipHash24,
        Kind::Torus1000Unsigned => {}
    }
    let s = tracer.begin("sim.World::new", op);
    let mut w = World::new(topo, cfg);
    tracer.end(s);
    let n = kind.nodes();
    for i in 0..n {
        let behavior: Box<dyn NodeBehavior> = match kind {
            Kind::Mesh20Signed => Box::new(SignedBlaster {
                period: w.period(),
                periods,
                fired: 0,
                n,
                window: Vec::with_capacity(WITNESSES + 1),
                batch: SigBatch::new(),
                ok: Vec::new(),
                scratch: Vec::new(),
                signs: 0,
                verifies: 0,
                rejects: 0,
            }),
            _ => Box::new(Blaster {
                period: w.period(),
                periods,
                fired: 0,
                n,
                strides: kind.strides(),
            }),
        };
        w.set_behavior(NodeId(i), behavior);
    }
    if kind == Kind::Torus1000Unsigned {
        // One relay dies mid-run; the link layer heals multi-hop routes
        // around it.
        w.schedule_control(
            Time(periods / 2 * w.period().as_micros()),
            ControlAction::Crash(NodeId(1)),
        );
    }
    w
}

/// MAC operations and rejects summed over the signed blasters.
fn signed_totals(w: &World, n: u32) -> (u64, u64) {
    let mut sig_ops = 0;
    let mut rejects = 0;
    for i in 0..n {
        if let Some(b) = w
            .behavior(NodeId(i))
            .and_then(|b| b.as_any())
            .and_then(|a| a.downcast_ref::<SignedBlaster>())
        {
            sig_ops += b.signs + b.verifies;
            rejects += b.rejects;
        }
    }
    (sig_ops, rejects)
}

/// Why this slice's results are wrong, if they are.
fn slice_problem(
    kind: Kind,
    w: &World,
    periods: u64,
    first: Option<&SimMetrics>,
    rejects: u64,
) -> Option<String> {
    let m = w.metrics();
    let n = kind.nodes() as u64;
    if w.truncated() {
        return Some("slice hit the event cap".into());
    }
    if w.envelopes_in_flight() != 0 || w.queued_events() != 0 {
        return Some(format!(
            "{} envelopes / {} events left after the horizon",
            w.envelopes_in_flight(),
            w.queued_events()
        ));
    }
    if first.is_some_and(|f| f != m) {
        return Some(format!("metrics differ between slices of one seed: {m:?}"));
    }
    match kind {
        // Loss-free, crash-free: every send is delivered.
        Kind::Mesh20Signed => {
            if m.msgs_delivered != n * periods || rejects != 0 {
                return Some(format!(
                    "delivered {} of {} signed messages, {rejects} rejected",
                    m.msgs_delivered,
                    n * periods
                ));
            }
        }
        // Every attempt is either accepted and delivered or lost to
        // more than two dropped shards.
        Kind::Mesh20Unsigned => {
            if m.msgs_sent + m.drops_other != 4 * n * periods || m.msgs_delivered != m.msgs_sent {
                return Some(format!("attempts do not add up: {m:?}"));
            }
        }
        // The crash heals: no relay refuses, and only traffic of or to
        // the dead node is missing.
        Kind::Torus1000Unsigned => {
            if m.drops_forward != 0 || m.msgs_delivered + 8 * periods < 4 * n * periods {
                return Some(format!("route healing lost traffic: {m:?}"));
            }
        }
    }
    None
}

pub fn run(kind: Kind, args: &RunArgs, tracer: &mut Tracer, calib: &mut Calibrator) -> Outcome {
    let budget = Budget::new(args.seconds);
    let periods = kind.periods(args.smoke);
    let mut out = Outcome::default();
    let mut first: Option<SimMetrics> = None;
    // Per plain slice: wall ms, allocations, peak bytes. These are sized
    // once and declared the harness's own, so that how many slices fit
    // in the time budget does not show in `peak_heap_mb`.
    let slices = || Vec::with_capacity(MAX_SLICES);
    let (mut wall_ms, mut allocs, mut peak) = (slices(), slices(), slices());
    // Traced runs alternate plain slices with wall-profiled ones.
    let mut profiled_ms = slices();
    out.setup_s.reserve(MAX_SLICES);
    alloc::mark_harness();
    let mut profile: Option<(btr_obs::Profile, f64)> = None;
    let mut sig_ops_per_delivery = 0.0;
    let mut resident = 0;
    let mut slice = 0u64;
    while slice < 2 || !budget.spent() {
        calib.sample();
        let profiled = tracer.on() && slice % 2 == 1;
        let setup = Instant::now();
        let mut w = build_world(kind, args.seed, periods, tracer, slice);
        if profiled {
            w.set_recorder(Box::new(ObsRecorder::new()));
            w.set_wall_profiling(true);
        }
        let horizon = Time(periods * w.period().as_micros() + 1_000_000);
        out.setup_s.push(setup.elapsed().as_secs_f64());

        alloc::reset_peak();
        let allocs_before = alloc::allocations();
        let span = tracer.begin("sim.World::run_until", slice);
        let timed = Instant::now();
        w.start();
        w.run_until(horizon);
        let wall = timed.elapsed().as_secs_f64();
        tracer.end(span);
        let slice_allocs = alloc::allocations() - allocs_before;
        let slice_peak = alloc::peak_bytes();

        let (sig_ops, rejects) = signed_totals(&w, kind.nodes());
        out.check(slice_problem(kind, &w, periods, first.as_ref(), rejects));
        let m = *first.get_or_insert(*w.metrics());
        if profiled {
            profiled_ms.push(wall * 1e3);
            let rec = w
                .take_recorder()
                .and_then(|r| {
                    r.as_any()
                        .and_then(|a| a.downcast_ref::<ObsRecorder>().cloned())
                })
                .unwrap_or_default();
            // Keep the least disturbed profile.
            if profile.as_ref().is_none_or(|&(_, best)| wall < best) {
                profile = Some((rec.subsystem_profile().clone(), wall));
            }
        } else {
            wall_ms.push(wall * 1e3);
            allocs.push(slice_allocs as f64);
            peak.push(slice_peak as f64);
        }
        sig_ops_per_delivery = sig_ops as f64 / m.msgs_delivered.max(1) as f64;
        resident = w.routing_resident_bytes();
        slice += 1;
    }

    let m = first.expect("at least two slices ran");
    let delivered = m.msgs_delivered.max(1) as f64;
    out.latency_ms_p50 = stats::best(&wall_ms);
    out.throughput_per_s = delivered / (out.latency_ms_p50 / 1e3);
    out.allocs_per_op = stats::median(&allocs) / delivered;
    out.peak_heap_mb = stats::worst(&peak) / MIB;

    if tracer.on() {
        out.layer("deliveries_per_s", out.throughput_per_s);
        out.layer("allocs_per_kdelivery", out.allocs_per_op * 1e3);
        out.layer("sim.events_per_delivery", m.events as f64 / delivered);
        out.layer(
            "sim.ns_per_event",
            out.latency_ms_p50 * 1e6 / m.events.max(1) as f64,
        );
        let world_new = stats::best(&tracer.durations_us("sim.World::new"));
        match kind {
            Kind::Torus1000Unsigned => {
                out.layer("sim.world_new_us.torus1000", world_new);
                out.layer("net.routing_resident_bytes.torus1000", resident as f64);
                out.layer(
                    "topo.torus1000_build_us",
                    stats::best(&tracer.durations_us("topo.torus")),
                );
            }
            _ => {
                out.layer("sim.world_new_us.mesh20", world_new);
                out.layer("net.routing_resident_bytes.mesh20", resident as f64);
            }
        }
        if let Some((prof, wall)) = profile {
            // Scoped walls are disjoint; what no scope claimed is the
            // engine's own loop, charged to `other`, so the shares add
            // up to the whole slice.
            let scoped: u64 = Subsystem::all().iter().map(|&s| prof.wall_ns(s)).sum();
            let total_ns = (wall * 1e9).max(scoped as f64);
            for s in Subsystem::all() {
                let ns = if s == Subsystem::Other {
                    prof.wall_ns(s) as f64 + (total_ns - scoped as f64)
                } else {
                    prof.wall_ns(s) as f64
                };
                out.layer(&format!("sim.count.{}", s.label()), prof.count(s) as f64);
                out.layer(
                    &format!("sim.share_pct.{}", s.label()),
                    ns / total_ns * 100.0,
                );
            }
            out.layer(
                "sim.trace_overhead_pct",
                (stats::best(&profiled_ms) / out.latency_ms_p50 - 1.0) * 100.0,
            );
        }
        match kind {
            Kind::Mesh20Unsigned => probes::net_table(&mut out, tracer),
            Kind::Torus1000Unsigned => probes::net_demand(&mut out, tracer, args.seed),
            Kind::Mesh20Signed => {
                out.layer("crypto.sig_ops_per_delivery", sig_ops_per_delivery);
                probes::crypto(&mut out, tracer, AuthSuite::SipHash24, args.seed);
            }
        }
    }
    out
}
