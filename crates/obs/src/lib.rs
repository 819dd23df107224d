//! `btr-obs`: the observability layer shared by the simulator and the
//! live runtime.
//!
//! The paper's whole claim is a *time bound* — every fault recovered
//! within R — so the interesting question is never "did it recover" but
//! "where did the time go". This crate answers that without touching
//! the protocol: every type here is **strictly read-only and
//! out-of-band**. Instrumented code hands copies of facts (an event was
//! dispatched, a fault activated, a node convicted) to a [`Recorder`];
//! nothing a recorder does can flow back into protocol state, timing,
//! RNG streams, or message bytes. That is the inertness argument the
//! bit-identical-replay contract of PRs 1–6 relies on, and it is pinned
//! by property tests: obs-on and obs-off runs produce identical logical
//! trace digests and `SimMetrics`.
//!
//! Pieces:
//! - [`Histogram`]: allocation-free log-bucketed latency histogram
//!   (HDR-style, fixed `[u64; 64]` power-of-two buckets, mergeable).
//! - [`Recorder`] / [`ObsRecorder`]: the hook trait and the collecting
//!   implementation.
//! - [`PhaseMark`] / [`RecoveryTimeline`]: per-fault phase marks
//!   (activation → evidence → attribution → switch → recovered) folded
//!   into a five-phase breakdown whose durations sum exactly to the
//!   judged end-to-end recovery window.
//! - [`FlightRecorder`]: a fixed-capacity per-node ring buffer of the
//!   last K dispatches, whose tail the live fleet reports with a
//!   behaviour panic.
//! - [`TraceBuilder`]: Chrome `trace_event` JSON export so a recovery
//!   can be inspected on a timeline (`chrome://tracing`, Perfetto).
//! - [`Profile`] / [`Subsystem`]: deterministic per-subsystem cost
//!   profiles — digest-stable event counts plus optional wall-sampled
//!   nanoseconds that are reported but never folded into digests. The
//!   repository benchmark's traced slices read both ledgers, and every
//!   campaign cell records its reference run's counts.
//! - [`json`]: the one JSON writer every report in the workspace goes
//!   through — three layouts, one set of escape, null and number rules.

#![forbid(unsafe_code)]

mod flight;
mod hist;
pub mod json;
mod profile;
mod recorder;
mod timeline;
mod trace_event;

pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use hist::Histogram;
pub use profile::{Profile, Subsystem};
pub use recorder::{Counter, Lat, ObsRecorder, Recorder, COUNTER_KINDS};
pub use timeline::{Phase, PhaseMark, RecoveryTimeline};
pub use trace_event::TraceBuilder;
