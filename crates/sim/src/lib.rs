//! Deterministic discrete-event simulation of the CPS platform.
//!
//! This crate is the substitute for the paper's hardware testbed (see
//! DESIGN.md): nodes with finite processing speed and local clocks,
//! links with finite bandwidth and static per-sender allocations, and a
//! Byzantine adversary who "has compromised some subset of the nodes and
//! has complete control over them" (Section 2.1).
//!
//! Key properties:
//!
//! * **Determinism.** Events are ordered by `(time, sequence)`; identical
//!   seeds produce bit-identical traces. The BTR output oracle depends on
//!   this: a faulty run is compared against a fault-free reference run.
//! * **Key secrecy.** A node behaviour can only reach its *own* signer
//!   through [`NodeCtx::signer`]; forging another node's signature is
//!   impossible by construction, which is what makes evidence sound.
//! * **MAC-enforced bandwidth.** Every transmission — including those of
//!   compromised nodes — passes its originator's link guardian from
//!   `btr-net`, mirroring the paper's hardware-MAC argument; relays
//!   forward on the originator's reservation (DESIGN.md "Network model").
//! * **Transparent multi-hop routing** that heals around crashed relays,
//!   so omission faults become observable end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod queue;
mod scratch;
mod seat;
pub mod trace;
pub mod world;

pub use scratch::Scratch;
pub use seat::Seat;
pub use trace::{DropReason, LogicalTrace, SimMetrics, TraceEvent};
pub use world::{Actuation, ControlAction, CtxBackend, NodeCtx, SimConfig, World};

use btr_model::Envelope;

/// Timer identifier, chosen freely by node behaviours.
pub type TimerId = u64;

/// The interface every node's software implements.
///
/// The simulator calls these hooks; behaviours react by calling
/// [`NodeCtx`] methods (send, set timers, actuate). A *correct* node runs
/// the BTR runtime from `btr-runtime`; a *compromised* node runs whatever
/// the adversary scripted.
pub trait NodeBehavior {
    /// Called once at simulation start.
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>);
    /// Called when a message is delivered to this node.
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope);
    /// Called when a timer set by this node fires.
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: TimerId);
    /// Downcast hook so tests and experiment harnesses can inspect a
    /// behaviour's state through [`world::World::behavior`].
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// A behaviour that does nothing (useful as a default and in tests).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdleBehavior;

impl NodeBehavior for IdleBehavior {
    fn on_start(&mut self, _ctx: &mut NodeCtx<'_>) {}
    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) {}
    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _timer: TimerId) {}
}
