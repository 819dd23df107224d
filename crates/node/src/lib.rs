//! btr-node: a live BTR runtime on a real thread and the wall clock.
//!
//! The simulator (`btr-sim`) substitutes for the paper's hardware
//! testbed; this crate substitutes for its *deployment*: every node is
//! a host with its own bounded mailbox and wall-clock-paced agenda, and
//! one worker thread steps the hosts over an in-process loopback
//! transport mirroring the `btr_net` link parameters. Crashes detach a
//! node for real; recovery is measured on the wall clock against the
//! paper's R bound; and the simulator is the *trace oracle*: all
//! protocol-visible time is logical, so every live run must be
//! bit-identical to the simulated one on its canonical actuation trace
//! (`LogicalTrace`), however late the worker runs behind the wall.
//!
//! Layering:
//!
//! * `transport` — the `Loopback` network: routes, per-hop delays,
//!   deterministic loss, bounded mailboxes, crash/restore, and each
//!   node's earliest undrained arrival.
//! * `actor` — `LiveCtx` (the live `CtxBackend`; the node's half is the
//!   `btr_sim::Seat` both substrates derive alike) and the node host,
//!   whose head is its earliest pending work and whose `step` starts
//!   the node, dispatches one event, or finishes it.
//! * `supervisor` — [`run_live`] builds a host per plain `BtrNode`, each
//!   with the attack and crash instant the scenario scripts for it, runs
//!   the worker that steps the least head first, catches panics,
//!   restarts crash victims, records deadline overruns, and assembles
//!   the [`LiveReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod supervisor;
mod transport;

pub use actor::{EventKind, RuntimeEvent};
pub use supervisor::{run_live, DropTotals, LiveConfig, LiveReport, PanicReport};
