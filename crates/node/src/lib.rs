//! btr-node: a live thread-per-node BTR runtime.
//!
//! The simulator (`btr-sim`) substitutes for the paper's hardware
//! testbed; this crate substitutes for its *deployment*: every node is
//! an independently scheduled actor on its own OS thread with a bounded
//! mailbox, a wall-clock-paced agenda, and an in-process loopback
//! transport mirroring the `btr_net` link parameters. Crashes are real
//! thread deaths; recovery is measured on the wall clock against the
//! paper's R bound; and the simulator is the *trace oracle*: all
//! protocol-visible time is logical, so a fault-free live run must be
//! bit-identical to the simulated one on its canonical actuation trace
//! (`LogicalTrace`), and every pinned fault scenario must recover live
//! exactly as it recovers simulated.
//!
//! Layering:
//!
//! * `transport` — the `Loopback` network: routes, per-hop delays,
//!   deterministic loss, bounded mailboxes, crash/restore, and the
//!   causal frontier with its gate and wake-ups.
//! * `actor` — `LiveCtx` (the live `CtxBackend`: the substrate's half
//!   of hosting a node; the node's half is the `btr_sim::Seat` both
//!   substrates derive alike) and the per-node event loop over one
//!   agenda, paced against the wall clock, which also stops the node at
//!   its scripted crash.
//! * `supervisor` — [`run_live`] spawns the fleet of plain `BtrNode`s,
//!   each with the attack and the crash instant the scenario scripts for
//!   it, watches for panics, crashes, and deadline overruns, restarts
//!   scripted crash victims, and assembles the [`LiveReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod supervisor;
mod transport;

pub use actor::{EventKind, RuntimeEvent};
pub use supervisor::{run_live, DropTotals, LiveConfig, LiveReport, PanicReport};
