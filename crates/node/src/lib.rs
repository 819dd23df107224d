//! btr-node: the live BTR runtime, on a real thread and the wall clock.
//!
//! The simulator (`btr-sim`) substitutes for the paper's hardware
//! testbed; this crate substitutes for its *deployment*. [`run_live`]
//! builds the simulator's own `World` on a worker thread and drives it
//! one event at a time, each once the wall clock reaches its logical
//! instant under a pacer, so that recovery is measured on the wall clock
//! against the paper's R bound. All protocol-visible time is logical, so
//! a live run must produce the simulator's canonical actuation trace
//! (`LogicalTrace`), however late the worker runs behind the wall. What
//! the fleet adds to the world: the wall deadline and its overruns, a
//! worker wedged in a dispatch left behind, panic isolation per step,
//! restarts of crashed nodes, and wall-stamped [`RuntimeEvent`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod supervisor;

pub use supervisor::{
    run_live, DropTotals, EventKind, LiveConfig, LiveReport, PanicReport, RuntimeEvent,
};
