//! Experiment kernels and the live-fleet measurement behind the
//! `harness` binary.
//!
//! The paper (HotOS XV) has no tables or figures; DESIGN.md defines the
//! experiment suite its claims imply (E1–E10 plus ablations A1–A2), and
//! every function in [`experiments`] regenerates one of them; the
//! `harness` binary prints the tables. [`live`] is the live-fleet
//! measurement (`harness live`). `hotpath` and `signed` hold the pinned
//! simulator scenarios to their goldens; the simulator's wall clock is
//! the repository benchmark's (`benchmark/`), so nothing outside the
//! tests builds them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
#[cfg(test)]
mod hotpath;
pub mod live;
#[cfg(test)]
mod signed;
pub mod table;

pub use experiments::*;
