//! Experiment kernels and the two measurements behind the `harness`
//! binary.
//!
//! The paper (HotOS XV) has no tables or figures; DESIGN.md defines the
//! experiment suite its claims imply (E1–E10 plus ablations A1–A2), and
//! every function in [`experiments`] regenerates one of them; the
//! `harness` binary prints the tables. [`profile`] is the simulator
//! measurement (`harness profile`) and [`live`] the thread-fleet one
//! (`harness live`). `hotpath` and `signed` hold the two pinned mesh-20
//! scenarios to their goldens; their wall clocks are the repository
//! benchmark's (`benchmark/`), so nothing outside the tests builds them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
#[cfg(test)]
mod hotpath;
pub mod live;
pub mod profile;
pub mod scale;
#[cfg(test)]
mod signed;
pub mod table;

pub use experiments::*;
pub use table::Table;
