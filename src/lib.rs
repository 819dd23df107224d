//! # BTR — Bounded-Time Recovery for cyber-physical systems
//!
//! A reproduction of *"Fault Tolerance and the Five-Second Rule"*
//! (Chen, Xiao, Haeberlen, Phan — HotOS XV, 2015).
//!
//! This facade crate re-exports the workspace crates so applications can
//! depend on a single `btr` crate:
//!
//! * [`crypto`] — SHA-256/HMAC, SipHash, keystores, fast PRNGs.
//! * [`model`] — time, ids, topology and its platform families,
//!   messages, plans, strategies.
//! * [`net`] — bandwidth-reserved links, guardians, routing.
//! * [`sim`] — deterministic discrete-event simulator.
//! * [`topo`] — `model`'s topology module under its own name: the
//!   parametric large-scale platforms (torus, fat-tree, SCADA
//!   star-of-rings) beside bus, ring and mesh.
//! * [`workload`] — `model`'s workload module under its own name:
//!   periodic dataflow workloads and generators.
//! * [`planner`] — the offline BTR planner (Section 4.1 of the paper).
//! * [`sched`] — `planner`'s scheduling step under its own name:
//!   schedule synthesis and schedulability analysis.
//! * [`runtime`] — the per-node BTR software stack, with the online
//!   fault detector (Section 4.2), evidence validation and distribution
//!   (Section 4.3) and the mode-change protocol (Section 4.4) inside it.
//! * [`core`] — the end-to-end system, fault injection, and oracle.
//! * [`node`] — `core`'s live fleet under its own name: the simulator's
//!   world driven on a worker thread under a wall-clock pacer,
//!   wall-clock bounded-time recovery, restarts, with the free-running
//!   simulator as trace oracle.
//! * [`baselines`] — BFT / PBFT-lite / ZZ / self-stabilisation / restart.
//! * [`campaign`] — parallel fault-injection campaigns: schedule
//!   generation, oracle verdicts, violation shrinking, replay tokens.
//!
//! See the `examples/` directory for runnable scenarios and EXPERIMENTS.md
//! for the evaluation harness.

#![forbid(unsafe_code)]

pub use btr_baselines as baselines;
pub use btr_campaign as campaign;
pub use btr_core as core;
pub use btr_core::supervisor as node;
pub use btr_crypto as crypto;
pub use btr_model as model;
pub use btr_model::topology as topo;
pub use btr_model::workload;
pub use btr_net as net;
pub use btr_planner as planner;
pub use btr_planner::sched;
pub use btr_runtime as runtime;
pub use btr_sim as sim;
