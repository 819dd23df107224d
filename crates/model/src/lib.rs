//! Shared vocabulary for the BTR system.
//!
//! This crate defines the types every other crate speaks: simulated time,
//! node/task/link identifiers, the CPS topology of Section 2.1 of the
//! paper ("a set of nodes and a set of links ... finite processing speed
//! ... finite bandwidth") with its parametric platform families (torus,
//! fat-tree, SCADA star-of-rings), the periodic dataflow vocabulary,
//! wire messages and their canonical signing encodings, plans and
//! strategies produced by the planner, fault sets, and the evidence
//! records exchanged by the detector and distributor.
//!
//! Keeping these in one bottom-of-the-graph crate lets the runtime's
//! detector, evidence distribution and mode switch stay pure protocol
//! logic, independently testable without the simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compute;
pub mod criticality;
pub(crate) mod enc;
pub mod evidence;
pub mod fault;
pub mod ids;
pub mod message;
pub mod plan;
pub mod time;
pub mod topology;

pub use compute::{inputs_digest, sensor_value, task_value, Value};
pub use criticality::Criticality;
pub use evidence::{EvidenceClass, EvidenceFlaw, EvidenceId, EvidenceRecord, SignedOutput};
pub use fault::{FaultKind, FaultSet};
pub use ids::{LinkId, NodeId, PeriodIdx, PlanId, ReplicaIdx, TaskId};
pub use message::{Envelope, Payload};
pub use plan::{ATask, Migration, NodeSchedule, Plan, ScheduleEntry, Strategy, Transition};
pub use time::{Duration, Time};
pub use topology::{LinkSpec, Topology, TopologyBuilder};
