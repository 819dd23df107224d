//! Trace records and aggregate metrics for simulation runs.

use crate::world::Actuation;
use btr_crypto::digest64;
use btr_model::{NodeId, PeriodIdx, TaskId, Time, Value};
pub use btr_net::DropReason;

/// One trace record (only collected when tracing is enabled).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A message entered the network.
    Sent {
        /// Send time.
        at: Time,
        /// Sender.
        src: NodeId,
        /// Destination.
        dst: NodeId,
        /// Payload label (`Payload::label`).
        label: &'static str,
        /// Wire bytes.
        bytes: u32,
    },
    /// A message reached its destination.
    Delivered {
        /// Delivery time.
        at: Time,
        /// Sender.
        src: NodeId,
        /// Destination.
        dst: NodeId,
        /// Payload label.
        label: &'static str,
    },
    /// A message was dropped.
    Dropped {
        /// Drop time (send time for origin drops).
        at: Time,
        /// Sender.
        src: NodeId,
        /// Destination.
        dst: NodeId,
        /// Why.
        reason: DropReason,
    },
    /// A sink actuated.
    Actuated {
        /// Actuation time.
        at: Time,
        /// Actuating node.
        node: NodeId,
        /// Sink task.
        task: TaskId,
        /// Period index.
        period: PeriodIdx,
        /// The emitted value.
        value: Value,
    },
    /// A node crashed.
    Crashed {
        /// Crash time.
        at: Time,
        /// The node.
        node: NodeId,
    },
}

impl TraceEvent {
    /// The record's timestamp.
    pub fn at(&self) -> Time {
        match self {
            TraceEvent::Sent { at, .. }
            | TraceEvent::Delivered { at, .. }
            | TraceEvent::Dropped { at, .. }
            | TraceEvent::Actuated { at, .. }
            | TraceEvent::Crashed { at, .. } => *at,
        }
    }
}

/// A run's end-to-end observable behaviour on logical timestamps, in
/// canonical order.
///
/// This is the cross-substrate equivalence oracle: the discrete-event
/// [`crate::World`] and the live thread-per-node runtime (`btr-node`)
/// both reduce a run to this record, and a fault-free live run must be
/// *bit-identical* to the simulator here. Actuations are the right
/// observable because they capture the full protocol dataflow (inputs
/// gathered, replicas voted, checkers passed) with logical timestamps,
/// while being insensitive to transport-level interleaving that the two
/// substrates legitimately order differently at equal logical times.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogicalTrace {
    /// Actuations sorted by (at, node, task, period, value).
    pub events: Vec<Actuation>,
}

impl LogicalTrace {
    /// Canonicalise a run's actuation record.
    pub fn from_actuations(acts: &[Actuation]) -> LogicalTrace {
        let mut events = acts.to_vec();
        events.sort_by_key(|a| (a.at, a.node, a.task, a.period, a.value));
        LogicalTrace { events }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A 64-bit digest of the canonical byte encoding (stable across
    /// processes, so harness runs can compare traces without shipping
    /// them).
    pub fn digest(&self) -> u64 {
        let mut buf = Vec::with_capacity(self.events.len() * 40);
        for a in &self.events {
            buf.extend_from_slice(&a.at.as_micros().to_be_bytes());
            buf.extend_from_slice(&a.node.0.to_be_bytes());
            buf.extend_from_slice(&a.task.0.to_be_bytes());
            buf.extend_from_slice(&a.period.to_be_bytes());
            buf.extend_from_slice(&a.value.to_be_bytes());
        }
        digest64(&[b"btr-logical-trace", &buf])
    }

    /// Describe the first divergence from `other`, if any (`None` means
    /// the traces are identical): the index of the first event that
    /// differs and both sides' event, or which side is longer and its
    /// first extra event. `sides` names this trace and `other`, in that
    /// order, e.g. `["live", "simulator"]`.
    pub fn first_divergence(&self, other: &LogicalTrace, sides: [&str; 2]) -> Option<String> {
        let [this, that] = sides;
        for (i, (a, b)) in self.events.iter().zip(other.events.iter()).enumerate() {
            if a != b {
                return Some(format!("event {i}: {this} {a:?} != {that} {b:?}"));
            }
        }
        let (n, m) = (self.events.len(), other.events.len());
        let (longer, extra) = match n.cmp(&m) {
            std::cmp::Ordering::Equal => return None,
            std::cmp::Ordering::Greater => (this, &self.events[m]),
            std::cmp::Ordering::Less => (that, &other.events[n]),
        };
        Some(format!(
            "{longer} is longer ({this} {n} vs {that} {m} events); first extra, event {}: {extra:?}",
            n.min(m)
        ))
    }
}

/// Aggregate counters for one run (always collected).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimMetrics {
    /// Messages accepted into the network.
    pub msgs_sent: u64,
    /// Bytes accepted into the network (per hop counted once).
    pub bytes_sent: u64,
    /// Messages delivered to destinations.
    pub msgs_delivered: u64,
    /// Messages dropped by guardians.
    pub drops_guardian: u64,
    /// Messages dropped by refusing/crashed relays.
    pub drops_forward: u64,
    /// Messages dropped for other reasons (no route, crashed endpoints).
    pub drops_other: u64,
    /// Events processed by the engine.
    pub events: u64,
    /// Timers fired.
    pub timers: u64,
    /// Actuations recorded.
    pub actuations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_event_time_accessor() {
        let e = TraceEvent::Crashed {
            at: Time(5),
            node: NodeId(1),
        };
        assert_eq!(e.at(), Time(5));
        let e = TraceEvent::Actuated {
            at: Time(9),
            node: NodeId(0),
            task: TaskId(1),
            period: 2,
            value: 3,
        };
        assert_eq!(e.at(), Time(9));
    }

    #[test]
    fn first_divergence_names_the_event_and_the_longer_side() {
        let act = |at: u64, value: Value| Actuation {
            at: Time(at),
            node: NodeId(1),
            task: TaskId(2),
            period: 3,
            value,
        };
        let trace = |acts: &[Actuation]| LogicalTrace::from_actuations(acts);
        let base = trace(&[act(5, 1), act(9, 2)]);
        let sides = ["live", "simulator"];
        assert_eq!(base.first_divergence(&base.clone(), sides), None);
        let changed = trace(&[act(5, 1), act(9, 7)]);
        let d = base.first_divergence(&changed, sides).unwrap();
        assert!(d.starts_with("event 1: live Actuation {"), "{d}");
        assert!(d.contains("value: 2 } != simulator Actuation {"), "{d}");
        let longer = trace(&[act(5, 1), act(9, 2), act(12, 4)]);
        let d = longer.first_divergence(&base, sides).unwrap();
        assert!(
            d.starts_with("live is longer (live 3 vs simulator 2 events); first extra, event 2: "),
            "{d}"
        );
        let d = base.first_divergence(&longer, sides).unwrap();
        assert!(
            d.starts_with("simulator is longer (live 2 vs simulator 3 events)"),
            "{d}"
        );
    }

    #[test]
    fn drop_reason_display() {
        assert_eq!(DropReason::GuardianDenied.to_string(), "guardian-denied");
        assert_eq!(
            DropReason::ForwardRefused(NodeId(3)).to_string(),
            "forward-refused@n3"
        );
    }
}
