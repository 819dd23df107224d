//! Per-node flight recorder: a fixed-capacity ring buffer of the last
//! K dispatches, kept by the live runtime so that when a node dies —
//! behaviour panic, wall-deadline overrun, mailbox overflow — the
//! supervisor can attribute the failure with the node's final moments
//! instead of just its id.
//!
//! The ring allocates once at construction and never again; pushing
//! overwrites the oldest entry. The live actor shares the ring with the
//! supervisor through `Arc<Mutex<_>>` so the tail survives
//! `catch_unwind` (the actor itself is consumed by the panic).

use btr_model::{NodeId, Time};

/// Default ring capacity: enough to see the last few periods of a
/// node's life without bloating per-node memory.
pub const FLIGHT_CAP: usize = 32;

/// What a recorded dispatch was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// The behaviour thread started.
    Start,
    /// A message from `from` was dispatched.
    Message {
        /// Sending node.
        from: NodeId,
    },
    /// A timer fired.
    Timer,
    /// The node finished installing a recovery plan.
    SwitchCompleted {
        /// Cumulative switches on this node.
        count: u64,
    },
    /// The node's behaviour crashed (fault splice, not a panic).
    Crash,
    /// A free-form note (supervisor annotations).
    Note(&'static str),
}

/// One ring entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Logical timestamp of the dispatch.
    pub(crate) at: Time,
    /// What was dispatched.
    pub(crate) kind: FlightKind,
}

impl std::fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            FlightKind::Start => write!(f, "{} start", self.at),
            FlightKind::Message { from } => write!(f, "{} msg<-{}", self.at, from),
            FlightKind::Timer => write!(f, "{} timer", self.at),
            FlightKind::SwitchCompleted { count } => {
                write!(f, "{} switch#{}", self.at, count)
            }
            FlightKind::Crash => write!(f, "{} crash", self.at),
            FlightKind::Note(s) => write!(f, "{} {}", self.at, s),
        }
    }
}

/// The fixed-capacity ring.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: Vec<FlightEvent>,
    cap: usize,
    /// Next write position.
    head: usize,
    /// Total events ever pushed (so a dump can say "last K of N").
    total: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(FLIGHT_CAP)
    }
}

impl FlightRecorder {
    /// A ring holding the last `cap` events (`cap` ≥ 1 enforced).
    pub fn new(cap: usize) -> FlightRecorder {
        let cap = cap.max(1);
        FlightRecorder {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            total: 0,
        }
    }

    /// Record one event; overwrites the oldest once full. Never
    /// allocates after the ring has filled once.
    #[inline]
    pub fn push(&mut self, at: Time, kind: FlightKind) {
        let ev = FlightEvent { at, kind };
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
        }
        self.head = (self.head + 1) % self.cap;
        self.total += 1;
    }

    /// Total events ever recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Logical time of the most recent event, if any.
    pub fn last_at(&self) -> Option<Time> {
        if self.buf.is_empty() {
            return None;
        }
        let idx = (self.head + self.cap - 1) % self.cap;
        self.buf.get(idx.min(self.buf.len() - 1)).map(|e| e.at)
    }

    /// The retained events, oldest first.
    pub fn tail(&self) -> Vec<FlightEvent> {
        if self.buf.len() < self.cap {
            return self.buf.clone();
        }
        let mut out = Vec::with_capacity(self.cap);
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_last_k_in_order() {
        let mut fr = FlightRecorder::new(4);
        assert_eq!(fr.last_at(), None);
        for i in 0..10u64 {
            fr.push(Time(i), FlightKind::Timer);
        }
        assert_eq!(fr.total(), 10);
        let tail = fr.tail();
        assert_eq!(tail.len(), 4);
        let ats: Vec<u64> = tail.iter().map(|e| e.at.0).collect();
        assert_eq!(ats, vec![6, 7, 8, 9]);
        assert_eq!(fr.last_at(), Some(Time(9)));
    }

    #[test]
    fn partial_ring() {
        let mut fr = FlightRecorder::new(8);
        fr.push(Time(1), FlightKind::Start);
        fr.push(
            Time(2),
            FlightKind::Message {
                from: btr_model::NodeId(3),
            },
        );
        assert_eq!(fr.tail().len(), 2);
        assert_eq!(fr.last_at(), Some(Time(2)));
        let s = fr.tail()[1].to_string();
        assert!(s.contains("msg<-n3"), "{s}");
    }

    #[test]
    fn zero_cap_clamped() {
        let mut fr = FlightRecorder::new(0);
        fr.push(Time(5), FlightKind::Crash);
        assert_eq!(fr.tail().len(), 1);
    }
}
