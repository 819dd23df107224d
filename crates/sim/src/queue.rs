//! The event queue: an arena-backed compact heap.
//!
//! The simulator's queue orders events by `(time, sequence)`. Moving
//! the full event payload — an [`Envelope`] is ~180 bytes — through
//! every `BinaryHeap` sift was the dominant per-delivery cost once the
//! hot path went allocation-free, so the queue stores envelopes (and
//! the rare boxed control actions) in free-listed arenas and keeps only
//! a 16-byte compact event — a tag plus a 4-byte handle — in each heap
//! entry: sifts move 32-byte entries regardless of payload size.
//!
//! `seq` is unique, so pop order is exactly the pushes sorted by
//! `(at, seq)` — the property the test below checks and every
//! simulation's determinism rests on.

use crate::world::ControlAction;
use crate::TimerId;
use btr_model::{Envelope, NodeId, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A simulator event, as dispatched by the world.
pub(crate) enum Event {
    /// Deliver an envelope to its destination.
    Deliver {
        /// Receiving node.
        dst: NodeId,
        /// The message.
        env: Envelope,
    },
    /// Fire a behaviour timer.
    Timer {
        /// Owning node.
        node: NodeId,
        /// Behaviour-chosen timer id.
        timer: TimerId,
    },
    /// Apply a control-plane intervention.
    Control(ControlAction),
}

/// A free-listed arena of `T` keyed by dense `u32` handles.
pub(crate) struct Arena<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Arena<T> {
    fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(h) => {
                debug_assert!(self.slots[h as usize].is_none());
                self.slots[h as usize] = Some(value);
                h
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn take(&mut self, h: u32) -> T {
        let v = self.slots[h as usize].take().expect("live arena handle");
        self.free.push(h);
        v
    }

    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// Compact event: a tag plus a handle into the side arenas.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CompactEvent {
    Deliver { dst: NodeId, env: u32 },
    Timer { node: NodeId, timer: TimerId },
    Control(u32),
}

/// Heap entry: 32 bytes regardless of payload size.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompactScheduled {
    at: Time,
    seq: u64,
    ev: CompactEvent,
}

impl PartialEq for CompactScheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for CompactScheduled {}
impl PartialOrd for CompactScheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CompactScheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The world's event queue: compact heap entries, payloads in
/// free-listed arenas.
#[derive(Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<CompactScheduled>>,
    envs: Arena<Envelope>,
    controls: Arena<ControlAction>,
}

impl EventQueue {
    /// Schedule `event` at `(at, seq)`.
    pub(crate) fn push(&mut self, at: Time, seq: u64, event: Event) {
        let ev = match event {
            Event::Deliver { dst, env } => CompactEvent::Deliver {
                dst,
                env: self.envs.insert(env),
            },
            Event::Timer { node, timer } => CompactEvent::Timer { node, timer },
            Event::Control(action) => CompactEvent::Control(self.controls.insert(action)),
        };
        self.heap.push(Reverse(CompactScheduled { at, seq, ev }));
    }

    /// The timestamp of the next event, if any.
    pub(crate) fn next_at(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(s)| s.at)
    }

    /// Pop the earliest event by `(at, seq)`.
    pub(crate) fn pop(&mut self) -> Option<(Time, Event)> {
        let Reverse(s) = self.heap.pop()?;
        let event = match s.ev {
            CompactEvent::Deliver { dst, env } => Event::Deliver {
                dst,
                env: self.envs.take(env),
            },
            CompactEvent::Timer { node, timer } => Event::Timer { node, timer },
            CompactEvent::Control(h) => Event::Control(self.controls.take(h)),
        };
        Some((s.at, event))
    }

    /// Events currently queued.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Envelopes currently parked in the arena — must equal the queued
    /// `Deliver` count, pinned by tests.
    pub(crate) fn envelopes_in_flight(&self) -> usize {
        self.envs.live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_model::Payload;

    fn env(tag: u8) -> Envelope {
        Envelope::new(NodeId(0), NodeId(1), Time(0), Payload::Control(tag))
    }

    fn label(e: &Event) -> String {
        match e {
            Event::Deliver { dst, env } => format!("deliver:{dst}:{:?}", env.payload),
            Event::Timer { node, timer } => format!("timer:{node}:{timer}"),
            Event::Control(a) => format!("control:{a:?}"),
        }
    }

    /// Deterministic scramble of pushes; the queue must pop exactly the
    /// pushes sorted by `(at, seq)`.
    #[test]
    fn arena_pops_in_at_seq_order() {
        let mut arena = EventQueue::default();
        let mut expected = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for seq in 0..500u64 {
            // Clustered timestamps so ties on `at` are common and the
            // seq tie-break is exercised.
            let at = Time(next() % 50);
            let ev = || match seq % 3 {
                0 => Event::Deliver {
                    dst: NodeId((seq % 7) as u32),
                    env: env((seq % 251) as u8),
                },
                1 => Event::Timer {
                    node: NodeId((seq % 5) as u32),
                    timer: seq,
                },
                _ => Event::Control(ControlAction::Crash(NodeId((seq % 9) as u32))),
            };
            expected.push((at, seq, label(&ev())));
            arena.push(at, seq, ev());
        }
        assert_eq!(arena.len(), 500);
        expected.sort_by_key(|&(at, seq, _)| (at, seq));
        for (popped, (at, _, want)) in expected.iter().enumerate() {
            let (t, e) = arena
                .pop()
                .unwrap_or_else(|| panic!("queue ran dry at pop {popped}"));
            assert_eq!(t, *at, "timestamps diverged at pop {popped}");
            assert_eq!(&label(&e), want, "events diverged at pop {popped}");
        }
        assert!(arena.pop().is_none(), "queue popped more than was pushed");
        assert_eq!(arena.envelopes_in_flight(), 0, "arena leaked envelopes");
    }

    #[test]
    fn arena_recycles_slots() {
        let mut q = EventQueue::default();
        for round in 0..10u64 {
            for i in 0..16u64 {
                q.push(
                    Time(i),
                    round * 16 + i,
                    Event::Deliver {
                        dst: NodeId(0),
                        env: env(i as u8),
                    },
                );
            }
            assert_eq!(q.envelopes_in_flight(), 16);
            while q.pop().is_some() {}
            assert_eq!(q.envelopes_in_flight(), 0);
        }
        assert_eq!(q.envs.slots.len(), 16, "slots must be recycled, not grown");
    }

    #[test]
    fn compact_entries_are_small() {
        // The point of the arena: heap sifts move fixed 32-byte entries,
        // not whole envelopes.
        assert!(std::mem::size_of::<CompactScheduled>() <= 32);
    }
}
