//! The event queue: per-instant FIFO buckets over an arena of payloads.
//!
//! The simulator's queue orders events by `(time, sequence)`, and the
//! world hands out `sequence` in push order. Events of one instant
//! appended to a FIFO are therefore already sorted, and nearly every
//! event is due within a few hundred microseconds of the one being
//! dispatched (a delivery is some hops away; only timers look a period
//! ahead). So the queue is two tiers:
//!
//! * a **wheel** of [`WHEEL_SLOTS`] one-microsecond buckets covering the
//!   window `[base, base + WHEEL_SLOTS)`, where `base` is the instant of
//!   the last pop. A bucket is an intrusive FIFO through one slab of
//!   32-byte entries; a two-level bitmap finds the next non-empty one.
//!   Push and pop are a handful of indexed stores, with no comparison of
//!   one event against another;
//! * an **overflow** binary heap for everything else — events past the
//!   window (timers, mostly) and events scheduled before the last pop.
//!
//! An event stays in the tier it was pushed to: `pop_due` takes the
//! smaller `(at, seq)` of the two heads, so there is no migration and
//! the order needs no argument beyond "a bucket is FIFO and `seq` is
//! unique" — pop order is exactly the pushes sorted by `(at, seq)`, the
//! property the test below checks and every simulation's determinism
//! rests on.
//!
//! Payloads never move through either tier: an [`Envelope`] is ~200
//! bytes, so envelopes live in a free-listed arena and an entry carries
//! a tag plus a 4-byte handle.

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
    /// Bring a node up as a fresh incarnation.
    Start {
        /// The node.
        node: NodeId,
        /// The incarnation's behaviour, held by the world.
        incarnation: u32,
    },
}

/// A slot of an [`Arena`]: a value, or a link of the free list.
enum Slot<T> {
    Live(T),
    Free { next: u32 },
}

/// A free-listed arena of `T` keyed by dense `u32` handles. The free
/// list runs through the vacant slots themselves, so the arena is one
/// allocation.
pub(crate) struct Arena<T> {
    slots: Vec<Slot<T>>,
    /// The most recently vacated slot, or [`NIL`].
    free: u32,
    live: usize,
}

impl<T> Arena<T> {
    fn with_capacity(slots: usize) -> Self {
        Arena {
            slots: Vec::with_capacity(slots),
            free: NIL,
            live: 0,
        }
    }

    fn insert(&mut self, value: T) -> u32 {
        self.live += 1;
        let h = self.free;
        if h == NIL {
            assert!(self.slots.len() < NIL as usize, "arena handles are 32-bit");
            self.slots.push(Slot::Live(value));
            return (self.slots.len() - 1) as u32;
        }
        match std::mem::replace(&mut self.slots[h as usize], Slot::Live(value)) {
            Slot::Free { next } => self.free = next,
            Slot::Live(_) => unreachable!("free list led to a live slot"),
        }
        h
    }

    fn take(&mut self, h: u32) -> T {
        let vacant = Slot::Free { next: self.free };
        match std::mem::replace(&mut self.slots[h as usize], vacant) {
            Slot::Live(v) => {
                self.free = h;
                self.live -= 1;
                v
            }
            Slot::Free { .. } => panic!("arena handle {h} is not live"),
        }
    }

    fn live(&self) -> usize {
        self.live
    }
}

/// Compact event: a tag plus, for a delivery, a handle into the
/// envelope arena.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CompactEvent {
    Deliver { dst: NodeId, env: u32 },
    Timer { node: NodeId, timer: TimerId },
    Control(ControlAction),
    Start { node: NodeId, incarnation: u32 },
}

/// Buckets in the wheel: one per microsecond, a power of two. 512 covers
/// the deliveries of a thousand-node torus as well as 8 192 did, and
/// keeps the bucket array (2 KB) small beside a 20-node world.
const WHEEL_SLOTS: usize = 512;
const WORDS: usize = WHEEL_SLOTS / 64;
// Bucket and bitmap indices are masks and shifts, and `summary` is one word.
const _: () = assert!(WHEEL_SLOTS.is_power_of_two() && WHEEL_SLOTS >= 64 && WORDS <= 64);

/// "No entry" in an intrusive list.
const NIL: u32 = u32::MAX;

/// Wheel entry: 32 bytes. Its instant is its bucket's, so it is not
/// stored; `seq` is kept only to break a tie with the overflow head.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WheelEntry {
    seq: u64,
    ev: CompactEvent,
    /// The next entry of the bucket (circularly: the last one points
    /// back at the first), or of the free list.
    next: u32,
}

/// The near tier: FIFO buckets for the instants `[base, base +
/// WHEEL_SLOTS)`, bucket `at % WHEEL_SLOTS`. `base` only moves forward,
/// to the instant of each pop, and never past a queued entry, so a
/// bucket never holds two instants at once.
struct Wheel {
    base: u64,
    len: usize,
    /// Bit `w` set iff `occupied[w] != 0`.
    summary: u64,
    /// Bit `s % 64` of word `s / 64` set iff bucket `s` is non-empty.
    occupied: [u64; WORDS],
    /// `last[s]` = the last entry of bucket `s` (meaningful only while
    /// its bit is set); that entry's `next` is the bucket's first.
    last: Box<[u32; WHEEL_SLOTS]>,
    entries: Vec<WheelEntry>,
    /// Head of the free list through `entries[..].next`.
    free: u32,
}

impl Wheel {
    fn with_capacity(entries: usize) -> Wheel {
        Wheel {
            base: 0,
            len: 0,
            summary: 0,
            occupied: [0; WORDS],
            last: Box::new([NIL; WHEEL_SLOTS]),
            entries: Vec::with_capacity(entries),
            free: NIL,
        }
    }

    /// True if an event at `at` belongs to this tier right now.
    #[inline]
    fn covers(&self, at: u64) -> bool {
        at.checked_sub(self.base)
            .is_some_and(|ahead| ahead < WHEEL_SLOTS as u64)
    }

    /// Append to the bucket of `at`, which the window must cover.
    #[inline]
    fn push(&mut self, at: u64, seq: u64, ev: CompactEvent) {
        debug_assert!(self.covers(at));
        let slot = at as usize % WHEEL_SLOTS;
        let e = match self.free {
            NIL => {
                assert!(
                    self.entries.len() < NIL as usize,
                    "entry handles are 32-bit"
                );
                self.entries.len() as u32
            }
            e => e,
        };
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        // A lone entry is its own successor; otherwise it goes between
        // the bucket's last and first.
        let next = if self.occupied[word] & bit == 0 {
            self.occupied[word] |= bit;
            self.summary |= 1 << word;
            e
        } else {
            let last = &mut self.entries[self.last[slot] as usize];
            std::mem::replace(&mut last.next, e)
        };
        let entry = WheelEntry { seq, ev, next };
        if e as usize == self.entries.len() {
            self.entries.push(entry);
        } else {
            self.free = std::mem::replace(&mut self.entries[e as usize], entry).next;
        }
        self.last[slot] = e;
        self.len += 1;
    }

    /// The earliest non-empty bucket and its instant: the first set bit
    /// at or after `base`'s bucket, wrapping once round the wheel.
    #[inline]
    fn first(&self) -> Option<(u64, usize)> {
        let start = self.base as usize % WHEEL_SLOTS;
        let (word, bit) = (start / 64, start % 64);
        let here = self.occupied[word] >> bit;
        let slot = if here != 0 {
            start + here.trailing_zeros() as usize
        } else {
            // Words after this one, else round to the ones before it
            // and to this word's own low bits.
            let after = self.summary & (u64::MAX << word << 1);
            let w = if after != 0 { after } else { self.summary }.trailing_zeros() as usize;
            if w == 64 {
                return None;
            }
            w * 64 + self.occupied[w].trailing_zeros() as usize
        };
        let ahead = slot.wrapping_sub(start) % WHEEL_SLOTS;
        Some((self.base + ahead as u64, slot))
    }

    /// The `seq` of bucket `slot`'s first entry.
    #[inline]
    fn first_seq(&self, slot: usize) -> u64 {
        let first = self.entries[self.last[slot] as usize].next;
        self.entries[first as usize].seq
    }

    /// Take the first entry of bucket `slot`, which holds instant `at`
    /// and is the earliest of this tier, and move the window up to it.
    #[inline]
    fn pop(&mut self, at: u64, slot: usize) -> CompactEvent {
        let last = self.last[slot] as usize;
        let first = self.entries[last].next;
        let entry = self.entries[first as usize];
        if first as usize == last {
            let word = slot / 64;
            self.occupied[word] &= !(1 << (slot % 64));
            if self.occupied[word] == 0 {
                self.summary &= !(1 << word);
            }
        } else {
            self.entries[last].next = entry.next;
        }
        self.entries[first as usize].next = self.free;
        self.free = first;
        self.len -= 1;
        self.base = at;
        entry.ev
    }
}

/// Overflow entry: 32 bytes regardless of payload size.
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

/// Which tier holds the earliest event.
enum Head {
    Wheel { at: u64, slot: usize },
    Overflow { at: u64 },
}

/// The world's event queue: the wheel, the overflow heap, and the
/// envelope arena.
pub(crate) struct EventQueue {
    wheel: Wheel,
    overflow: BinaryHeap<Reverse<CompactScheduled>>,
    envs: Arena<Envelope>,
}

impl EventQueue {
    /// A queue for a world of `nodes` nodes, sized for one message in
    /// flight and one armed timer per node; a busier world grows it by
    /// doubling, early in the run.
    pub(crate) fn for_nodes(nodes: usize) -> EventQueue {
        EventQueue {
            wheel: Wheel::with_capacity(nodes),
            overflow: BinaryHeap::with_capacity(nodes),
            envs: Arena::with_capacity(nodes),
        }
    }

    /// Schedule `event` at `(at, seq)`.
    pub(crate) fn push(&mut self, at: Time, seq: u64, event: Event) {
        let ev = match event {
            Event::Deliver { dst, env } => CompactEvent::Deliver {
                dst,
                env: self.envs.insert(env),
            },
            Event::Timer { node, timer } => CompactEvent::Timer { node, timer },
            Event::Control(action) => CompactEvent::Control(action),
            Event::Start { node, incarnation } => CompactEvent::Start { node, incarnation },
        };
        if self.wheel.covers(at.as_micros()) {
            self.wheel.push(at.as_micros(), seq, ev);
        } else {
            self.overflow
                .push(Reverse(CompactScheduled { at, seq, ev }));
        }
    }

    /// The tier holding the earliest `(at, seq)`, if anything is queued.
    #[inline]
    fn head(&self) -> Option<Head> {
        let near = self.wheel.first();
        let far = self.overflow.peek().map(|Reverse(s)| s);
        match (near, far) {
            (Some((at, slot)), Some(far))
                if (far.at.as_micros(), far.seq) < (at, self.wheel.first_seq(slot)) =>
            {
                Some(Head::Overflow {
                    at: far.at.as_micros(),
                })
            }
            (Some((at, slot)), _) => Some(Head::Wheel { at, slot }),
            (None, Some(far)) => Some(Head::Overflow {
                at: far.at.as_micros(),
            }),
            (None, None) => None,
        }
    }

    /// The timestamp of the next event, if any.
    pub(crate) fn next_at(&self) -> Option<Time> {
        self.head().map(|h| match h {
            Head::Wheel { at, .. } | Head::Overflow { at } => Time(at),
        })
    }

    /// Pop the earliest event by `(at, seq)` if it is due at or before
    /// `t`.
    #[inline]
    pub(crate) fn pop_due(&mut self, t: Time) -> Option<(Time, Event)> {
        let (at, ev) = match self.head()? {
            Head::Wheel { at, .. } | Head::Overflow { at } if at > t.as_micros() => return None,
            Head::Wheel { at, slot } => (at, self.wheel.pop(at, slot)),
            Head::Overflow { at } => {
                let Reverse(s) = self.overflow.pop().expect("peeked");
                // The earliest event of all, so no wheel entry is before
                // it: the window may move up to it, and must not move back.
                self.wheel.base = self.wheel.base.max(at);
                (at, s.ev)
            }
        };
        let event = match ev {
            CompactEvent::Deliver { dst, env } => Event::Deliver {
                dst,
                env: self.envs.take(env),
            },
            CompactEvent::Timer { node, timer } => Event::Timer { node, timer },
            CompactEvent::Control(action) => Event::Control(action),
            CompactEvent::Start { node, incarnation } => Event::Start { node, incarnation },
        };
        Some((Time(at), event))
    }

    /// Events currently queued.
    pub(crate) fn len(&self) -> usize {
        self.wheel.len + self.overflow.len()
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
    use std::collections::BTreeMap;

    fn env(tag: u8) -> Envelope {
        Envelope::new(NodeId(0), NodeId(1), Time(0), Payload::Control(tag))
    }

    fn label(e: &Event) -> String {
        match e {
            Event::Deliver { dst, env } => format!("deliver:{dst}:{:?}", env.payload),
            Event::Timer { node, timer } => format!("timer:{node}:{timer}"),
            Event::Control(a) => format!("control:{a:?}"),
            Event::Start { node, incarnation } => format!("start:{node}:{incarnation}"),
        }
    }

    /// The queue beside its specification: a map sorted by `(at, seq)`,
    /// fed the same pushes, with `seq` handed out in push order as the
    /// world does. Every pop must be the map's first entry.
    struct Checked {
        queue: EventQueue,
        sorted: BTreeMap<(Time, u64), String>,
        seq: u64,
        last_pop: Time,
    }

    impl Checked {
        fn new() -> Checked {
            Checked {
                queue: EventQueue::for_nodes(2),
                sorted: BTreeMap::new(),
                seq: 0,
                last_pop: Time(0),
            }
        }

        fn push(&mut self, at: Time) {
            let seq = self.seq;
            self.seq += 1;
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
            self.sorted.insert((at, seq), label(&ev()));
            self.queue.push(at, seq, ev());
            assert_eq!(self.queue.len(), self.sorted.len());
        }

        /// Pop one event due by `t` from both and compare.
        fn pop_due(&mut self, t: Time) -> Option<Time> {
            let want = self.sorted.first_key_value().map(|(&(at, _), _)| at);
            assert_eq!(self.queue.next_at(), want, "heads diverged");
            let got = self.queue.pop_due(t);
            if want.is_none_or(|at| at > t) {
                assert!(got.is_none(), "popped an event that is not due by {t:?}");
                return None;
            }
            let ((at, seq), want) = self.sorted.pop_first().expect("checked non-empty");
            let (t, e) = got.unwrap_or_else(|| panic!("queue ran dry before seq {seq}"));
            assert_eq!((t, label(&e)), (at, want), "pop diverged at seq {seq}");
            self.last_pop = at;
            Some(at)
        }

        fn drain(mut self) {
            while self.pop_due(Time(u64::MAX)).is_some() {}
            assert_eq!(self.queue.len(), 0);
            assert!(self.queue.pop_due(Time(u64::MAX)).is_none());
            assert_eq!(
                self.queue.envelopes_in_flight(),
                0,
                "arena leaked envelopes"
            );
        }
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        *state >> 33
    }

    /// Deterministic scrambles of pushes and pops; the queue must pop
    /// exactly the pushes sorted by `(at, seq)`, whichever tier each one
    /// went to.
    #[test]
    fn arena_pops_in_at_seq_order() {
        let w = WHEEL_SLOTS as u64;
        let mut state = 0x9E3779B97F4A7C15u64;

        // Clustered timestamps, all inside the first window, so ties on
        // `at` are common and a bucket's FIFO is what orders them.
        let mut c = Checked::new();
        for _ in 0..500 {
            c.push(Time(lcg(&mut state) % 50));
        }
        assert_eq!(c.queue.overflow.len(), 0);
        c.drain();

        // Horizons that straddle the window: the same instants reached
        // first from afar (overflow) and then from nearby (wheel), so
        // both heads tie on `at` and `seq` decides.
        let mut c = Checked::new();
        for _ in 0..300 {
            c.push(Time(lcg(&mut state) % (3 * w)));
        }
        assert!(c.queue.overflow.len() > 100 && c.queue.wheel.len > 50);
        while c.pop_due(Time(u64::MAX)).is_some_and(|at| at < Time(w)) {}
        let overflowed = c.queue.overflow.len();
        assert!(overflowed > 50, "nothing left to tie with");
        let now = c.last_pop.as_micros();
        for at in now..now + w {
            c.push(Time(at));
        }
        assert_eq!(c.queue.overflow.len(), overflowed, "near pushes went far");
        c.drain();

        // Pushes at the instant being popped queue behind what is
        // already there; pushes earlier than the last pop come out next.
        let mut c = Checked::new();
        for at in [5, 5, 5, 9, 700] {
            c.push(Time(at));
        }
        assert_eq!(c.pop_due(Time(4)), None);
        assert_eq!(c.pop_due(Time(5)), Some(Time(5)));
        c.push(Time(5));
        c.push(Time(9));
        assert_eq!(c.pop_due(Time(9)), Some(Time(5)));
        assert_eq!(c.pop_due(Time(9)), Some(Time(5)));
        assert_eq!(c.pop_due(Time(9)), Some(Time(5)));
        assert_eq!(c.pop_due(Time(9)), Some(Time(9)));
        c.push(Time(3));
        c.push(Time(9));
        c.push(Time(0));
        assert_eq!(c.pop_due(Time(9)), Some(Time(0)));
        assert_eq!(c.pop_due(Time(9)), Some(Time(3)));
        // The window did not move back with them.
        assert_eq!(c.queue.wheel.base, 9);
        assert_eq!(c.pop_due(Time(9)), Some(Time(9)));
        assert_eq!(c.pop_due(Time(9)), Some(Time(9)));
        assert_eq!(c.pop_due(Time(699)), None);
        c.drain();

        // A long run: the window wraps the wheel many times while pushes
        // land anywhere from behind the last pop to three windows ahead,
        // the far edge of the window included.
        let mut c = Checked::new();
        let (mut popped, mut now) = (0, 0);
        for round in 0..4000u64 {
            now = now.max(c.last_pop.as_micros());
            let at = match lcg(&mut state) % 8 {
                0 => now.saturating_sub(lcg(&mut state) % 40),
                1 => now,
                2 => now + w - 1,
                3 => now + w,
                4 => now + lcg(&mut state) % (3 * w),
                _ => now + lcg(&mut state) % 300,
            };
            c.push(Time(at));
            // As many pops as pushes, in bursts of none, one and two.
            for _ in 0..round % 3 {
                popped += c.pop_due(Time(now + 400)).is_some() as u32;
            }
        }
        assert!(
            popped > 1000 && now > 20 * w,
            "the run went nowhere: {popped} pops, now {now}"
        );
        c.drain();
    }

    #[test]
    fn arena_recycles_slots() {
        let mut q = EventQueue::for_nodes(1);
        for round in 0..10u64 {
            for i in 0..16u64 {
                q.push(
                    Time(round * 1000 + i),
                    round * 16 + i,
                    Event::Deliver {
                        dst: NodeId(0),
                        env: env(i as u8),
                    },
                );
            }
            assert_eq!(q.envelopes_in_flight(), 16);
            while q.pop_due(Time(u64::MAX)).is_some() {}
            assert_eq!(q.envelopes_in_flight(), 0);
        }
        assert_eq!(q.envs.slots.len(), 16, "slots must be recycled, not grown");
        // Round 0 fits the first window; later rounds start in the
        // overflow tier until the window reaches them. Either way the
        // wheel's slab is recycled too.
        assert!(q.wheel.entries.len() <= 16, "entries must be recycled");
    }

    #[test]
    fn compact_entries_are_small() {
        // The point of the arenas: neither tier moves or stores whole
        // envelopes — a bucket entry and a heap entry are 32 bytes each.
        assert!(std::mem::size_of::<WheelEntry>() <= 32);
        assert!(std::mem::size_of::<CompactScheduled>() <= 32);
    }
}
