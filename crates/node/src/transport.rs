//! In-process loopback transport for the live runtime.
//!
//! Sends through the simulator's channel itself: one shared
//! `btr_net::Network`, which routes the message (around crashed relays,
//! which lose carrier), rolls the sender's own loss stream (per shard
//! under FEC), and charges the sender's lane on the link it leaves by —
//! its slice's backlog and its guardian's budget — adding every later
//! hop's slice serialisation and latency. A node's lanes and loss stream
//! are shared by all its incarnations, as they are in the simulator's
//! one network. A full receiver mailbox drops the message, counted and
//! surfaced instead of silently blocking a sender.
//!
//! Envelopes are physically handed over the moment they are sent, but
//! stamped with their *logical* arrival time; the receiving actor parks
//! them until that instant. Logical timestamps, not delivery jitter,
//! are what the trace-equivalence oracle compares.
//!
//! The transport also carries the conservative scheduler's shared
//! state: one causal-frontier cell per node (a lower bound on the
//! arrival time of anything that node may still send), the
//! topology-wide minimum link delay (lookahead), and the wake-ups that
//! make the gate event-driven: a blocked node declares the bound it
//! needs ([`Loopback::wait`]) and parks; the peer whose publish lets
//! that bound through unparks it, and a send lowers a sleeper's need to
//! what admits the message. [`Loopback::gate`] is the dispatch rule
//! itself; see the actor module docs for the loop built on it.

use btr_model::{Duration, Envelope, NodeId, Time};
use btr_net::{DropReason, Network};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::Thread;

/// A message in flight: the signed envelope plus its logical arrival
/// time and a per-sender sequence for deterministic same-instant
/// ordering at the receiver.
#[derive(Debug)]
pub(crate) struct LiveMsg {
    /// Logical arrival time (what the link layer charged).
    pub(crate) at: Time,
    /// Sending node (transport-level truth, unlike `env.src` which a
    /// Byzantine sender can spoof).
    pub(crate) from: NodeId,
    /// Per-sender send counter.
    pub(crate) seq: u64,
    /// The envelope.
    pub(crate) env: Envelope,
}

/// Drop counters, one cell per cause (all monotone; read at shutdown).
#[derive(Debug, Default)]
pub(crate) struct TransportCounters {
    /// Bounded-mailbox backpressure drops (`try_send` on a full queue).
    pub(crate) mailbox_full: AtomicU64,
    /// Messages addressed to a crashed / not-yet-restarted node.
    pub(crate) receiver_down: AtomicU64,
    /// Deterministic transmission loss (the sender's loss stream).
    pub(crate) transmission_loss: AtomicU64,
    /// No route to the destination, or a crashed relay on it.
    pub(crate) no_route: AtomicU64,
    /// Sends the sender's bandwidth guardian denied (its per-period
    /// budget on the link spent).
    pub(crate) guardian_denied: AtomicU64,
    /// Messages accepted into the network.
    pub(crate) sent: AtomicU64,
}

/// One node's causal-frontier cell (see [`Loopback::frontier_bound`]).
///
/// `anchor` is the node's own claim: the logical time of its earliest
/// known dispatchable event (its dispatches are nondecreasing under the
/// causal gate, so it lower-bounds every future dispatch and hence
/// every future send). `inflight` is a floor maintained by *senders*:
/// the earliest logical arrival among messages delivered to this node
/// that the node has not yet folded into its anchor — the node could
/// react to one of those the moment it drains its mailbox, at a time
/// below its published anchor. Keeping the floor in the receiver's cell
/// until the receiver itself folds-and-clears it closes the window
/// where an in-flight message is visible in nobody's claim.
#[derive(Debug)]
struct FrontierCell {
    anchor: u64,
    inflight: u64,
    /// Terminal (crashed / finished / panicked): will never send again,
    /// and late deliveries into a dying mailbox must not wedge peers.
    dead: bool,
    /// The actor thread to unpark when this node's need is met.
    sleeper: Option<Thread>,
}

impl FrontierCell {
    /// What peers read from this cell: nothing it sends arrives before
    /// this plus the lookahead.
    fn min(&self) -> u64 {
        self.anchor.min(self.inflight)
    }
}

/// No need declared: the node is not (about to be) asleep.
const NO_NEED: u64 = u64::MAX;

/// A frontier cell and, outside its lock, the bound its node is asleep
/// waiting for. A waker *claims* a need by swapping it back to
/// [`NO_NEED`], so one declared need earns at most one unpark.
struct Slot {
    cell: Mutex<FrontierCell>,
    need: AtomicU64,
}

/// How long a sleeping actor trusts its wakers before it looks for
/// itself. Every state change that can open a gate carries a wake, so
/// this is a backstop (a peer wedged inside a dispatch, say), not the
/// mechanism: coarse on purpose.
const WATCHDOG: std::time::Duration = std::time::Duration::from_millis(10);

/// The causal gate's verdict on a node's next event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gate {
    /// Safe to dispatch: no message can still arrive ahead of it.
    Go,
    /// A message reached the mailbox after the caller's drain; drain
    /// and ask again.
    Redrain,
    /// Not yet provably safe; `blocker` is the peer holding the
    /// frontier lowest.
    Wait {
        /// The arg-min of the bound scan.
        blocker: NodeId,
    },
}

struct Inner {
    /// The channel. A node's send charges only its own lanes and rolls
    /// only its own loss stream, so the lock is for memory safety, not
    /// arbitration.
    net: Mutex<Network>,
    mailboxes: RwLock<Vec<Option<SyncSender<LiveMsg>>>>,
    counters: TransportCounters,
    /// Per-receiver `mailbox_full` attribution: which node's bounded
    /// mailbox was overflowing (the aggregate counter says only *that*
    /// backpressure happened; the supervisor needs to know *whose*
    /// flight recorder to dump).
    mailbox_full_by: Vec<AtomicU64>,
    /// Per-blocker sleep attribution: how often each node was the one
    /// holding a peer's frontier lowest when that peer went to sleep.
    slept_on: Vec<AtomicU64>,
    frontier: Vec<Slot>,
    /// Minimum one-hop delay in the topology: no message between
    /// distinct nodes can arrive sooner than this after its send.
    lookahead: Duration,
}

impl Inner {
    fn network(&self) -> std::sync::MutexGuard<'_, Network> {
        self.net.lock().expect("network lock")
    }

    fn cell(&self, node: NodeId) -> std::sync::MutexGuard<'_, FrontierCell> {
        self.frontier[node.index()]
            .cell
            .lock()
            .expect("frontier lock")
    }

    /// Record a delivered message's arrival time in the receiver's
    /// inflight floor (sender side, after a successful `try_send`).
    fn note_inflight(&self, dst: NodeId, at: Time) {
        let mut cell = self.cell(dst);
        if !cell.dead {
            cell.inflight = cell.inflight.min(at.as_micros());
        }
    }

    /// The causal bound for `node` and the peer that sets it (see
    /// [`Loopback::frontier_bound`]).
    fn bound(&self, node: NodeId) -> (u64, NodeId) {
        let (mut min, mut blocker) = (u64::MAX, node);
        for i in 0..self.frontier.len() as u32 {
            if i == node.0 {
                continue;
            }
            let cell = self.cell(NodeId(i));
            if !cell.dead && cell.min() < min {
                (min, blocker) = (cell.min(), NodeId(i));
            }
        }
        (min.saturating_add(self.lookahead.as_micros()), blocker)
    }

    /// Change `node`'s own cell under its lock, then wake whoever the
    /// change released. Returns the cell's new minimum.
    fn republish(&self, node: NodeId, change: impl FnOnce(&mut FrontierCell)) -> u64 {
        let (old_min, new_min) = {
            let mut cell = self.cell(node);
            let old_min = cell.min();
            change(&mut cell);
            (old_min, cell.min())
        };
        self.wake_released(node, old_min, new_min);
        new_min
    }

    /// `publisher`'s cell minimum rose from `old_min` to `new_min`:
    /// wake the sleepers this releases. A need is met by a bound at or
    /// above it, so the publisher held a peer back while `old_min +
    /// lookahead < need` and lets go once `need <= new_min + lookahead`;
    /// of those peers, the ones no *other* cell still holds back are
    /// unparked (the rest would only look and sleep again — whichever
    /// holder lets go last finds the whole bound open, because each
    /// reads the others' cells after its own publish).
    fn wake_released(&self, publisher: NodeId, old_min: u64, new_min: u64) {
        if new_min <= old_min {
            return;
        }
        let la = self.lookahead.as_micros();
        let (held, free) = (old_min.saturating_add(la), new_min.saturating_add(la));
        for (i, slot) in self.frontier.iter().enumerate() {
            let sleeper = NodeId(i as u32);
            let need = slot.need.load(Ordering::SeqCst);
            if sleeper == publisher || need == NO_NEED || need <= held || free < need {
                continue;
            }
            // Claim the need, so one sleep earns one unpark.
            if self.bound(sleeper).0 >= need && slot.need.swap(NO_NEED, Ordering::SeqCst) != NO_NEED
            {
                if let Some(t) = &self.cell(sleeper).sleeper {
                    t.unpark();
                }
            }
        }
    }

    /// A message arriving at `at` was handed to `dst`: if `dst` sleeps
    /// at the causal gate, the message may be its next event, so what
    /// it is waiting for drops to the bound that admits the message.
    /// No unpark here: the sender itself still holds that bound back
    /// (its anchor is at or before the send), and its next publish —
    /// always its next step — runs the wake rule against the lowered
    /// need. A receiver that declares concurrently and overwrites this
    /// finds its floor set on its second look and does not sleep.
    fn lower_need(&self, dst: NodeId, at: Time) {
        let admits = at.as_micros().saturating_add(1);
        let _ = self.frontier[dst.index()].need.fetch_update(
            Ordering::SeqCst,
            Ordering::SeqCst,
            |need| (need != NO_NEED && admits < need).then_some(admits),
        );
    }
}

/// The shared loopback network. Cheaply cloneable; one [`Port`] per
/// sending node.
#[derive(Clone)]
pub(crate) struct Loopback {
    inner: Arc<Inner>,
}

impl Loopback {
    /// The fleet's transport over `net`, the channel its nodes share.
    pub(crate) fn new(net: Network) -> Loopback {
        let n = net.topology().node_count();
        // Any inter-node path crosses at least one link, so its delay is
        // at least the smallest link latency. Clamped to 1 µs: a
        // zero-latency link would leave no causal slack at all and the
        // conservative scheduler could not make strict progress.
        let lookahead = net
            .topology()
            .links()
            .iter()
            .map(|l| l.latency)
            .min()
            .unwrap_or(Duration(1))
            .max(Duration(1));
        Loopback {
            inner: Arc::new(Inner {
                net: Mutex::new(net),
                mailboxes: RwLock::new((0..n).map(|_| None).collect()),
                counters: TransportCounters::default(),
                mailbox_full_by: (0..n).map(|_| AtomicU64::new(0)).collect(),
                slept_on: (0..n).map(|_| AtomicU64::new(0)).collect(),
                frontier: (0..n)
                    .map(|_| Slot {
                        cell: Mutex::new(FrontierCell {
                            anchor: 0,
                            inflight: u64::MAX,
                            dead: false,
                            sleeper: None,
                        }),
                        need: AtomicU64::new(NO_NEED),
                    })
                    .collect(),
                lookahead,
            }),
        }
    }

    /// Fold-and-clear `node`'s own frontier cell: the anchor becomes
    /// `min(next, pending inflight floor)` and the floor resets; peers
    /// the old claim was holding back are woken. Returns the folded
    /// anchor — if it is *below* `next`, a message earlier than the
    /// caller's known next event is already sitting in its mailbox
    /// (delivery precedes the floor update), so the caller must drain
    /// and re-fold before trusting its event choice.
    pub(crate) fn publish_anchor(&self, node: NodeId, next: Time) -> Time {
        Time(self.inner.republish(node, |cell| {
            cell.anchor = next.as_micros().min(cell.inflight);
            cell.inflight = u64::MAX;
        }))
    }

    /// Mark `node` terminal: it will never send again, so no peer may
    /// wait on it (and stray deliveries into its dying mailbox must not
    /// re-arm its floor).
    pub(crate) fn set_terminal(&self, node: NodeId) {
        self.inner.republish(node, |cell| {
            cell.anchor = u64::MAX;
            cell.inflight = u64::MAX;
            cell.dead = true;
        });
    }

    /// A crashed node that will be restarted hands its cell straight to
    /// the next incarnation: nothing leaves it before `back_at`. Call
    /// after [`Loopback::crash`] — with the mailbox detached no sender
    /// can re-arm the floor behind this store — so the cell never reads
    /// terminal in between and no peer can slip past the downtime.
    pub(crate) fn hand_off(&self, node: NodeId, back_at: Time) {
        self.inner.republish(node, |cell| {
            cell.anchor = back_at.as_micros();
            cell.inflight = u64::MAX;
        });
    }

    /// The causal bound for `node` and the peer that sets it: no message
    /// can arrive at `node` before this instant. Every peer's future
    /// sends are dispatched at or after `min(anchor, inflight)` of its
    /// cell, and any inter-node path adds at least `lookahead`; dead
    /// peers never send (with none left alive the bound is infinite and
    /// the blocker is `node` itself). Local events strictly below the
    /// bound are safe to dispatch (an event *at* it is safe if it is a
    /// timer, which wins ties against messages).
    pub(crate) fn frontier_bound(&self, node: NodeId) -> (Time, NodeId) {
        let (bound, blocker) = self.inner.bound(node);
        (Time(bound), blocker)
    }

    /// The dispatch rule, one call: fold `next` (the caller's earliest
    /// event after a drain) into the node's anchor, read the bound, then
    /// read the node's own floor again. `need` is the bound that makes
    /// the event safe: its instant for a timer, one past it for a
    /// message, one past the horizon to finish.
    pub(crate) fn gate(&self, node: NodeId, next: Time, need: Time) -> Gate {
        if self.publish_anchor(node, next) < next {
            return Gate::Redrain;
        }
        self.admit(node, need)
    }

    /// Bound, then floor — in that order. Between the fold and the
    /// bound read a peer can send to `node` *and* move on (publish a
    /// later anchor, or go terminal); the bound then no longer covers a
    /// message already in the mailbox. A sender notes the receiver's
    /// floor before it next touches its own cell, so whenever the bound
    /// read saw the sender's later claim, this floor read sees the note:
    /// floor set means drain and go round again.
    fn admit(&self, node: NodeId, need: Time) -> Gate {
        let (bound, blocker) = self.frontier_bound(node);
        if self.inner.cell(node).inflight != u64::MAX {
            Gate::Redrain
        } else if bound >= need {
            Gate::Go
        } else {
            Gate::Wait { blocker }
        }
    }

    /// Name the calling thread as the one to unpark for `node`.
    pub(crate) fn attach_sleeper(&self, node: NodeId) {
        self.inner.cell(node).sleeper = Some(std::thread::current());
    }

    /// Declare that `node` is about to sleep until its bound reaches
    /// `need`, then look once more: a publish that landed before the
    /// declaration saw no need and woke nobody. Returns the peer still
    /// holding the node back, or None with the need withdrawn (do not
    /// sleep). Cells change under their locks and a publisher reads the
    /// needs after its unlock, so either this look sees the new cell or
    /// the publisher sees the need.
    fn declare_need(&self, node: NodeId, need: Time) -> Option<NodeId> {
        let slot = &self.inner.frontier[node.index()];
        slot.need.store(need.as_micros(), Ordering::SeqCst);
        match self.admit(node, need) {
            Gate::Wait { blocker } => Some(blocker),
            Gate::Go | Gate::Redrain => {
                slot.need.store(NO_NEED, Ordering::SeqCst);
                None
            }
        }
    }

    /// Put the calling actor to sleep until `node`'s bound can have
    /// reached `need` (or a message's arrival lowered what it needs and
    /// that was reached). Returns false if the second look found the
    /// gate already open and the node never slept.
    pub(crate) fn wait(&self, node: NodeId, need: Time) -> bool {
        let Some(blocker) = self.declare_need(node, need) else {
            return false;
        };
        self.inner.slept_on[blocker.index()].fetch_add(1, Ordering::Relaxed);
        let slot = &self.inner.frontier[node.index()];
        let asleep = std::time::Instant::now();
        // A waker claims the need before it unparks; anything else that
        // ends a park is spurious (or a token left by a waker that lost
        // the race to an earlier sleep).
        while slot.need.load(Ordering::SeqCst) != NO_NEED {
            let Some(left) = WATCHDOG.checked_sub(asleep.elapsed()) else {
                slot.need.store(NO_NEED, Ordering::SeqCst);
                break;
            };
            std::thread::park_timeout(left);
        }
        true
    }

    /// Sleeps attributed to `node` as the peer holding the sleeper's
    /// frontier lowest.
    pub(crate) fn slept_on(&self, node: NodeId) -> u64 {
        self.inner.slept_on[node.index()].load(Ordering::Relaxed)
    }

    /// Attach (or re-attach, after a restart) a node's mailbox sender.
    pub(crate) fn register(&self, node: NodeId, tx: SyncSender<LiveMsg>) {
        self.inner.mailboxes.write().expect("mailboxes lock")[node.index()] = Some(tx);
    }

    /// Mark a node crashed: detach its mailbox and take it down in the
    /// network, whose routes heal around it (dead relays lose carrier).
    pub(crate) fn crash(&self, node: NodeId) {
        self.inner.mailboxes.write().expect("mailboxes lock")[node.index()] = None;
        self.inner.network().set_down(node, true);
    }

    /// Bring a restarted node back: routes may transit it again once its
    /// mailbox is re-registered.
    pub(crate) fn restore(&self, node: NodeId) {
        self.inner.network().set_down(node, false);
    }

    /// A sending handle for `node`.
    pub(crate) fn port(&self, node: NodeId) -> Port {
        Port {
            inner: Arc::clone(&self.inner),
            src: node,
            seq: 0,
        }
    }

    /// Snapshot of the drop counters.
    pub(crate) fn counters(&self) -> &TransportCounters {
        &self.inner.counters
    }

    /// `mailbox_full` drops attributed to one receiver's mailbox.
    pub(crate) fn mailbox_full_at(&self, node: NodeId) -> u64 {
        self.inner.mailbox_full_by[node.index()].load(Ordering::Relaxed)
    }
}

/// A per-sender handle (owns the sender's send sequence; lives on the
/// actor thread).
pub(crate) struct Port {
    inner: Arc<Inner>,
    src: NodeId,
    seq: u64,
}

impl Port {
    /// Route and send an envelope at logical time `now`. Returns the
    /// logical arrival time if the message entered the network (drops
    /// are counted, never surfaced to the sender — same contract as the
    /// simulator's fire-and-forget `transmit`).
    pub(crate) fn send(&mut self, now: Time, env: Envelope) -> Option<Time> {
        let dst = env.dst;
        let c = &self.inner.counters;
        let at = if dst == self.src {
            // Loopback: immediate, lossless, no network traversal —
            // mirrors the simulator's `transmit` self-send short-circuit.
            now
        } else {
            // The simulator's `transmit`, through the same channel.
            let bytes = env.wire_size();
            let mut net = self.inner.network();
            let sent = net
                .route(self.src, dst)
                .and_then(|()| net.transmit(now, self.src, bytes));
            match sent {
                Ok(at) => at,
                Err(reason) => {
                    let counter = match reason {
                        DropReason::TransmissionLoss => &c.transmission_loss,
                        DropReason::GuardianDenied => &c.guardian_denied,
                        _ => &c.no_route,
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
        };
        self.seq += 1;
        let msg = LiveMsg {
            at,
            from: self.src,
            seq: self.seq,
            env,
        };
        // Hand over and note the receiver's floor under the one read
        // guard: once `crash` has detached a mailbox (write guard), no
        // floor note for it is still on its way.
        let handed = {
            let boxes = self.inner.mailboxes.read().expect("mailboxes lock");
            let handed = match &boxes[dst.index()] {
                Some(tx) => tx.try_send(msg),
                None => Err(TrySendError::Disconnected(msg)),
            };
            if handed.is_ok() {
                self.inner.note_inflight(dst, at);
                self.inner.lower_need(dst, at);
            }
            handed
        };
        match handed {
            Ok(()) => {
                c.sent.fetch_add(1, Ordering::Relaxed);
                Some(at)
            }
            Err(TrySendError::Full(_)) => {
                c.mailbox_full.fetch_add(1, Ordering::Relaxed);
                self.inner.mailbox_full_by[dst.index()].fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(TrySendError::Disconnected(_)) => {
                c.receiver_down.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }
}

/// Build a bounded mailbox pair for one node.
pub(crate) fn mailbox(cap: usize) -> (SyncSender<LiveMsg>, Receiver<LiveMsg>) {
    std::sync::mpsc::sync_channel(cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_model::{Payload, Topology};
    use btr_net::hop_bound;

    const PERIOD: Duration = Duration(10_000);

    fn env(src: u32, dst: u32) -> Envelope {
        Envelope::new(NodeId(src), NodeId(dst), Time(0), Payload::Control(1))
    }

    #[test]
    fn delivers_with_link_delay() {
        let topo = Topology::bus(3, 10_000, Duration(10));
        let net = Loopback::new(Network::new(topo.clone(), PERIOD, 1, 0, None));
        let (tx, rx) = mailbox(16);
        net.register(NodeId(1), tx);
        let mut port = net.port(NodeId(0));
        let e = env(0, 1);
        let wire = e.wire_size();
        let at = port.send(Time(100), e).expect("delivered");
        let expect = Time(100) + hop_bound(topo.link(btr_model::LinkId(0)), wire);
        assert_eq!(at, expect);
        let got = rx.recv().unwrap();
        assert_eq!(got.at, expect);
        assert_eq!(got.from, NodeId(0));
    }

    #[test]
    fn crash_detaches_and_heals() {
        // Line 0-1-2: after 1 crashes, 0->2 must route around (bus has no
        // alternative here, so it becomes no-route), and sends to 1 count
        // as receiver_down.
        let mut b = btr_model::TopologyBuilder::new();
        let n0 = b.full_node();
        let n1 = b.full_node();
        let n2 = b.full_node();
        b.link(&[n0, n1], 10_000, Duration(5));
        b.link(&[n1, n2], 10_000, Duration(5));
        let net = Loopback::new(Network::new(b.build().unwrap(), PERIOD, 1, 0, None));
        let (tx0, _rx0) = mailbox(4);
        net.register(NodeId(2), tx0);
        let mut port = net.port(NodeId(0));
        assert!(port.send(Time(0), env(0, 2)).is_some());
        net.crash(NodeId(1));
        assert!(port.send(Time(0), env(0, 2)).is_none());
        assert_eq!(net.counters().no_route.load(Ordering::Relaxed), 1);
        assert!(port.send(Time(0), env(0, 1)).is_none());
        assert_eq!(net.counters().receiver_down.load(Ordering::Relaxed), 1);
        // Restart: routes transit node 1 again.
        net.restore(NodeId(1));
        assert!(port.send(Time(0), env(0, 2)).is_some());
    }

    #[test]
    fn mailbox_backpressure_counts_drops() {
        let topo = Topology::bus(2, 10_000, Duration(1));
        let net = Loopback::new(Network::new(topo, PERIOD, 1, 0, None));
        let (tx, _rx) = mailbox(2);
        net.register(NodeId(1), tx);
        let mut port = net.port(NodeId(0));
        assert!(port.send(Time(0), env(0, 1)).is_some());
        assert!(port.send(Time(0), env(0, 1)).is_some());
        assert!(port.send(Time(0), env(0, 1)).is_none());
        assert_eq!(net.counters().mailbox_full.load(Ordering::Relaxed), 1);
        assert_eq!(net.counters().sent.load(Ordering::Relaxed), 2);
        // The drop is attributed to the overflowing receiver.
        assert_eq!(net.mailbox_full_at(NodeId(1)), 1);
        assert_eq!(net.mailbox_full_at(NodeId(0)), 0);
    }

    #[test]
    fn frontier_bound_tracks_anchors_inflight_and_death() {
        let topo = Topology::bus(3, 10_000, Duration(10));
        let net = Loopback::new(Network::new(topo, PERIOD, 1, 0, None));
        assert_eq!(net.inner.lookahead, Duration(10));
        // Initial anchors are 0: bound = 0 + lookahead.
        assert_eq!(net.frontier_bound(NodeId(0)).0, Time(10));
        net.publish_anchor(NodeId(1), Time(50));
        net.publish_anchor(NodeId(2), Time(80));
        assert_eq!(net.frontier_bound(NodeId(0)), (Time(60), NodeId(1)));
        // Own cell is excluded from own bound.
        assert_eq!(net.frontier_bound(NodeId(1)), (Time(10), NodeId(0)));
        net.publish_anchor(NodeId(0), Time(200));
        assert_eq!(net.frontier_bound(NodeId(1)), (Time(90), NodeId(2)));
        // A delivered message pins the receiver's inflight floor below
        // its anchor until the receiver folds it.
        let (tx, rx) = mailbox(8);
        net.register(NodeId(2), tx);
        let mut port = net.port(NodeId(0));
        port.send(Time(15), env(0, 2)).expect("delivered");
        let arrival = Time(15) + topo_delay();
        assert_eq!(net.frontier_bound(NodeId(1)).0, arrival + Duration(10));
        // The fold returns the floor, telling node 2 to re-drain …
        let folded = net.publish_anchor(NodeId(2), Time(80));
        assert_eq!(folded, arrival);
        // … and once folded the floor is cleared into the anchor.
        assert_eq!(net.frontier_bound(NodeId(1)).0, arrival + Duration(10));
        let _ = rx;
        // Terminal nodes drop out of every bound.
        net.set_terminal(NodeId(2));
        assert_eq!(net.frontier_bound(NodeId(1)), (Time(210), NodeId(0)));
        assert_eq!(net.frontier_bound(NodeId(0)), (Time(60), NodeId(1)));
        // With no peer left alive nothing can arrive, and nobody blocks.
        net.set_terminal(NodeId(1));
        assert_eq!(net.frontier_bound(NodeId(0)), (Time(u64::MAX), NodeId(0)));
    }

    fn topo_delay() -> Duration {
        let topo = Topology::bus(3, 10_000, Duration(10));
        let e = env(0, 2);
        hop_bound(topo.link(btr_model::LinkId(0)), e.wire_size())
    }

    /// R = node 0 and P = node 1 on a three-node bus (lookahead 10)
    /// whose third node is terminal; R's mailbox is registered.
    fn gate_net() -> (Loopback, Receiver<LiveMsg>) {
        let net = Loopback::new(Network::new(
            Topology::bus(3, 10_000, Duration(10)),
            PERIOD,
            1,
            0,
            None,
        ));
        net.set_terminal(NodeId(2));
        let (tx, rx) = mailbox(8);
        net.register(R, tx);
        (net, rx)
    }
    const R: NodeId = NodeId(0);
    const P: NodeId = NodeId(1);

    /// The need `node` has declared, if a waker has not claimed it.
    fn declared(net: &Loopback, node: NodeId) -> Option<u64> {
        let need = net.inner.frontier[node.index()].need.load(Ordering::SeqCst);
        (need != NO_NEED).then_some(need)
    }

    #[test]
    fn gate_redrains_when_the_sender_moved_on_between_fold_and_bound() {
        // The losing interleaving, both endings. R has drained and holds
        // a timer at 500; P sits at 100.
        for p_dies in [false, true] {
            let (net, _rx) = gate_net();
            net.publish_anchor(P, Time(100));
            assert_eq!(net.gate(R, Time(500), Time(500)), Gate::Wait { blocker: P });
            // R folds …
            assert_eq!(net.publish_anchor(R, Time(500)), Time(500));
            // … P dispatches at 100, sends to R, and moves on …
            let arrival = net.port(P).send(Time(100), env(1, 0)).expect("delivered");
            assert!(arrival < Time(500));
            if p_dies {
                net.set_terminal(P);
            } else {
                net.publish_anchor(P, Time(900));
            }
            // … and the bound R now reads no longer covers the message:
            // on the bound alone (the parent's rule) the timer at 500
            // would dispatch ahead of an arrival before it.
            assert!(net.frontier_bound(R).0 >= Time(500));
            assert_eq!(net.admit(R, Time(500)), Gate::Redrain);
            // Drained, the message is R's next event and is safe.
            assert_eq!(net.gate(R, arrival, arrival + Duration(1)), Gate::Go);
        }
    }

    #[test]
    fn gate_orders_fold_bound_and_need() {
        let (net, _rx) = gate_net();
        net.publish_anchor(P, Time(100));
        // A timer may dispatch at the bound, a message only below it.
        assert_eq!(net.gate(R, Time(110), Time(110)), Gate::Go);
        assert_eq!(net.gate(R, Time(110), Time(111)), Gate::Wait { blocker: P });
        // A message below the caller's choice shows in the fold already.
        let arrival = net.port(P).send(Time(100), env(1, 0)).expect("delivered");
        assert_eq!(net.gate(R, Time(5_000), Time(5_000)), Gate::Redrain);
        assert_eq!(
            net.gate(R, arrival, arrival + Duration(1)),
            Gate::Wait { blocker: P }
        );
    }

    #[test]
    fn publish_wakes_exactly_the_sleepers_it_released() {
        // Q = node 2 alive this time: two publishers, one sleeper.
        let net = Loopback::new(Network::new(
            Topology::bus(3, 10_000, Duration(10)),
            PERIOD,
            1,
            0,
            None,
        ));
        let q = NodeId(2);
        net.publish_anchor(P, Time(200));
        net.publish_anchor(q, Time(100));
        // R needs its bound at 150: Q (100 + 10) holds it back, P does not.
        assert_eq!(net.declare_need(R, Time(150)), Some(q));
        assert_eq!(declared(&net, R), Some(150));
        // P was not holding R back (old_min + la >= need): no wake.
        net.publish_anchor(P, Time(300));
        assert_eq!(declared(&net, R), Some(150));
        // Q moves but still holds R back (new_min + la < need): no wake.
        net.publish_anchor(q, Time(139));
        assert_eq!(declared(&net, R), Some(150));
        // Q lets go (need <= new_min + la): the need is claimed.
        net.publish_anchor(q, Time(140));
        assert_eq!(declared(&net, R), None);

        // Two holders: the first to let go leaves R asleep (it would
        // only look and sleep again), the last one wakes it.
        net.publish_anchor(P, Time(100));
        net.publish_anchor(q, Time(100));
        assert!(net.declare_need(R, Time(150)).is_some());
        net.publish_anchor(P, Time(300));
        assert_eq!(declared(&net, R), Some(150));
        net.publish_anchor(q, Time(300));
        assert_eq!(declared(&net, R), None);

        // Going terminal or handing off to a restart releases too.
        net.publish_anchor(q, Time(100));
        assert_eq!(net.declare_need(R, Time(150)), Some(q));
        net.set_terminal(q);
        assert_eq!(declared(&net, R), None);
        net.publish_anchor(P, Time(100));
        assert_eq!(net.declare_need(R, Time(150)), Some(P));
        net.hand_off(P, Time(5_000));
        assert_eq!(declared(&net, R), None);
        assert_eq!(net.frontier_bound(R), (Time(5_010), P));
    }

    #[test]
    fn send_lowers_a_sleepers_need_and_the_senders_publish_wakes_it() {
        let (net, _rx) = gate_net();
        net.publish_anchor(P, Time(100));
        assert_eq!(net.declare_need(R, Time(500)), Some(P));
        // P, dispatching at 100, sends to R: R now waits for the bound
        // that admits the message, and P still holds that back.
        let arrival = net.port(P).send(Time(100), env(1, 0)).expect("delivered");
        assert_eq!(declared(&net, R), Some(arrival.as_micros() + 1));
        // A later message never raises it again.
        net.port(P).send(Time(105), env(1, 0)).expect("delivered");
        assert_eq!(declared(&net, R), Some(arrival.as_micros() + 1));
        // P's next step is a publish; one that still holds the message
        // back leaves R asleep, the one that admits it wakes R.
        net.publish_anchor(P, Time(arrival.as_micros() - 10));
        assert_eq!(declared(&net, R), Some(arrival.as_micros() + 1));
        net.publish_anchor(P, Time(arrival.as_micros() - 9));
        assert_eq!(declared(&net, R), None);
        // Nobody asleep, nothing declared: a send leaves the need alone.
        net.port(P).send(Time(200), env(1, 0)).expect("delivered");
        assert_eq!(declared(&net, R), None);
    }

    #[test]
    fn need_declared_after_the_change_is_caught_by_the_second_look() {
        // The publish finds no need to wake; the declaration's own look
        // finds the gate open and withdraws the need.
        let (net, _rx) = gate_net();
        net.publish_anchor(P, Time(100));
        assert_eq!(net.gate(R, Time(500), Time(500)), Gate::Wait { blocker: P });
        net.publish_anchor(P, Time(490));
        assert_eq!(net.declare_need(R, Time(500)), None);
        assert_eq!(declared(&net, R), None);
        assert!(!net.wait(R, Time(500)), "an open gate must not sleep");
        // Same for a message that lands between the gate and the
        // declaration: the floor is set, so there is nothing to wait for.
        assert_eq!(net.gate(R, Time(600), Time(600)), Gate::Wait { blocker: P });
        net.port(P).send(Time(490), env(1, 0)).expect("delivered");
        assert_eq!(net.declare_need(R, Time(600)), None);
        assert_eq!(declared(&net, R), None);
        assert_eq!(net.slept_on(P), 0);
    }

    #[test]
    fn watchdog_ends_a_sleep_nobody_wakes() {
        let (net, _rx) = gate_net();
        net.attach_sleeper(R);
        net.publish_anchor(P, Time(100));
        assert!(net.wait(R, Time(500)), "blocked: this one sleeps");
        assert_eq!(declared(&net, R), None);
        assert_eq!((net.slept_on(P), net.slept_on(R)), (1, 0));
    }

    #[test]
    fn a_restarted_port_continues_its_nodes_loss_stream() {
        // Forty sends from one port, or twenty from each of two
        // incarnations of node 0 with a crash between: one loss pattern.
        let topo = Topology::bus(2, 10_000, Duration(1));
        let pattern = |incarnations: usize| {
            let net = Loopback::new(Network::new(topo.clone(), PERIOD, 9, 200_000, None));
            let (tx, _rx) = mailbox(64);
            net.register(NodeId(1), tx);
            let mut sent = Vec::new();
            for k in 0..incarnations {
                if k > 0 {
                    net.crash(NodeId(0));
                    net.restore(NodeId(0));
                }
                let mut port = net.port(NodeId(0));
                for _ in 0..40 / incarnations {
                    sent.push(port.send(Time(0), env(0, 1)).is_some());
                }
            }
            sent
        };
        let one = pattern(1);
        assert!(one.contains(&true) && one.contains(&false), "{one:?}");
        assert_eq!(pattern(2), one);
    }
}
