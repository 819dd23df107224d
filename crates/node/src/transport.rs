//! In-process loopback transport for the live runtime.
//!
//! Mirrors the simulator's network model on the same `btr_net` link
//! parameters: multi-hop routes from `RoutingTable::avoiding_transit`
//! (crashed relays lose carrier and routes heal around them, exactly
//! like `World::heal_routes`), per-hop delay = serialisation time +
//! propagation latency from each `LinkSpec`, and deterministic
//! transmission loss from a per-sender hash-chain roll. What it does
//! *not* model is link contention (`LinkLayer` busy-until) and guardian
//! byte accounting — the live analogue of a finite link is the bounded
//! mailbox, whose backpressure drops are counted and surfaced instead
//! of silently blocking a sender.
//!
//! Envelopes are physically handed over the moment they are sent, but
//! stamped with their *logical* arrival time; the receiving actor parks
//! them until that instant. Logical timestamps, not delivery jitter,
//! are what the trace-equivalence oracle compares.
//!
//! The transport also carries the conservative scheduler's shared
//! state: one causal-frontier cell per node (a lower bound on the
//! arrival time of anything that node may still send) and the
//! topology-wide minimum link delay (lookahead). See the actor module
//! docs for the dispatch rule built on these.

use btr_crypto::digest64;
use btr_model::{Duration, Envelope, NodeId, Time, Topology};
use btr_net::RoutingTable;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};

/// A message in flight: the signed envelope plus its logical arrival
/// time and a per-sender sequence for deterministic same-instant
/// ordering at the receiver.
#[derive(Debug)]
pub struct LiveMsg {
    /// Logical arrival time (send time + per-hop link delays).
    pub at: Time,
    /// Sending node (transport-level truth, unlike `env.src` which a
    /// Byzantine sender can spoof).
    pub from: NodeId,
    /// Per-sender send counter.
    pub seq: u64,
    /// The envelope.
    pub env: Envelope,
}

/// Drop counters, one cell per cause (all monotone; read at shutdown).
#[derive(Debug, Default)]
pub struct TransportCounters {
    /// Bounded-mailbox backpressure drops (`try_send` on a full queue).
    pub mailbox_full: AtomicU64,
    /// Messages addressed to a crashed / not-yet-restarted node.
    pub receiver_down: AtomicU64,
    /// Deterministic transmission loss (per-sender hash-chain roll).
    pub transmission_loss: AtomicU64,
    /// No route to the destination (partition after crashes).
    pub no_route: AtomicU64,
    /// Messages accepted into the network.
    pub sent: AtomicU64,
}

struct RouteState {
    table: RoutingTable,
    crashed: BTreeSet<NodeId>,
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
}

struct Inner {
    topo: Topology,
    seed: u64,
    loss_ppm: u32,
    routes: RwLock<RouteState>,
    mailboxes: RwLock<Vec<Option<SyncSender<LiveMsg>>>>,
    counters: TransportCounters,
    /// Per-receiver `mailbox_full` attribution: which node's bounded
    /// mailbox was overflowing (the aggregate counter says only *that*
    /// backpressure happened; the supervisor needs to know *whose*
    /// flight recorder to dump).
    mailbox_full_by: Vec<AtomicU64>,
    frontier: Vec<Mutex<FrontierCell>>,
    /// Minimum one-hop delay in the topology: no message between
    /// distinct nodes can arrive sooner than this after its send.
    lookahead: Duration,
}

impl Inner {
    /// Record a delivered message's arrival time in the receiver's
    /// inflight floor (sender side, after a successful `try_send`).
    fn note_inflight(&self, dst: NodeId, at: Time) {
        let mut cell = self.frontier[dst.index()].lock().expect("frontier lock");
        if !cell.dead {
            cell.inflight = cell.inflight.min(at.as_micros());
        }
    }
}

/// The shared loopback network. Cheaply cloneable; one [`Port`] per
/// sending node.
#[derive(Clone)]
pub struct Loopback {
    inner: Arc<Inner>,
}

impl Loopback {
    /// Build a network over `topo` with deterministic per-sender loss.
    pub fn new(topo: Topology, seed: u64, loss_ppm: u32) -> Loopback {
        let table = RoutingTable::new(&topo);
        let n = topo.node_count();
        // Any inter-node path crosses at least one link, so its delay is
        // at least the smallest link latency. Clamped to 1 µs: a
        // zero-latency link would leave no causal slack at all and the
        // conservative scheduler could not make strict progress.
        let lookahead = topo
            .links()
            .iter()
            .map(|l| l.latency)
            .min()
            .unwrap_or(Duration(1))
            .max(Duration(1));
        Loopback {
            inner: Arc::new(Inner {
                topo,
                seed,
                loss_ppm,
                routes: RwLock::new(RouteState {
                    table,
                    crashed: BTreeSet::new(),
                }),
                mailboxes: RwLock::new((0..n).map(|_| None).collect()),
                counters: TransportCounters::default(),
                mailbox_full_by: (0..n).map(|_| AtomicU64::new(0)).collect(),
                frontier: (0..n)
                    .map(|_| {
                        Mutex::new(FrontierCell {
                            anchor: 0,
                            inflight: u64::MAX,
                            dead: false,
                        })
                    })
                    .collect(),
                lookahead,
            }),
        }
    }

    /// The minimum one-hop delay (see `Inner::lookahead`).
    pub fn lookahead(&self) -> Duration {
        self.inner.lookahead
    }

    /// Fold-and-clear `node`'s own frontier cell: the anchor becomes
    /// `min(next, pending inflight floor)` and the floor resets.
    /// Returns the folded anchor — if it is *below* `next`, a message
    /// earlier than the caller's known next event is already sitting in
    /// its mailbox (delivery precedes the floor update), so the caller
    /// must drain and re-fold before trusting its event choice.
    pub fn publish_anchor(&self, node: NodeId, next: Time) -> Time {
        let mut cell = self.inner.frontier[node.index()]
            .lock()
            .expect("frontier lock");
        let folded = next.as_micros().min(cell.inflight);
        cell.anchor = folded;
        cell.inflight = u64::MAX;
        Time(folded)
    }

    /// Mark `node` terminal: it will never send again, so no peer may
    /// wait on it (and stray deliveries into its dying mailbox must not
    /// re-arm its floor).
    pub fn set_terminal(&self, node: NodeId) {
        let mut cell = self.inner.frontier[node.index()]
            .lock()
            .expect("frontier lock");
        cell.anchor = u64::MAX;
        cell.inflight = u64::MAX;
        cell.dead = true;
    }

    /// Supervisor-only: pull a terminal frontier back down to a restart
    /// instant. The restarted incarnation dispatches nothing before
    /// `at`, and peers are wall-paced far behind `at` when this runs.
    pub fn reset_frontier(&self, node: NodeId, at: Time) {
        let mut cell = self.inner.frontier[node.index()]
            .lock()
            .expect("frontier lock");
        cell.anchor = at.as_micros();
        cell.inflight = u64::MAX;
        cell.dead = false;
    }

    /// The causal bound for `node`: no message can arrive at `node`
    /// before this instant. Every peer's future sends are dispatched at
    /// or after `min(anchor, inflight)` of its cell, and any inter-node
    /// path adds at least `lookahead`; dead peers never send. Local
    /// events strictly below the bound are safe to dispatch (an event
    /// *at* it is safe if it is a timer, which wins ties against
    /// messages).
    pub fn frontier_bound(&self, node: NodeId) -> Time {
        let mut min = u64::MAX;
        for (i, f) in self.inner.frontier.iter().enumerate() {
            if i == node.index() {
                continue;
            }
            let cell = f.lock().expect("frontier lock");
            if !cell.dead {
                min = min.min(cell.anchor.min(cell.inflight));
            }
        }
        Time(min.saturating_add(self.inner.lookahead.as_micros()))
    }

    /// Attach (or re-attach, after a restart) a node's mailbox sender.
    pub fn register(&self, node: NodeId, tx: SyncSender<LiveMsg>) {
        self.inner.mailboxes.write().expect("mailboxes lock")[node.index()] = Some(tx);
    }

    /// Mark a node crashed: detach its mailbox and heal routes around it
    /// (dead relays lose carrier, same semantics as the simulator's
    /// `heal_routes`).
    pub fn crash(&self, node: NodeId) {
        self.inner.mailboxes.write().expect("mailboxes lock")[node.index()] = None;
        let mut st = self.inner.routes.write().expect("routes lock");
        st.crashed.insert(node);
        st.table = RoutingTable::avoiding_transit(&self.inner.topo, &st.crashed);
    }

    /// Bring a restarted node back: routes may transit it again once its
    /// mailbox is re-registered.
    pub fn restore(&self, node: NodeId) {
        let mut st = self.inner.routes.write().expect("routes lock");
        st.crashed.remove(&node);
        st.table = RoutingTable::avoiding_transit(&self.inner.topo, &st.crashed);
    }

    /// A sending handle for `node`.
    pub fn port(&self, node: NodeId) -> Port {
        Port {
            inner: Arc::clone(&self.inner),
            src: node,
            loss_counter: 0,
            seq: 0,
        }
    }

    /// Snapshot of the drop counters.
    pub fn counters(&self) -> &TransportCounters {
        &self.inner.counters
    }

    /// `mailbox_full` drops attributed to one receiver's mailbox.
    pub fn mailbox_full_at(&self, node: NodeId) -> u64 {
        self.inner.mailbox_full_by[node.index()].load(Ordering::Relaxed)
    }
}

/// A per-sender handle (owns the sender's loss-roll chain and send
/// sequence; lives on the actor thread).
pub struct Port {
    inner: Arc<Inner>,
    src: NodeId,
    loss_counter: u64,
    seq: u64,
}

impl Port {
    /// One transmission-loss roll in `0..1_000_000`, deterministic per
    /// (seed, sender, message index) — the live counterpart of the
    /// simulator's hash-chain sampler.
    fn loss_roll(&mut self) -> u32 {
        self.loss_counter += 1;
        (digest64(&[
            b"btr-live-loss",
            &self.inner.seed.to_be_bytes(),
            &self.src.0.to_be_bytes(),
            &self.loss_counter.to_be_bytes(),
        ]) % 1_000_000) as u32
    }

    /// Route and send an envelope at logical time `now`. Returns the
    /// logical arrival time if the message entered the network (drops
    /// are counted, never surfaced to the sender — same contract as the
    /// simulator's fire-and-forget `transmit`).
    pub fn send(&mut self, now: Time, env: Envelope) -> Option<Time> {
        let c = &self.inner.counters;
        let dst = env.dst;
        let bytes = env.wire_size();
        if dst == self.src {
            // Loopback: immediate, lossless, no network traversal —
            // mirrors the simulator's `transmit` self-send short-circuit.
            self.seq += 1;
            let msg = LiveMsg {
                at: now,
                from: self.src,
                seq: self.seq,
                env,
            };
            let tx = self.inner.mailboxes.read().expect("mailboxes lock")[dst.index()].clone();
            return match tx.and_then(|tx| tx.try_send(msg).ok()) {
                Some(()) => {
                    self.inner.note_inflight(dst, now);
                    c.sent.fetch_add(1, Ordering::Relaxed);
                    Some(now)
                }
                None => {
                    c.receiver_down.fetch_add(1, Ordering::Relaxed);
                    None
                }
            };
        }
        let delay = {
            let st = self.inner.routes.read().expect("routes lock");
            let Some((_, links)) = st.table.path_and_links(self.src, dst) else {
                c.no_route.fetch_add(1, Ordering::Relaxed);
                return None;
            };
            let mut d = Duration::ZERO;
            for &l in links {
                let spec = self.inner.topo.link(l);
                d += spec.tx_time(bytes) + spec.latency;
            }
            d
        };
        if self.inner.loss_ppm > 0 && self.loss_roll() < self.inner.loss_ppm {
            self.inner
                .counters
                .transmission_loss
                .fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let c = &self.inner.counters;
        let at = now + delay;
        self.seq += 1;
        let msg = LiveMsg {
            at,
            from: self.src,
            seq: self.seq,
            env,
        };
        let tx = {
            let boxes = self.inner.mailboxes.read().expect("mailboxes lock");
            boxes[dst.index()].clone()
        };
        match tx {
            None => {
                c.receiver_down.fetch_add(1, Ordering::Relaxed);
                None
            }
            Some(tx) => match tx.try_send(msg) {
                Ok(()) => {
                    self.inner.note_inflight(dst, at);
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
            },
        }
    }
}

/// Build a bounded mailbox pair for one node.
pub fn mailbox(cap: usize) -> (SyncSender<LiveMsg>, Receiver<LiveMsg>) {
    std::sync::mpsc::sync_channel(cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_model::Payload;

    fn env(src: u32, dst: u32) -> Envelope {
        Envelope::new(NodeId(src), NodeId(dst), Time(0), Payload::Control(1))
    }

    #[test]
    fn delivers_with_link_delay() {
        let topo = Topology::bus(3, 10_000, Duration(10));
        let net = Loopback::new(topo.clone(), 1, 0);
        let (tx, rx) = mailbox(16);
        net.register(NodeId(1), tx);
        let mut port = net.port(NodeId(0));
        let e = env(0, 1);
        let wire = e.wire_size();
        let at = port.send(Time(100), e).expect("delivered");
        let expect = Time(100) + topo.link(btr_model::LinkId(0)).tx_time(wire) + Duration(10);
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
        let net = Loopback::new(b.build().unwrap(), 1, 0);
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
        let net = Loopback::new(topo, 1, 0);
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
        let net = Loopback::new(topo, 1, 0);
        assert_eq!(net.lookahead(), Duration(10));
        // Initial anchors are 0: bound = 0 + lookahead.
        assert_eq!(net.frontier_bound(NodeId(0)), Time(10));
        net.publish_anchor(NodeId(1), Time(50));
        net.publish_anchor(NodeId(2), Time(80));
        assert_eq!(net.frontier_bound(NodeId(0)), Time(60));
        // Own cell is excluded from own bound.
        assert_eq!(net.frontier_bound(NodeId(1)), Time(10));
        net.publish_anchor(NodeId(0), Time(200));
        assert_eq!(net.frontier_bound(NodeId(1)), Time(90));
        // A delivered message pins the receiver's inflight floor below
        // its anchor until the receiver folds it.
        let (tx, rx) = mailbox(8);
        net.register(NodeId(2), tx);
        let mut port = net.port(NodeId(0));
        port.send(Time(15), env(0, 2)).expect("delivered");
        let arrival = Time(15) + topo_delay();
        assert_eq!(net.frontier_bound(NodeId(1)), arrival + Duration(10));
        // The fold returns the floor, telling node 2 to re-drain …
        let folded = net.publish_anchor(NodeId(2), Time(80));
        assert_eq!(folded, arrival);
        // … and once folded the floor is cleared into the anchor.
        assert_eq!(net.frontier_bound(NodeId(1)), arrival + Duration(10));
        let _ = rx;
        // Terminal nodes drop out of every bound; a reset re-enters.
        net.set_terminal(NodeId(2));
        assert_eq!(net.frontier_bound(NodeId(1)), Time(210));
        net.reset_frontier(NodeId(2), Time(500));
        assert_eq!(net.frontier_bound(NodeId(1)), Time(210));
        assert_eq!(net.frontier_bound(NodeId(0)), Time(60));
    }

    fn topo_delay() -> Duration {
        let topo = Topology::bus(3, 10_000, Duration(10));
        let e = env(0, 2);
        topo.link(btr_model::LinkId(0)).tx_time(e.wire_size()) + Duration(10)
    }

    #[test]
    fn loss_is_deterministic_per_sender() {
        let topo = Topology::bus(2, 10_000, Duration(1));
        let run = || {
            let net = Loopback::new(topo.clone(), 9, 200_000);
            let (tx, rx) = mailbox(64);
            net.register(NodeId(1), tx);
            let mut port = net.port(NodeId(0));
            let mut pattern = Vec::new();
            for _ in 0..32 {
                pattern.push(port.send(Time(0), env(0, 1)).is_some());
            }
            drop(net);
            drop(rx);
            pattern
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "loss stream must be deterministic");
        assert!(a.iter().any(|&x| x), "some messages survive");
        assert!(a.iter().any(|&x| !x), "20% loss must show in 32 rolls");
    }
}
