//! In-process loopback transport for the live runtime.
//!
//! Sends through the simulator's channel itself: the fleet's one
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
//! stamped with their *logical* arrival time; the receiving host parks
//! them until that instant. Logical timestamps, not delivery jitter,
//! are what the trace-equivalence oracle compares.
//!
//! The transport also carries the conservative scheduler's state: one
//! causal-frontier cell per node (a lower bound on the arrival time of
//! anything that node may still send), the topology-wide minimum link
//! delay (lookahead), and the needs that make the gate event-driven: a
//! blocked node declares the bound it needs and the fleet's worker skips
//! it until the peer whose publish lets that bound through claims the
//! need; a send lowers a blocked node's need to what admits the message.
//! [`Loopback::gate`] is the dispatch rule itself; see the actor module
//! docs for the step built on it.
//!
//! The fleet owns its `Loopback` and lends it to one step at a time, so
//! it is plain data: a host drains its mailbox and gates in one step,
//! and nothing can land between the two.

use btr_model::{Duration, Envelope, NodeId, Time};
use btr_net::{DropReason, Network};
use std::collections::VecDeque;

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
    /// The sending incarnation's send counter.
    pub(crate) seq: u64,
    /// The envelope.
    pub(crate) env: Envelope,
}

/// Drop counters, one per cause (all monotone; read after the run).
#[derive(Debug, Default)]
pub(crate) struct TransportCounters {
    /// Bounded-mailbox backpressure drops (a send to a full queue).
    pub(crate) mailbox_full: u64,
    /// Messages addressed to a crashed / not-yet-restarted node.
    pub(crate) receiver_down: u64,
    /// Deterministic transmission loss (the sender's loss stream).
    pub(crate) transmission_loss: u64,
    /// No route to the destination, or a crashed relay on it.
    pub(crate) no_route: u64,
    /// Sends the sender's bandwidth guardian denied (its per-period
    /// budget on the link spent).
    pub(crate) guardian_denied: u64,
    /// Messages accepted into the network.
    pub(crate) sent: u64,
}

/// One node's causal-frontier cell (see [`Loopback::bound`]).
///
/// `anchor` is the node's own claim: the logical time of its earliest
/// known dispatchable event (its dispatches are nondecreasing under the
/// causal gate, so it lower-bounds every future dispatch and hence
/// every future send). `inflight` is a floor maintained by *senders*:
/// the earliest logical arrival among messages delivered to this node
/// that the node has not yet drained — it could react to one of those
/// at a time below its published anchor. The node clears the floor when
/// it next drains and folds.
#[derive(Debug, Clone)]
struct FrontierCell {
    anchor: u64,
    inflight: u64,
    /// Terminal (crashed / finished / panicked): will never send again.
    dead: bool,
}

impl FrontierCell {
    /// A node's cell before its first publish.
    const FRESH: FrontierCell = FrontierCell {
        anchor: 0,
        inflight: u64::MAX,
        dead: false,
    };

    /// What peers read from this cell: nothing it sends arrives before
    /// this plus the lookahead.
    fn min(&self) -> u64 {
        self.anchor.min(self.inflight)
    }
}

/// No need declared: the node is runnable.
const NO_NEED: u64 = u64::MAX;

/// The causal gate's verdict on a node's next event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gate {
    /// Safe to dispatch: no message can still arrive ahead of it.
    Go,
    /// Not yet provably safe; `blocker`, the arg-min of the bound scan,
    /// is the peer holding the frontier lowest.
    Wait { blocker: NodeId },
}

/// The fleet's loopback network: the channel, a bounded mailbox per
/// attached node, the frontier cells and needs, and the counters.
pub(crate) struct Loopback {
    /// The channel. A node's send charges only its own lanes and rolls
    /// only its own loss stream.
    net: Network,
    /// Per node: its mailbox while a host is attached to it (`None`:
    /// down, or terminal).
    mailboxes: Vec<Option<VecDeque<LiveMsg>>>,
    counters: TransportCounters,
    /// Per-receiver `mailbox_full` attribution: which node's bounded
    /// mailbox was overflowing (the aggregate counter says only *that*
    /// backpressure happened; the supervisor needs to know *whose*
    /// flight recorder to dump).
    mailbox_full_by: Vec<u64>,
    /// Per-blocker stall attribution: how often each node was the one
    /// holding a peer's frontier lowest when that peer blocked.
    slept_on: Vec<u64>,
    cells: Vec<FrontierCell>,
    /// The bound each node is blocked on. A publisher *claims* a need by
    /// resetting it to [`NO_NEED`], so one declared need earns one wake.
    needs: Vec<u64>,
    /// Minimum one-hop delay in the topology: no message between
    /// distinct nodes can arrive sooner than this after its send.
    lookahead: Duration,
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
            net,
            mailboxes: (0..n).map(|_| None).collect(),
            counters: TransportCounters::default(),
            mailbox_full_by: vec![0; n],
            slept_on: vec![0; n],
            cells: vec![FrontierCell::FRESH; n],
            needs: vec![NO_NEED; n],
            lookahead,
        }
    }

    /// The causal bound for `node` and the peer that sets it: no message
    /// can arrive at `node` before this instant. Every peer's future
    /// sends are dispatched at or after `min(anchor, inflight)` of its
    /// cell, and any inter-node path adds at least `lookahead`; dead
    /// peers never send (with none left alive the bound is infinite and
    /// the blocker is `node` itself). Local events strictly below the
    /// bound are safe to dispatch (an event *at* it is safe if it is a
    /// timer, which wins ties against messages).
    fn bound(&self, node: NodeId) -> (u64, NodeId) {
        let (mut min, mut blocker) = (u64::MAX, node);
        for (i, cell) in self.cells.iter().enumerate() {
            if i != node.index() && !cell.dead && cell.min() < min {
                (min, blocker) = (cell.min(), NodeId(i as u32));
            }
        }
        (min.saturating_add(self.lookahead.as_micros()), blocker)
    }

    /// Change `node`'s own cell, and claim the needs the change
    /// released. A need is met by a bound at or above it, so the
    /// publisher held a peer back while `old_min + lookahead < need` and
    /// lets go once `need <= new_min + lookahead`; of those peers, the
    /// ones no *other* cell still holds back are claimed (the rest would
    /// only look and block again — whichever holder lets go last finds
    /// the whole bound open).
    fn republish(&mut self, node: NodeId, change: impl FnOnce(&mut FrontierCell)) {
        let old_min = self.cells[node.index()].min();
        change(&mut self.cells[node.index()]);
        let new_min = self.cells[node.index()].min();
        if new_min <= old_min {
            return;
        }
        let la = self.lookahead.as_micros();
        let (held, free) = (old_min.saturating_add(la), new_min.saturating_add(la));
        for i in 0..self.needs.len() {
            let need = self.needs[i];
            if i == node.index() || need == NO_NEED || need <= held || free < need {
                continue;
            }
            if self.bound(NodeId(i as u32)).0 >= need {
                self.needs[i] = NO_NEED;
            }
        }
    }

    /// Mark `node` terminal: it will never send again, so no peer may
    /// wait on it.
    pub(crate) fn set_terminal(&mut self, node: NodeId) {
        self.republish(node, |cell| {
            *cell = FrontierCell {
                anchor: u64::MAX,
                inflight: u64::MAX,
                dead: true,
            }
        });
    }

    /// A crashed node that will be restarted hands its cell straight to
    /// the next incarnation: nothing leaves it before `back_at`. Call
    /// after [`Loopback::crash`], which detached its mailbox, so no
    /// sender re-arms the floor behind this store and no peer can slip
    /// past the downtime.
    pub(crate) fn hand_off(&mut self, node: NodeId, back_at: Time) {
        self.republish(node, |cell| {
            cell.anchor = back_at.as_micros();
            cell.inflight = u64::MAX;
        });
    }

    /// The dispatch rule, one call, right after `node` drained its
    /// mailbox: fold `next` (its earliest event) into its anchor and
    /// clear its floor — the drain parked every message the floor
    /// covered, so none is below `next` — then read the bound; if that
    /// says wait, declare the need and count the blocker's stall. `need`
    /// is the bound that makes the event safe: its instant for a timer,
    /// one past it for a message, one past the horizon to finish.
    pub(crate) fn gate(&mut self, node: NodeId, next: Time, need: Time) -> Gate {
        self.republish(node, |cell| {
            debug_assert!(cell.inflight >= next.as_micros(), "gated before a drain");
            cell.anchor = next.as_micros();
            cell.inflight = u64::MAX;
        });
        let (bound, blocker) = self.bound(node);
        if bound >= need.as_micros() {
            return Gate::Go;
        }
        self.needs[node.index()] = need.as_micros();
        self.slept_on[blocker.index()] += 1;
        Gate::Wait { blocker }
    }

    /// The bound `node` is blocked on, while no publish has claimed it.
    pub(crate) fn need(&self, node: NodeId) -> Option<Time> {
        let need = self.needs[node.index()];
        (need != NO_NEED).then_some(Time(need))
    }

    /// Stalls attributed to `node` as the peer holding the blocked
    /// node's frontier lowest.
    pub(crate) fn slept_on(&self, node: NodeId) -> u64 {
        self.slept_on[node.index()]
    }

    /// Attach (or re-attach, after a restart) `node`: routes may transit
    /// it again, and it has a mailbox — an empty one reserved `cap` deep
    /// unless it is attached already.
    pub(crate) fn attach(&mut self, node: NodeId, cap: usize) {
        self.net.set_down(node, false);
        self.mailboxes[node.index()].get_or_insert_with(|| VecDeque::with_capacity(cap));
    }

    /// Detach `node`'s mailbox and free it: it refuses everything from
    /// now on.
    pub(crate) fn detach(&mut self, node: NodeId) {
        self.mailboxes[node.index()] = None;
    }

    /// Mark a node crashed: detach its mailbox and take it down in the
    /// network, whose routes heal around it (dead relays lose carrier).
    pub(crate) fn crash(&mut self, node: NodeId) {
        self.detach(node);
        self.net.set_down(node, true);
    }

    /// Hand everything queued for `node`, oldest first, to `take`.
    pub(crate) fn drain(&mut self, node: NodeId, take: impl FnMut(LiveMsg)) {
        if let Some(q) = self.mailboxes[node.index()].as_mut() {
            q.drain(..).for_each(take);
        }
    }

    /// Route and send `src`'s envelope, its `seq`th send, at logical
    /// time `now`. Returns the logical arrival time if the message
    /// reached the receiver's mailbox (drops are counted, never surfaced
    /// to the sender — same contract as the simulator's fire-and-forget
    /// `transmit`).
    pub(crate) fn send(&mut self, src: NodeId, seq: u64, now: Time, env: Envelope) -> Option<Time> {
        let dst = env.dst;
        let c = &mut self.counters;
        let at = if dst == src {
            // Loopback: immediate, lossless, no network traversal —
            // mirrors the simulator's `transmit` self-send short-circuit.
            now
        } else {
            // The simulator's `transmit`, through the same channel.
            let bytes = env.wire_size();
            let sent = self
                .net
                .route(src, dst)
                .and_then(|()| self.net.transmit(now, src, bytes));
            match sent {
                Ok(at) => at,
                Err(reason) => {
                    *match reason {
                        DropReason::TransmissionLoss => &mut c.transmission_loss,
                        DropReason::GuardianDenied => &mut c.guardian_denied,
                        _ => &mut c.no_route,
                    } += 1;
                    return None;
                }
            }
        };
        let Some(q) = self.mailboxes[dst.index()].as_mut() else {
            c.receiver_down += 1;
            return None;
        };
        if q.len() == q.capacity() {
            c.mailbox_full += 1;
            self.mailbox_full_by[dst.index()] += 1;
            return None;
        }
        q.push_back(LiveMsg {
            at,
            from: src,
            seq,
            env,
        });
        c.sent += 1;
        // Note the receiver's floor, and if it is blocked at the causal
        // gate, lower what it waits for to the bound that admits the
        // message. No claim here: the sender itself still holds that
        // bound back (its anchor is at or before the send), and its next
        // publish — always its next step — runs the release rule.
        let cell = &mut self.cells[dst.index()];
        cell.inflight = cell.inflight.min(at.as_micros());
        let need = &mut self.needs[dst.index()];
        if *need != NO_NEED {
            *need = (*need).min(at.as_micros().saturating_add(1));
        }
        Some(at)
    }

    /// The drop counters.
    pub(crate) fn counters(&self) -> &TransportCounters {
        &self.counters
    }

    /// `mailbox_full` drops attributed to one receiver's mailbox.
    pub(crate) fn mailbox_full_at(&self, node: NodeId) -> u64 {
        self.mailbox_full_by[node.index()]
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use btr_model::{Payload, Topology};
    use btr_net::hop_bound;

    const PERIOD: Duration = Duration(10_000);

    impl Loopback {
        /// The causal bound for `node` and the peer that sets it.
        fn frontier_bound(&self, node: NodeId) -> (Time, NodeId) {
            let (bound, blocker) = self.bound(node);
            (Time(bound), blocker)
        }

        /// Publish `node`'s next event as its anchor, as a drained
        /// node's gate does.
        fn publish_anchor(&mut self, node: NodeId, next: Time) {
            self.gate(node, next, Time::ZERO);
        }

        /// Everything queued for `node`, oldest first.
        pub(crate) fn take(&mut self, node: NodeId) -> Vec<LiveMsg> {
            let mut got = Vec::new();
            self.drain(node, |m| got.push(m));
            got
        }
    }

    fn env(src: u32, dst: u32) -> Envelope {
        Envelope::new(NodeId(src), NodeId(dst), Time(0), Payload::Control(1))
    }

    /// Send `src`'s envelope to `dst` at `now`.
    fn send(net: &mut Loopback, src: u32, dst: u32, now: Time) -> Option<Time> {
        net.send(NodeId(src), 1, now, env(src, dst))
    }

    #[test]
    fn delivers_with_link_delay() {
        let topo = Topology::bus(3, 10_000, Duration(10));
        let mut net = Loopback::new(Network::new(topo.clone(), PERIOD, 1, 0, None));
        net.attach(NodeId(1), 16);
        let e = env(0, 1);
        let wire = e.wire_size();
        let at = net.send(NodeId(0), 1, Time(100), e).expect("delivered");
        let expect = Time(100) + hop_bound(topo.link(btr_model::LinkId(0)), wire);
        assert_eq!(at, expect);
        let got = net.take(NodeId(1)).remove(0);
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
        let mut net = Loopback::new(Network::new(b.build().unwrap(), PERIOD, 1, 0, None));
        net.attach(NodeId(2), 4);
        assert!(send(&mut net, 0, 2, Time(0)).is_some());
        net.crash(NodeId(1));
        assert!(send(&mut net, 0, 2, Time(0)).is_none());
        assert_eq!(net.counters().no_route, 1);
        assert!(send(&mut net, 0, 1, Time(0)).is_none());
        assert_eq!(net.counters().receiver_down, 1);
        // Restart: routes transit node 1 again.
        net.attach(NodeId(1), 4);
        assert!(send(&mut net, 0, 2, Time(0)).is_some());
    }

    #[test]
    fn mailbox_backpressure_counts_drops() {
        let topo = Topology::bus(2, 10_000, Duration(1));
        let mut net = Loopback::new(Network::new(topo, PERIOD, 1, 0, None));
        net.attach(NodeId(1), 2);
        assert!(send(&mut net, 0, 1, Time(0)).is_some());
        assert!(send(&mut net, 0, 1, Time(0)).is_some());
        assert!(send(&mut net, 0, 1, Time(0)).is_none());
        assert_eq!(net.counters().mailbox_full, 1);
        assert_eq!(net.counters().sent, 2);
        // The drop is attributed to the overflowing receiver.
        assert_eq!(net.mailbox_full_at(NodeId(1)), 1);
        assert_eq!(net.mailbox_full_at(NodeId(0)), 0);
    }

    #[test]
    fn frontier_bound_tracks_anchors_inflight_and_death() {
        let topo = Topology::bus(3, 10_000, Duration(10));
        let mut net = Loopback::new(Network::new(topo, PERIOD, 1, 0, None));
        assert_eq!(net.lookahead, Duration(10));
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
        // its anchor until the receiver drains and folds it …
        net.attach(NodeId(2), 8);
        let arrival = send(&mut net, 0, 2, Time(15)).expect("delivered");
        assert_eq!(arrival, Time(15) + topo_delay());
        assert_eq!(net.frontier_bound(NodeId(1)).0, arrival + Duration(10));
        // … into its anchor, as its next event.
        assert_eq!(net.take(NodeId(2)).len(), 1);
        net.publish_anchor(NodeId(2), arrival);
        assert_eq!(net.frontier_bound(NodeId(1)).0, arrival + Duration(10));
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
    /// whose third node is terminal; R's mailbox is attached.
    fn gate_net() -> Loopback {
        let mut net = Loopback::new(Network::new(
            Topology::bus(3, 10_000, Duration(10)),
            PERIOD,
            1,
            0,
            None,
        ));
        net.set_terminal(NodeId(2));
        net.attach(R, 8);
        net
    }
    const R: NodeId = NodeId(0);
    const P: NodeId = NodeId(1);

    /// The need `node` has declared, if a publish has not claimed it.
    fn declared(net: &Loopback, node: NodeId) -> Option<u64> {
        net.need(node).map(Time::as_micros)
    }

    #[test]
    fn gate_orders_fold_bound_and_need() {
        let mut net = gate_net();
        net.publish_anchor(P, Time(100));
        // A timer may dispatch at the bound, a message only below it.
        assert_eq!(net.gate(R, Time(110), Time(110)), Gate::Go);
        assert_eq!(declared(&net, R), None);
        assert_eq!(net.gate(R, Time(110), Time(111)), Gate::Wait { blocker: P });
        assert_eq!(declared(&net, R), Some(111));
        assert_eq!((net.slept_on(P), net.slept_on(R)), (1, 0));
        // Drained, a message from P is R's next event, and P still holds
        // it back.
        let arrival = send(&mut net, 1, 0, Time(100)).expect("delivered");
        net.take(R);
        assert_eq!(
            net.gate(R, arrival, arrival + Duration(1)),
            Gate::Wait { blocker: P }
        );
    }

    #[test]
    fn publish_wakes_exactly_the_sleepers_it_released() {
        // Q = node 2 alive this time: two publishers, one sleeper.
        let mut net = Loopback::new(Network::new(
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
        assert_eq!(net.gate(R, Time(150), Time(150)), Gate::Wait { blocker: q });
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
        assert!(matches!(
            net.gate(R, Time(150), Time(150)),
            Gate::Wait { .. }
        ));
        net.publish_anchor(P, Time(300));
        assert_eq!(declared(&net, R), Some(150));
        net.publish_anchor(q, Time(300));
        assert_eq!(declared(&net, R), None);

        // Going terminal or handing off to a restart releases too.
        net.publish_anchor(q, Time(100));
        assert_eq!(net.gate(R, Time(150), Time(150)), Gate::Wait { blocker: q });
        net.set_terminal(q);
        assert_eq!(declared(&net, R), None);
        net.publish_anchor(P, Time(100));
        assert_eq!(net.gate(R, Time(150), Time(150)), Gate::Wait { blocker: P });
        net.hand_off(P, Time(5_000));
        assert_eq!(declared(&net, R), None);
        assert_eq!(net.frontier_bound(R), (Time(5_010), P));
    }

    #[test]
    fn send_lowers_a_sleepers_need_and_the_senders_publish_wakes_it() {
        let mut net = gate_net();
        net.publish_anchor(P, Time(100));
        assert_eq!(net.gate(R, Time(500), Time(500)), Gate::Wait { blocker: P });
        // P, dispatching at 100, sends to R: R now waits for the bound
        // that admits the message, and P still holds that back.
        let arrival = send(&mut net, 1, 0, Time(100)).expect("delivered");
        assert_eq!(declared(&net, R), Some(arrival.as_micros() + 1));
        // A later message never raises it again.
        send(&mut net, 1, 0, Time(105)).expect("delivered");
        assert_eq!(declared(&net, R), Some(arrival.as_micros() + 1));
        // P's next step is a publish; one that still holds the message
        // back leaves R asleep, the one that admits it wakes R.
        net.publish_anchor(P, Time(arrival.as_micros() - 10));
        assert_eq!(declared(&net, R), Some(arrival.as_micros() + 1));
        net.publish_anchor(P, Time(arrival.as_micros() - 9));
        assert_eq!(declared(&net, R), None);
        // Nobody asleep, nothing declared: a send leaves the need alone.
        send(&mut net, 1, 0, Time(200)).expect("delivered");
        assert_eq!(declared(&net, R), None);
    }

    #[test]
    fn a_restarted_port_continues_its_nodes_loss_stream() {
        // Forty sends from one incarnation of node 0, or twenty from each
        // of two with a crash between: one loss pattern.
        let topo = Topology::bus(2, 10_000, Duration(1));
        let pattern = |incarnations: usize| {
            let mut net = Loopback::new(Network::new(topo.clone(), PERIOD, 9, 200_000, None));
            net.attach(NodeId(1), 64);
            let mut sent = Vec::new();
            for k in 0..incarnations {
                if k > 0 {
                    net.crash(NodeId(0));
                    net.attach(NodeId(0), 64);
                }
                for _ in 0..40 / incarnations {
                    sent.push(send(&mut net, 0, 1, Time(0)).is_some());
                }
            }
            sent
        };
        let one = pattern(1);
        assert!(one.contains(&true) && one.contains(&false), "{one:?}");
        assert_eq!(pattern(2), one);
    }
}
