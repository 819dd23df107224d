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
//! The transport also keeps, per node, the earliest logical arrival it
//! holds undrained: a send lowers it and the node's drain clears it, so
//! the fleet's worker reads a host's next message without touching its
//! mailbox. The fleet owns its `Loopback` and lends it to one step at a
//! time, so it is plain data.

use btr_model::{Envelope, NodeId, Time};
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

/// The fleet's loopback network: the channel, a bounded mailbox per
/// attached node, the earliest undrained arrival per node, and the
/// counters.
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
    /// Per node: the earliest logical arrival in its mailbox that it
    /// has not drained (`u64::MAX`: none).
    undrained: Vec<u64>,
}

impl Loopback {
    /// The fleet's transport over `net`, the channel its nodes share.
    pub(crate) fn new(net: Network) -> Loopback {
        let n = net.topology().node_count();
        Loopback {
            net,
            mailboxes: (0..n).map(|_| None).collect(),
            counters: TransportCounters::default(),
            mailbox_full_by: vec![0; n],
            undrained: vec![u64::MAX; n],
        }
    }

    /// The earliest logical arrival queued for `node` and not yet
    /// drained.
    pub(crate) fn undrained(&self, node: NodeId) -> Option<Time> {
        let at = self.undrained[node.index()];
        (at != u64::MAX).then_some(Time(at))
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
        self.undrained[node.index()] = u64::MAX;
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
        self.undrained[node.index()] = u64::MAX;
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
        let undrained = &mut self.undrained[dst.index()];
        *undrained = (*undrained).min(at.as_micros());
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
    use btr_model::{Duration, Payload, Topology};
    use btr_net::hop_bound;

    const PERIOD: Duration = Duration(10_000);

    impl Loopback {
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
        // The earliest undrained arrival: a later send leaves it, the
        // receiver's drain clears it.
        assert!(send(&mut net, 0, 1, Time(200)).is_some());
        assert_eq!(net.undrained(NodeId(1)), Some(expect));
        let got = net.take(NodeId(1)).remove(0);
        assert_eq!(net.undrained(NodeId(1)), None);
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
