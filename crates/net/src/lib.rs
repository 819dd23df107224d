//! Network substrate for the CPS platform.
//!
//! Section 2.1 of the paper assumes a network unlike the ones classical
//! BFT runs on: "it is more common to see circuit-switched networks with
//! strict bandwidth reservations, which enable predictable timing and
//! prevent packet drops due to queue overflows. Packets can still be
//! dropped due to transmission errors, but forward error correction (FEC)
//! can be used to minimize this risk", plus "some solution to the
//! babbling-idiot problem ... the bandwidth of each link is statically
//! allocated between the nodes".
//!
//! This crate implements exactly that substrate, as pure logic the
//! simulator drives — FEC excepted: no run encodes a shard, so what the
//! code buys is modelled where loss is rolled (`SimConfig::fec`).
//!
//! * [`routing`] — static shortest-path routing over partial topologies,
//!   with fault-avoiding recomputation.
//! * [`demand`] — the at-scale routing backend: per-destination BFS rows
//!   of adjacency *slots*, materialised on demand into one byte-budgeted
//!   slab, bit-identical to the precomputed table, selected
//!   automatically by node count through [`RouteBackend`].
//! * [`guardian`] — per-(node, link) bandwidth guardians (the MAC-enforced
//!   static allocation). Guardians bind *even Byzantine senders*, as the
//!   paper argues hardware MACs do.
//! * [`LinkLayer`] — the transmission model of every link: each sender
//!   owns a reserved bandwidth slice of each link it attaches to, so one
//!   sender's backlog never delays another's traffic (no shared queues
//!   to overflow).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demand;
pub mod guardian;
pub mod routing;

pub use demand::{
    DemandRoutes, Hop, RouteBackend, Routes, DEMAND_CACHE_BUDGET, DEMAND_ROUTING_THRESHOLD,
};
pub use guardian::{Guardian, GuardianVerdict};
pub use routing::RoutingTable;

use btr_model::{Duration, LinkId, NodeId, Time, Topology};

/// Why a send was refused by the link layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The sender is not attached to this link.
    NotAttached,
    /// The sender exhausted its static bandwidth allocation this period
    /// (babbling-idiot guard).
    AllocationExhausted,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::NotAttached => write!(f, "sender not attached to link"),
            SendError::AllocationExhausted => write!(f, "bandwidth allocation exhausted"),
        }
    }
}

impl std::error::Error for SendError {}

/// One message on the wire: its size, and its serialisation time at the
/// slice rate it was last sent at. A multi-hop message crosses links of
/// (nearly always) one rate, so carrying the memo with the message pays
/// the division in the timing rule once per message instead of once per
/// hop — and costs the lanes nothing.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    bytes: u32,
    /// Rate `tx` was computed for (0 = not yet; slice rates are ≥ 1).
    rate_bytes_per_ms: u64,
    tx: Duration,
}

impl Frame {
    /// A frame of `bytes` wire bytes.
    pub fn new(bytes: u32) -> Frame {
        Frame {
            bytes,
            rate_bytes_per_ms: 0,
            tx: Duration(0),
        }
    }

    /// Serialisation time at `rate` bytes/ms, rounded up, at least 1 µs.
    /// The single timing rule of the link layer, so the scheduler's comm
    /// bounds (`btr-sched` holds its own arithmetic to it) and the
    /// simulator's charged times cannot diverge.
    #[inline]
    fn tx_time(&mut self, rate_bytes_per_ms: u64) -> Duration {
        if rate_bytes_per_ms != self.rate_bytes_per_ms {
            let us = (self.bytes as u64 * 1_000).div_ceil(rate_bytes_per_ms);
            self.rate_bytes_per_ms = rate_bytes_per_ms;
            self.tx = Duration(us.max(1));
        }
        self.tx
    }
}

/// One sender's transmission state on one link — a cache line.
#[derive(Debug, Clone)]
struct SenderLane {
    /// Reserved bandwidth for this sender, bytes per millisecond.
    rate_bytes_per_ms: u64,
    /// When this sender's reserved slice is next free.
    busy_until: Time,
    /// The link's propagation latency.
    latency: Duration,
    /// The per-period byte budget guardian.
    guardian: Guardian,
}

/// The transmission model of a whole platform: one lane per
/// (node, attached link), in one flat table.
///
/// Each node attached to a link owns a *reserved slice* of its bandwidth
/// (circuit-switched style, an equal static split between the link's
/// endpoints). Serialisation happens at the slice rate, so transmissions
/// by different senders do not interact — predictable timing by
/// construction. A guardian additionally caps each sender's bytes per
/// period so a babbling node cannot even saturate its own future slots
/// indefinitely beyond its allocation.
///
/// A node's lanes are contiguous, in [`Topology::links_of`] order, and
/// the lane of `(node, link)` is found by scanning the node's few link
/// ids — nodes attach to a handful of links on every platform family,
/// however many endpoints a bus has. The simulator calls
/// [`LinkLayer::send`] once per hop per message; a send touches the
/// node's entry in two small index tables and the lane itself. Nothing
/// here is sized by the node count per link, and the topology is read at
/// construction only, not kept.
#[derive(Debug, Clone)]
pub struct LinkLayer {
    lanes: Vec<SenderLane>,
    /// `lane_base[node]..lane_base[node + 1]` are the node's lanes.
    lane_base: Vec<u32>,
    /// The link each lane sends on, parallel to `lanes`.
    lane_link: Vec<LinkId>,
}

impl LinkLayer {
    /// Build the lanes of every link of `topo`, with an equal static
    /// split between each link's endpoints and a full-slice budget per
    /// `period` (the system period, the guardians' refill interval).
    ///
    /// # Panics
    /// Panics if the period is zero.
    pub fn new(topo: &Topology, period: Duration) -> LinkLayer {
        let total = topo.links().iter().map(|l| l.endpoints.len()).sum();
        let mut lanes = Vec::with_capacity(total);
        let mut lane_link = Vec::with_capacity(total);
        let mut lane_base = Vec::with_capacity(topo.node_count() + 1);
        for node in topo.nodes() {
            lane_base.push(lanes.len() as u32);
            for &link in topo.links_of(node.id) {
                let spec = topo.link(link);
                let rate = (spec.bytes_per_ms as u64 / spec.endpoints.len() as u64).max(1);
                let budget = (rate * period.as_micros() / 1_000).max(1);
                lanes.push(SenderLane {
                    rate_bytes_per_ms: rate,
                    busy_until: Time::ZERO,
                    latency: spec.latency,
                    guardian: Guardian::new(budget, period),
                });
                lane_link.push(link);
            }
        }
        lane_base.push(lanes.len() as u32);
        LinkLayer {
            lanes,
            lane_base,
            lane_link,
        }
    }

    /// The lanes of `node` as a range of the flat table (empty for a
    /// node the topology does not have).
    #[inline]
    fn lanes_of(&self, node: NodeId) -> std::ops::Range<usize> {
        match self.lane_base.get(node.index()..node.index() + 2) {
            Some(b) => b[0] as usize..b[1] as usize,
            None => 0..0,
        }
    }

    #[inline]
    fn lane_of(&self, src: NodeId, link: LinkId) -> Option<usize> {
        let lanes = self.lanes_of(src);
        let k = self.lane_link[lanes.clone()]
            .iter()
            .position(|&l| l == link)?;
        Some(lanes.start + k)
    }

    /// Give `src` a different bytes-per-period budget on `link` than the
    /// default full-slice one (an unequal static allocation), starting
    /// with a full budget. Returns false if `src` is not attached.
    pub fn set_budget(&mut self, src: NodeId, link: LinkId, budget: u64) -> bool {
        let Some(i) = self.lane_of(src, link) else {
            return false;
        };
        let guardian = &mut self.lanes[i].guardian;
        *guardian = Guardian::new(budget.max(1), guardian.period());
        true
    }

    /// Attempt to transmit `frame` from `src` over `link` at time `now`.
    ///
    /// On success returns the *delivery time* at the receiving ends
    /// (serialisation on the sender's slice + propagation latency).
    #[inline]
    pub fn send(
        &mut self,
        now: Time,
        src: NodeId,
        link: LinkId,
        frame: &mut Frame,
    ) -> Result<Time, SendError> {
        let i = self.lane_of(src, link).ok_or(SendError::NotAttached)?;
        let lane = &mut self.lanes[i];
        let tx = frame.tx_time(lane.rate_bytes_per_ms);
        match lane.guardian.check(now, frame.bytes as u64) {
            GuardianVerdict::Permit => {}
            GuardianVerdict::Deny => return Err(SendError::AllocationExhausted),
        }
        let done = now.max(lane.busy_until) + tx;
        lane.busy_until = done;
        Ok(done + lane.latency)
    }

    /// Bytes the guardians dropped for a sender so far, over all the
    /// links it attaches to.
    pub fn guardian_drops(&self, src: NodeId) -> u64 {
        self.lanes[self.lanes_of(src)]
            .iter()
            .map(|l| l.guardian.denied_bytes())
            .sum()
    }

    /// Remaining budget for a sender on a link in the period containing
    /// `now` (0 if not attached).
    pub fn remaining_budget(&self, src: NodeId, link: LinkId, now: Time) -> u64 {
        self.lane_of(src, link)
            .map_or(0, |i| self.lanes[i].guardian.remaining_at(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUS: LinkId = LinkId(0);

    /// A four-node bus: `bw` bytes/ms split four ways, 50 µs latency,
    /// 10 ms period.
    fn bus(bw: u32) -> LinkLayer {
        let topo = Topology::bus(4, bw, Duration(50));
        LinkLayer::new(&topo, Duration::from_millis(10))
    }

    fn send(n: &mut LinkLayer, now: Time, src: u32, bytes: u32) -> Result<Time, SendError> {
        n.send(now, NodeId(src), BUS, &mut Frame::new(bytes))
    }

    #[test]
    fn equal_split_and_delivery_time() {
        // 4000 B/ms across 4 nodes = 1000 B/ms per slice = 1 B/µs.
        let mut n = bus(4000);
        let t = send(&mut n, Time(0), 0, 100).unwrap();
        assert_eq!(t, Time(100 + 50)); // 100 µs serialise + 50 µs latency.
    }

    #[test]
    fn senders_do_not_interfere() {
        let mut n = bus(4000);
        let a = send(&mut n, Time(0), 0, 100).unwrap();
        let b = send(&mut n, Time(0), 1, 100).unwrap();
        // Different reserved slices: identical delivery time.
        assert_eq!(a, b);
    }

    #[test]
    fn same_sender_serialises() {
        let mut n = bus(4000);
        let a = send(&mut n, Time(0), 0, 100).unwrap();
        let b = send(&mut n, Time(0), 0, 100).unwrap();
        assert_eq!(b, a + Duration(100));
    }

    #[test]
    fn babbler_is_cut_off() {
        // Budget = 1000 B/ms * 10 ms = 10_000 bytes per period.
        let mut n = bus(4000);
        let mut sent = 0u64;
        let mut denied = false;
        for i in 0..200 {
            match send(&mut n, Time(i), 2, 100) {
                Ok(_) => sent += 100,
                Err(SendError::AllocationExhausted) => {
                    denied = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(denied, "guardian never engaged");
        assert!(sent <= 10_000);
        // Other senders are unaffected.
        assert!(send(&mut n, Time(0), 0, 100).is_ok());
        assert!(n.guardian_drops(NodeId(2)) > 0);
        assert_eq!(n.guardian_drops(NodeId(0)), 0);
    }

    #[test]
    fn budget_refills_next_period() {
        let mut n = bus(4000);
        for _ in 0..100 {
            let _ = send(&mut n, Time(0), 2, 100);
        }
        assert!(matches!(
            send(&mut n, Time(1), 2, 100),
            Err(SendError::AllocationExhausted)
        ));
        // Next period boundary at 10 ms: budget is fresh.
        assert!(send(&mut n, Time::from_millis(10), 2, 100).is_ok());
        assert_eq!(
            n.remaining_budget(NodeId(2), BUS, Time::from_millis(10)),
            10_000 - 100
        );
    }

    #[test]
    fn detached_sender_rejected() {
        let mut n = bus(4000);
        assert_eq!(send(&mut n, Time(0), 9, 10), Err(SendError::NotAttached));
        assert_eq!(
            n.send(Time(0), NodeId(0), LinkId(7), &mut Frame::new(10)),
            Err(SendError::NotAttached)
        );
        assert_eq!(n.guardian_drops(NodeId(9)), 0);
    }

    #[test]
    fn override_allocation() {
        let mut n = bus(4000);
        assert!(n.set_budget(NodeId(0), BUS, 150));
        assert!(!n.set_budget(NodeId(9), BUS, 150));
        assert!(send(&mut n, Time(0), 0, 100).is_ok());
        assert!(matches!(
            send(&mut n, Time(0), 0, 100),
            Err(SendError::AllocationExhausted)
        ));
    }

    #[test]
    fn lanes_follow_the_nodes_links() {
        // A 3x3 mesh: the centre attaches to four links, a corner to two;
        // every (node, link) pair has its own lane and its own guardian,
        // and a node's drops are the sum over its lanes.
        let topo = Topology::mesh(3, 3, 2, Duration(5));
        let mut n = LinkLayer::new(&topo, Duration::from_millis(1));
        assert_eq!(n.lanes.len(), 2 * topo.links().len());
        let centre = NodeId(4);
        assert_eq!(topo.links_of(centre).len(), 4);
        // 2 B/ms over 2 endpoints for 1 ms: a one-byte budget per lane.
        for (k, &link) in topo.links_of(centre).iter().enumerate() {
            assert!(n.send(Time(0), centre, link, &mut Frame::new(1)).is_ok());
            assert_eq!(
                n.send(Time(0), centre, link, &mut Frame::new(7)),
                Err(SendError::AllocationExhausted)
            );
            assert_eq!(n.guardian_drops(centre), 7 * (k as u64 + 1));
            let other = *topo
                .link(link)
                .endpoints
                .iter()
                .find(|&&e| e != centre)
                .unwrap();
            assert_eq!(n.remaining_budget(other, link, Time(0)), 1);
        }
    }

    #[test]
    fn frame_memoises_one_rate_at_a_time() {
        let mut f = Frame::new(150);
        assert_eq!(f.tx_time(1_000), Duration(150));
        assert_eq!(f.tx_time(1_000), Duration(150));
        assert_eq!(f.tx_time(7), Duration(21_429));
        assert_eq!(f.tx_time(1_000), Duration(150));
        assert_eq!(Frame::new(0).tx_time(5), Duration(1));
    }
}
