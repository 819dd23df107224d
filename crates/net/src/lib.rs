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
//! This crate implements exactly that substrate, as pure logic both
//! substrates drive — the simulator's world and the live fleet's
//! transport each send every message through one [`Network`]: route,
//! loss roll (per shard under FEC, though no run encodes a shard), one
//! [`LinkLayer::send`], a down relay's refusal.
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
//! * [`LinkLayer`] — the transmission model of every link, on both
//!   substrates: each node owns a reserved bandwidth slice of each link
//!   it attaches to, and a message spends only its *originator's* slice
//!   and budget, on the link it leaves by; every later hop adds that
//!   link's [`hop_bound`] and charges no relay. One sender's backlog
//!   never delays another's traffic (no shared queues to overflow), and
//!   no sender can spend a relay's allocation.
//! * [`slice_rate`] and [`hop_bound`] — the one hop rule. The link layer
//!   charges by it, and the scheduler's comm bounds and the planner's
//!   placement costs read it, so a bound is exact for an idle sender.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demand;
pub mod guardian;
mod network;
pub mod routing;

pub use demand::{DemandRoutes, Hop, RouteBackend, Routes};
pub use network::{DropReason, Network};
pub use routing::RoutingTable;

use guardian::{Guardian, GuardianVerdict};

use btr_model::{Duration, LinkId, LinkSpec, NodeId, Time, Topology};

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

/// Bytes per millisecond one sender may put on `link`: its static,
/// equal share of the link's bandwidth (§2.1's "statically allocated
/// between the nodes").
#[inline]
pub fn slice_rate(link: &LinkSpec) -> u64 {
    (link.bytes_per_ms as u64 / link.endpoints.len() as u64).max(1)
}

/// Serialisation time of `bytes` at `rate` bytes/ms, rounded up, at
/// least 1 µs.
#[inline]
fn serialisation(bytes: u32, rate_bytes_per_ms: u64) -> Duration {
    Duration((bytes as u64 * 1_000).div_ceil(rate_bytes_per_ms).max(1))
}

/// One hop's term of a delivery: serialising `bytes` at a sender's
/// slice of `link`, plus the link's propagation latency. A route's
/// bound is the sum over its links; [`LinkLayer::send`] delivers in
/// exactly that when the originator's lane is idle.
#[inline]
pub fn hop_bound(link: &LinkSpec, bytes: u32) -> Duration {
    serialisation(bytes, slice_rate(link)) + link.latency
}

/// What a hop over one link costs, fixed at construction.
#[derive(Debug, Clone, Copy)]
struct LinkClass {
    /// [`slice_rate`] of the link.
    rate_bytes_per_ms: u64,
    /// The link's propagation latency.
    latency: Duration,
}

/// One sender's transmission state on one link.
#[derive(Debug, Clone)]
struct SenderLane {
    /// When this sender's reserved slice is next free.
    busy_until: Time,
    /// The per-period byte budget guardian.
    guardian: Guardian,
}

/// The transmission model of a whole platform: one lane per
/// (node, attached link), in one flat table, and what a hop over each
/// link costs.
///
/// Each node attached to a link owns a *reserved slice* of its bandwidth
/// (circuit-switched style, an equal static split between the link's
/// endpoints). A message is serialised on its originator's slice of the
/// link it leaves by, after that slice's backlog, and the originator's
/// guardian debits its bytes for the period; every later hop adds its
/// link's [`hop_bound`] and touches no lane, because a relay forwards on
/// the originator's reservation. So transmissions by different senders
/// never interact, a babbling node spends only its own allocation, and
/// each lane has one writer — its node, at its own send instants, which
/// never go back in time.
///
/// A node's lanes are contiguous, in [`Topology::links_of`] order, and
/// the lane of `(node, link)` is found by scanning the node's few link
/// ids — nodes attach to a handful of links on every platform family,
/// however many endpoints a bus has. A send touches the node's entry in
/// two small index tables, the lane itself, and the link table once per
/// hop. Nothing here is sized by the node count per link, and the
/// topology is read at construction only, not kept.
#[derive(Debug, Clone)]
pub struct LinkLayer {
    lanes: Vec<SenderLane>,
    /// `lane_base[node]..lane_base[node + 1]` are the node's lanes.
    lane_base: Vec<u32>,
    /// The link each lane sends on, parallel to `lanes`.
    lane_link: Vec<LinkId>,
    /// What a hop costs, by link id. Never written after construction.
    links: Vec<LinkClass>,
}

impl LinkLayer {
    /// Build the lanes of every link of `topo`, with an equal static
    /// split between each link's endpoints and a full-slice budget per
    /// `period` (the system period, the guardians' refill interval).
    ///
    /// # Panics
    /// Panics if the period is zero.
    pub fn new(topo: &Topology, period: Duration) -> LinkLayer {
        let links: Vec<LinkClass> = topo
            .links()
            .iter()
            .map(|spec| LinkClass {
                rate_bytes_per_ms: slice_rate(spec),
                latency: spec.latency,
            })
            .collect();
        let total = topo.links().iter().map(|l| l.endpoints.len()).sum();
        let mut lanes = Vec::with_capacity(total);
        let mut lane_link = Vec::with_capacity(total);
        let mut lane_base = Vec::with_capacity(topo.node_count() + 1);
        for node in topo.nodes() {
            lane_base.push(lanes.len() as u32);
            for &link in topo.links_of(node.id) {
                let rate = links[link.index()].rate_bytes_per_ms;
                let budget = (rate * period.as_micros() / 1_000).max(1);
                lanes.push(SenderLane {
                    busy_until: Time::ZERO,
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
            links,
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

    /// Transmit `bytes` wire bytes from their originator `src` at time
    /// `now` over `route`, the links of its hops in order.
    ///
    /// Only `src`'s lane on the first link is charged: the guardian
    /// debits the bytes, and the slice serialises them after its
    /// backlog. Each later link adds its [`hop_bound`]. On success
    /// returns the *delivery time* at the destination — for an idle
    /// lane, `now` plus the route's summed hop bounds. `now` must not go
    /// back in time from one send of `src` to the next.
    #[inline]
    pub fn send(
        &mut self,
        now: Time,
        src: NodeId,
        route: impl IntoIterator<Item = LinkId>,
        bytes: u32,
    ) -> Result<Time, SendError> {
        let mut route = route.into_iter();
        let first = route.next().ok_or(SendError::NotAttached)?;
        let i = self.lane_of(src, first).ok_or(SendError::NotAttached)?;
        let lane = &mut self.lanes[i];
        if lane.guardian.check(now, bytes as u64) == GuardianVerdict::Deny {
            return Err(SendError::AllocationExhausted);
        }
        let LinkClass {
            mut rate_bytes_per_ms,
            latency,
        } = self.links[first.index()];
        // A route crosses links of (nearly always) one rate, so the
        // division is paid once per rate met, not once per hop.
        let mut tx = serialisation(bytes, rate_bytes_per_ms);
        lane.busy_until = now.max(lane.busy_until) + tx;
        let mut at = lane.busy_until + latency;
        for link in route {
            let class = self.links[link.index()];
            if class.rate_bytes_per_ms != rate_bytes_per_ms {
                rate_bytes_per_ms = class.rate_bytes_per_ms;
                tx = serialisation(bytes, rate_bytes_per_ms);
            }
            at = at + tx + class.latency;
        }
        Ok(at)
    }

    /// Bytes the guardians dropped for a sender so far, over all the
    /// links it attaches to.
    pub(crate) fn guardian_drops(&self, src: NodeId) -> u64 {
        self.lanes[self.lanes_of(src)]
            .iter()
            .map(|l| l.guardian.denied_bytes())
            .sum()
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
        n.send(now, NodeId(src), [BUS], bytes)
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
        // Next period boundary at 10 ms: the whole budget is fresh.
        for _ in 0..100 {
            assert!(send(&mut n, Time::from_millis(10), 2, 100).is_ok());
        }
        assert!(matches!(
            send(&mut n, Time::from_millis(10), 2, 100),
            Err(SendError::AllocationExhausted)
        ));
    }

    #[test]
    fn detached_sender_rejected() {
        let mut n = bus(4000);
        assert_eq!(send(&mut n, Time(0), 9, 10), Err(SendError::NotAttached));
        assert_eq!(
            n.send(Time(0), NodeId(0), [LinkId(7)], 10),
            Err(SendError::NotAttached)
        );
        assert_eq!(
            n.send(Time(0), NodeId(0), [], 10),
            Err(SendError::NotAttached)
        );
        assert_eq!(n.guardian_drops(NodeId(9)), 0);
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
            assert!(n.send(Time(0), centre, [link], 1).is_ok());
            assert_eq!(
                n.send(Time(0), centre, [link], 7),
                Err(SendError::AllocationExhausted)
            );
            assert_eq!(n.guardian_drops(centre), 7 * (k as u64 + 1));
            let other = *topo
                .link(link)
                .endpoints
                .iter()
                .find(|&&e| e != centre)
                .unwrap();
            assert!(n.send(Time(0), other, [link], 1).is_ok());
        }
    }

    #[test]
    fn only_the_originator_pays() {
        // A line n0 - n1 - n2 of 2 000 B/ms links (1 B/µs slices, a
        // 1 000-byte budget per 1 ms period) and 5 µs latency. n0's
        // message to n2 costs both hops but spends only n0's lane on the
        // first link: n1's lane on the second is idle, its budget whole.
        let mut b = btr_model::TopologyBuilder::new();
        let [n0, n1, n2] = [b.full_node(), b.full_node(), b.full_node()];
        let l0 = b.link(&[n0, n1], 2_000, Duration(5));
        let l1 = b.link(&[n1, n2], 2_000, Duration(5));
        let topo = b.build().unwrap();
        let mut n = LinkLayer::new(&topo, Duration::from_millis(1));
        let hops = hop_bound(topo.link(l0), 600) + hop_bound(topo.link(l1), 600);
        assert_eq!(hops, Duration(2 * (600 + 5)));
        let relayed = n.send(Time(0), n0, [l0, l1], 600);
        assert_eq!(relayed, Ok(Time(0) + hops));
        assert_eq!(n.send(Time(0), n1, [l1], 1_000), Ok(Time(1_000 + 5)));
        // The originator's lane holds the backlog, and its budget is spent.
        assert_eq!(n.send(Time(0), n0, [l0], 400), Ok(Time(600 + 400 + 5)));
        assert_eq!(
            n.send(Time(1), n0, [l0], 1),
            Err(SendError::AllocationExhausted)
        );
        assert_eq!(n.guardian_drops(n1), 0);
    }

    #[test]
    fn hop_rule_rounds_up_to_a_microsecond() {
        let link = |bytes_per_ms| LinkSpec {
            id: LinkId(0),
            endpoints: vec![NodeId(0), NodeId(1)],
            bytes_per_ms,
            latency: Duration(0),
        };
        // 2 000 B/ms between two endpoints: 1 B/µs each.
        assert_eq!(slice_rate(&link(2_000)), 1_000);
        assert_eq!(hop_bound(&link(2_000), 1), Duration(1));
        assert_eq!(hop_bound(&link(2_000), 1_500), Duration(1_500));
        assert_eq!(hop_bound(&link(2_000), 0), Duration(1));
        assert_eq!(hop_bound(&link(6), 1), Duration(334)); // ceil(1000/3).
                                                           // A slice never rounds down to nothing.
        assert_eq!(slice_rate(&link(1)), 1);
        let slow = LinkSpec {
            latency: Duration(9),
            ..link(1)
        };
        assert_eq!(hop_bound(&slow, 2), Duration(2_009));
    }

    #[test]
    fn frame_memoises_one_rate_at_a_time() {
        // A route whose links change rate and change back: each hop is
        // timed at its own rate, memo or not.
        let mut b = btr_model::TopologyBuilder::new();
        let nodes: Vec<NodeId> = (0..5).map(|_| b.full_node()).collect();
        let route: Vec<LinkId> = [2_000, 2_000, 14, 2_000]
            .iter()
            .zip(nodes.windows(2))
            .map(|(&bw, pair)| b.link(pair, bw, Duration(3)))
            .collect();
        let topo = b.build().unwrap();
        for bytes in [0, 150] {
            let mut n = LinkLayer::new(&topo, Duration::from_millis(100));
            let bound = route
                .iter()
                .map(|&l| hop_bound(topo.link(l), bytes))
                .fold(Duration::ZERO, |a, h| a + h);
            assert_eq!(
                n.send(Time(0), nodes[0], route.iter().copied(), bytes),
                Ok(Time(0) + bound)
            );
        }
        // 150 B: 150 µs per 1 B/µs hop and ceil(150 000 / 7) at 7 B/ms.
        let hops = [150, 150, 21_429, 150].iter().map(|us| us + 3).sum::<u64>();
        let mut n = LinkLayer::new(&topo, Duration::from_millis(100));
        assert_eq!(n.send(Time(0), nodes[0], route, 150), Ok(Time(hops)));
    }
}
