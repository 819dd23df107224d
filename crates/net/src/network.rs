//! The channel a message crosses, decided once for both substrates.
//!
//! [`Network`] is everything between handing a message over and its
//! arrival: route, loss roll (per shard under FEC, from the sender's own
//! stream), the one [`LinkLayer::send`], a down relay's refusal. The
//! simulator's world and the fleet's transport each own one, so a run
//! loses, delays and refuses the same messages on either substrate.

use crate::{Hop, LinkLayer, RouteBackend, SendError};
use btr_crypto::Xoshiro256StarStar;
use btr_model::{Duration, NodeId, Time, Topology};
use std::collections::BTreeSet;

/// Why a message never arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The sender exceeded its static bandwidth allocation.
    GuardianDenied,
    /// A down relay on the path could not forward.
    ForwardRefused(NodeId),
    /// No route existed between the endpoints.
    NoRoute,
    /// The sender was crashed.
    SenderCrashed,
    /// The destination was crashed at delivery time.
    ReceiverCrashed,
    /// Residual transmission loss (post-FEC bit errors).
    TransmissionLoss,
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DropReason::GuardianDenied => write!(f, "guardian-denied"),
            DropReason::ForwardRefused(n) => write!(f, "forward-refused@{n}"),
            DropReason::NoRoute => write!(f, "no-route"),
            DropReason::SenderCrashed => write!(f, "sender-crashed"),
            DropReason::ReceiverCrashed => write!(f, "receiver-crashed"),
            DropReason::TransmissionLoss => write!(f, "transmission-loss"),
        }
    }
}

/// A platform's lanes, routes, down nodes and loss model.
#[derive(Debug)]
pub struct Network {
    topo: Topology,
    links: LinkLayer,
    routes: RouteBackend,
    /// By node id; routes heal around a down node.
    down: Vec<bool>,
    loss_ppm: u32,
    fec: Option<(u8, u8)>,
    /// One stream per sender, seeded from (seed, sender); empty when
    /// `loss_ppm` is zero.
    loss: Vec<Xoshiro256StarStar>,
    /// What [`Network::route`] staged last: (from, to, link).
    hops: Vec<Hop>,
    /// See [`Network::link_bytes`].
    link_bytes: u64,
}

impl Network {
    /// The channel over `topo`, every node up: guardians refilled every
    /// `period`, and `loss_ppm` of messages (of shards, under a `(k, m)`
    /// FEC code) lost, drawn from one stream per sender of `seed`.
    pub fn new(
        topo: Topology,
        period: Duration,
        seed: u64,
        loss_ppm: u32,
        fec: Option<(u8, u8)>,
    ) -> Network {
        let n = topo.node_count() as u32;
        let stream = |src: u32| {
            Xoshiro256StarStar::from_parts(&[b"btr-loss", &seed.to_be_bytes(), &src.to_be_bytes()])
        };
        let loss = if loss_ppm > 0 {
            (0..n).map(stream).collect()
        } else {
            Vec::new()
        };
        Network {
            links: LinkLayer::new(&topo, period),
            routes: RouteBackend::auto(&topo),
            down: vec![false; n as usize],
            loss_ppm,
            fec,
            loss,
            hops: Vec::new(),
            link_bytes: 0,
            topo,
        }
    }

    /// The platform.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The routing backend (its kind, resident bytes and rows built).
    pub fn routes(&self) -> &RouteBackend {
        &self.routes
    }

    /// Materialise routing state toward `dsts` ahead of traffic.
    pub fn warm_routes<I: IntoIterator<Item = NodeId>>(&mut self, dsts: I) {
        self.routes.warm(dsts);
    }

    /// Total guardian-denied bytes for a sender across all its links.
    pub fn guardian_drops(&self, node: NodeId) -> u64 {
        self.links.guardian_drops(node)
    }

    /// Wire bytes (FEC overhead included) times the links they crossed,
    /// over every message so far; a refused one counts up to the relay.
    pub fn link_bytes(&self) -> u64 {
        self.link_bytes
    }

    /// True while `node` is down.
    #[inline]
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down[node.index()]
    }

    /// Take `node` down (a crash: it loses carrier, so no route relays
    /// through it, though traffic addressed to it still routes) or bring
    /// it back (a restart). The precomputed table rebuilds all pairs; a
    /// demand row is rebuilt when a message's walk crosses a down relay.
    pub fn set_down(&mut self, node: NodeId, down: bool) {
        if std::mem::replace(&mut self.down[node.index()], down) == down {
            return;
        }
        let avoid: BTreeSet<NodeId> = (0..self.down.len() as u32)
            .map(NodeId)
            .filter(|&n| self.is_down(n))
            .collect();
        self.routes.recompute(&self.topo, &avoid, true);
    }

    /// Stage the route from `src` to a distinct `dst` for the next
    /// [`Network::transmit`].
    #[inline]
    pub fn route(&mut self, src: NodeId, dst: NodeId) -> Result<(), DropReason> {
        self.hops.clear();
        let routed = self.routes.hops_into(src, dst, &mut self.hops);
        routed.then_some(()).ok_or(DropReason::NoRoute)
    }

    /// Transmit `bytes` wire bytes from `src` at `now` over the staged
    /// route: roll for loss on `src`'s stream, charge `src`'s lane on the
    /// first link, then cross the relays. Returns the arrival time.
    #[inline]
    pub fn transmit(&mut self, now: Time, src: NodeId, bytes: u32) -> Result<Time, DropReason> {
        let mut bytes = bytes;
        if self.loss_ppm > 0 {
            let (stream, ppm) = (&mut self.loss[src.index()], self.loss_ppm as u64);
            let mut lost = || stream.next_below(1_000_000) < ppm;
            // Under FEC the message survives up to m lost shards and pays
            // a (k+m)/k wire overhead.
            let dropped = match self.fec {
                None => lost(),
                Some((k, m)) => {
                    let k = k.max(1);
                    bytes = bytes.saturating_mul((k + m) as u32) / k as u32;
                    (0..k + m).filter(|_| lost()).count() > m as usize
                }
            };
            if dropped {
                return Err(DropReason::TransmissionLoss);
            }
        }
        let route = self.hops.iter().map(|&(_, _, link)| link);
        let at = match self.links.send(now, src, route, bytes) {
            Ok(at) => at,
            Err(SendError::AllocationExhausted) => return Err(DropReason::GuardianDenied),
            Err(SendError::NotAttached) => unreachable!("a route leaves its sender's link"),
        };
        // Routes heal around a node as it goes down, so no staged route
        // should cross one; one that does stops there.
        let refused = self.hops[1..]
            .iter()
            .position(|&(relay, _, _)| self.down[relay.index()]);
        self.link_bytes += bytes as u64 * refused.map_or(self.hops.len(), |k| k + 1) as u64;
        match refused {
            None => Ok(at),
            Some(k) => Err(DropReason::ForwardRefused(self.hops[k + 1].0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PERIOD: Duration = Duration(10_000);

    /// Route, then transmit: one message from `src` to `dst`.
    fn send(
        net: &mut Network,
        now: Time,
        src: u32,
        dst: u32,
        bytes: u32,
    ) -> Result<Time, DropReason> {
        net.route(NodeId(src), NodeId(dst))
            .and_then(|()| net.transmit(now, NodeId(src), bytes))
    }

    #[test]
    fn relay_refusal_drops_multihop() {
        // Line n0 - n1 - n2, 1 B/µs slices, 5 µs latency. A delivery over
        // both hops costs both hop terms; then relay 1 goes down without
        // its routes healing (the only way a staged route can cross a
        // down relay), and the next message stops there having crossed
        // the first link.
        let mut b = btr_model::TopologyBuilder::new();
        let [n0, n1, n2] = [b.full_node(), b.full_node(), b.full_node()];
        b.link(&[n0, n1], 2_000, Duration(5));
        b.link(&[n1, n2], 2_000, Duration(5));
        let mut net = Network::new(b.build().unwrap(), PERIOD, 2, 0, None);
        assert_eq!(send(&mut net, Time(0), 0, 2, 100), Ok(Time(2 * (100 + 5))));
        assert_eq!(net.link_bytes(), 2 * 100);
        net.down[1] = true;
        assert_eq!(
            send(&mut net, Time(0), 0, 2, 100),
            Err(DropReason::ForwardRefused(NodeId(1)))
        );
        assert_eq!(net.link_bytes(), 3 * 100, "the first hop was crossed");
    }

    #[test]
    fn loss_is_deterministic_per_sender() {
        let topo = Topology::bus(2, 10_000, Duration(1));
        let pattern = || {
            let mut net = Network::new(topo.clone(), PERIOD, 9, 200_000, None);
            (0..32)
                .map(|_| send(&mut net, Time(0), 0, 1, 10).is_ok())
                .collect::<Vec<bool>>()
        };
        let a = pattern();
        assert_eq!(a, pattern(), "loss stream must be deterministic");
        assert!(a.iter().any(|&x| x), "some messages survive");
        assert!(a.iter().any(|&x| !x), "20% loss must show in 32 rolls");
    }
}
