//! Worst-case communication bounds between placed tasks.
//!
//! The planner and scheduler need an upper bound on how long a message of
//! a given size takes between two nodes. With reserved per-sender slices
//! and static routes this is a closed form: the sum of
//! [`btr_net::hop_bound`] over the route's links. Both substrates deliver
//! through `btr_net::LinkLayer`, which charges only the originator's
//! slice and adds the same hop rule for every later link, so the bound is
//! exact when the originator's slice is idle and conservative otherwise.
//! The link carrying each hop is the one the routing table cached when it
//! materialised the path.

use btr_model::{Duration, NodeId, Topology};
use btr_net::{hop_bound, RoutingTable};

/// Upper bound on delivering `bytes` from `src` to `dst`.
///
/// Returns `Duration::ZERO` for `src == dst` and `None` when no route
/// exists (e.g. the fault pattern cut the network).
pub fn comm_bound(
    topo: &Topology,
    routing: &RoutingTable,
    src: NodeId,
    dst: NodeId,
    bytes: u32,
) -> Option<Duration> {
    if src == dst {
        return Some(Duration::ZERO);
    }
    let (_, links) = routing.path_and_links(src, dst)?;
    let mut total = Duration::ZERO;
    for &link_id in links {
        total += hop_bound(topo.link(link_id), bytes);
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_for_local() {
        let t = Topology::bus(3, 1_000, Duration(10));
        let r = RoutingTable::new(&t);
        assert_eq!(
            comm_bound(&t, &r, NodeId(1), NodeId(1), 500),
            Some(Duration::ZERO)
        );
    }

    #[test]
    fn single_hop_bus() {
        // 3 nodes on a 3000 B/ms bus: slice = 1000 B/ms = 1 B/µs.
        let t = Topology::bus(3, 3_000, Duration(10));
        let r = RoutingTable::new(&t);
        // 100 bytes -> 100 µs + 10 µs latency.
        assert_eq!(
            comm_bound(&t, &r, NodeId(0), NodeId(2), 100),
            Some(Duration(110))
        );
    }

    #[test]
    fn multi_hop_accumulates() {
        let t = Topology::ring(4, 2_000, Duration(5));
        let r = RoutingTable::new(&t);
        // Each p2p link: slice = 1000 B/ms; 2 hops for opposite corners.
        let one = comm_bound(&t, &r, NodeId(0), NodeId(1), 100).unwrap();
        let two = comm_bound(&t, &r, NodeId(0), NodeId(2), 100).unwrap();
        assert_eq!(two, Duration(one.0 * 2));
    }

    /// The bound as it was computed before the table's cached links were
    /// used: walk the path's nodes and look each hop's link up.
    fn hop_by_hop(
        t: &Topology,
        r: &RoutingTable,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
    ) -> Option<Duration> {
        if src == dst {
            return Some(Duration::ZERO);
        }
        let mut total = Duration::ZERO;
        for hop in r.path(src, dst)?.windows(2) {
            let link = t.link(t.link_between(hop[0], hop[1])?);
            let slice_rate = (link.bytes_per_ms as u64 / link.endpoints.len() as u64).max(1);
            total += Duration((bytes as u64 * 1_000).div_ceil(slice_rate).max(1)) + link.latency;
        }
        Some(total)
    }

    #[test]
    fn cached_links_match_hop_by_hop_lookup() {
        use std::collections::BTreeSet;
        let lat = Duration(7);
        let platforms = [
            ("ring", Topology::ring(9, 2_000, lat)),
            ("mesh", Topology::mesh(3, 4, 3_000, lat)),
            ("dual_bus", Topology::dual_bus(6, 40_000, lat)),
            (
                "fat_tree",
                btr_model::topology::fat_tree(4, 3, 5_000, lat).unwrap(),
            ),
        ];
        for (name, t) in &platforms {
            for avoid in [BTreeSet::new(), BTreeSet::from([NodeId(1), NodeId(4)])] {
                let r = RoutingTable::avoiding(t, &avoid);
                let n = t.node_count() as u32;
                for (s, d) in (0..n).flat_map(|s| (0..n).map(move |d| (NodeId(s), NodeId(d)))) {
                    for bytes in [0, 1, 150, 100_000] {
                        assert_eq!(
                            comm_bound(t, &r, s, d, bytes),
                            hop_by_hop(t, &r, s, d, bytes),
                            "{name} avoiding {avoid:?}: {s} -> {d}, {bytes} B"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matches_simulator_nic_timing() {
        // An idle originator's delivery through the link layer is the
        // bound, for every pair, on every platform family: the relays on
        // a route add their hop terms and charge nothing.
        use btr_model::Time;
        use btr_net::LinkLayer;
        let lat = Duration(50);
        let platforms = [
            ("bus", Topology::bus(4, 4_000, lat)),
            ("ring", Topology::ring(9, 2_000, lat)),
            ("mesh", Topology::mesh(3, 4, 3_000, lat)),
            (
                "fat_tree",
                btr_model::topology::fat_tree(4, 3, 5_000, lat).unwrap(),
            ),
            (
                "torus",
                btr_model::topology::torus(4, 5, 7_000, lat).unwrap(),
            ),
        ];
        for (name, t) in &platforms {
            let r = RoutingTable::new(t);
            let n = t.node_count() as u32;
            for (s, d) in (0..n).flat_map(|s| (0..n).map(move |d| (NodeId(s), NodeId(d)))) {
                if s == d {
                    continue;
                }
                for bytes in [1, 128, 1_000] {
                    let bound = comm_bound(t, &r, s, d, bytes).unwrap();
                    let (_, route) = r.path_and_links(s, d).unwrap();
                    let mut links = LinkLayer::new(t, Duration::from_millis(10));
                    let at = Time(1_000);
                    let measured = links.send(at, s, route.iter().copied(), bytes);
                    assert_eq!(measured, Ok(at + bound), "{name}: {s} -> {d}, {bytes} B");
                }
            }
        }
    }
}
