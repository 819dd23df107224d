//! Parametric large-scale platform families.
//!
//! The hand-rolled `Topology::{bus, ring, mesh}` constructors cover the
//! paper's small testbed shapes; these grow the platform side to the
//! thousand-node regime: structured fabrics (2-D torus, fat-tree) and
//! the hierarchical star-of-rings layout of real SCADA plants. Every
//! family is built on [`TopologyBuilder`] and is deterministic in its
//! parameters.

use super::{Topology, TopologyBuilder, TopologyError};
use crate::ids::NodeId;
use crate::time::Duration;

/// A 2-D torus of `rows * cols` nodes: a mesh with wrap-around links in
/// every dimension of extent ≥ 3 (at extent 2 the wrap link would
/// duplicate the mesh edge, at 1 there is nothing to wrap).
///
/// Requires `rows * cols >= 2`.
pub fn torus(
    rows: usize,
    cols: usize,
    bytes_per_ms: u32,
    latency: Duration,
) -> Result<Topology, TopologyError> {
    if rows * cols < 2 {
        return Err(TopologyError::TooFewNodes {
            family: "torus",
            need: 2,
            got: rows * cols,
        });
    }
    let mut b = TopologyBuilder::new();
    let mut ids = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        ids.push(b.full_node());
    }
    let at = |r: usize, c: usize| ids[r * cols + c];
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.link(&[at(r, c), at(r, c + 1)], bytes_per_ms, latency);
            } else if cols >= 3 {
                b.link(&[at(r, c), at(r, 0)], bytes_per_ms, latency);
            }
            if r + 1 < rows {
                b.link(&[at(r, c), at(r + 1, c)], bytes_per_ms, latency);
            } else if rows >= 3 {
                b.link(&[at(r, c), at(0, c)], bytes_per_ms, latency);
            }
        }
    }
    b.build()
}

/// The near-square factorisation used when a torus is requested by node
/// count alone: the largest divisor of `n` that is at most `sqrt(n)`,
/// paired with its cofactor (so 20 → 4×5, 1000 → 25×40; primes
/// degenerate to 1×n, i.e. a ring).
pub fn torus_dims(n: usize) -> (usize, usize) {
    let mut rows = 1;
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            rows = d;
        }
        d += 1;
    }
    (rows, n / rows)
}

/// A k-ary fat-tree (Al-Fares et al.) with dual-homed hosts: `(k/2)²`
/// core switches, `k` pods of `k/2` aggregation and `k/2` edge switches,
/// and `k/2` hosts per edge switch — `k³/4 + 5k²/4` nodes for even
/// `k ≥ 2`.
///
/// Aggregation switch `j` of each pod uplinks to cores
/// `[j·k/2, (j+1)·k/2)`; every edge switch connects to every aggregation
/// switch in its pod. Hosts hang off their edge switch and — when the
/// pod has a second edge switch (`k ≥ 4`) — off the next edge switch as
/// well (MLAG-style dual-homing). With dual-homed hosts no *single*
/// node failure partitions the fabric, which is what lets campaign
/// cells gate single-fault recovery on this family; at `k = 2` hosts
/// are necessarily single-homed and every switch is a cut vertex.
/// `extra_hosts` additional hosts are attached (dual-homed the same
/// way) round-robin across edge switches so a caller can hit an exact
/// node count.
pub fn fat_tree(
    k: usize,
    extra_hosts: usize,
    bytes_per_ms: u32,
    latency: Duration,
) -> Result<Topology, TopologyError> {
    if k < 2 || !k.is_multiple_of(2) {
        return Err(TopologyError::TooFewNodes {
            family: "fat-tree",
            need: fat_tree_size(2),
            got: k,
        });
    }
    let half = k / 2;
    let mut b = TopologyBuilder::new();
    let cores: Vec<NodeId> = (0..half * half).map(|_| b.full_node()).collect();
    let mut edges: Vec<NodeId> = Vec::with_capacity(k * half);
    let home = |b: &mut TopologyBuilder, pod_edges: &[NodeId], e: usize, host: NodeId| {
        b.link(&[pod_edges[e], host], bytes_per_ms, latency);
        if pod_edges.len() >= 2 {
            b.link(
                &[pod_edges[(e + 1) % pod_edges.len()], host],
                bytes_per_ms,
                latency,
            );
        }
    };
    for _pod in 0..k {
        let aggs: Vec<NodeId> = (0..half).map(|_| b.full_node()).collect();
        let pod_edges: Vec<NodeId> = (0..half).map(|_| b.full_node()).collect();
        for (j, &agg) in aggs.iter().enumerate() {
            for c in 0..half {
                b.link(&[agg, cores[j * half + c]], bytes_per_ms, latency);
            }
            for &edge in &pod_edges {
                b.link(&[agg, edge], bytes_per_ms, latency);
            }
        }
        for e in 0..half {
            for _ in 0..half {
                let host = b.full_node();
                home(&mut b, &pod_edges, e, host);
            }
        }
        edges.extend(pod_edges);
    }
    for i in 0..extra_hosts {
        let host = b.full_node();
        let e = i % edges.len();
        let pod = e / half;
        let pod_edges = &edges[pod * half..(pod + 1) * half];
        home(&mut b, pod_edges, e % half, host);
    }
    b.build()
}

/// Node count of a k-ary fat-tree with no extra hosts (saturating, so
/// size probes on absurd arities cannot overflow).
pub fn fat_tree_size(k: usize) -> usize {
    let half = k / 2;
    (half * half)
        .saturating_add(k.saturating_mul(half).saturating_mul(2))
        .saturating_add(k.saturating_mul(half).saturating_mul(half))
}

/// A hierarchical SCADA plant: a control backbone ring of hub nodes
/// (PLCs/RTU concentrators), each hub anchoring a field ring of the
/// devices assigned to it round-robin.
///
/// One hub per 10 nodes (minimum 2). Hub counts of 2 and field rings of
/// ≤ 2 devices degrade to single links so no link is duplicated.
/// Requires `n ≥ 3`.
pub fn scada_star(
    n: usize,
    bytes_per_ms: u32,
    latency: Duration,
) -> Result<Topology, TopologyError> {
    if n < 3 {
        return Err(TopologyError::TooFewNodes {
            family: "scada-star",
            need: 3,
            got: n,
        });
    }
    let hubs = (n / 10).max(2).min(n - 1);
    let mut b = TopologyBuilder::new();
    let ids: Vec<NodeId> = (0..n).map(|_| b.full_node()).collect();
    // Control backbone among the first `hubs` nodes.
    if hubs == 2 {
        b.link(&[ids[0], ids[1]], bytes_per_ms, latency);
    } else {
        for h in 0..hubs {
            b.link(&[ids[h], ids[(h + 1) % hubs]], bytes_per_ms, latency);
        }
    }
    // Field devices round-robin onto hubs; each hub's devices form a
    // ring through the hub (chain for rings that would duplicate links).
    let mut field: Vec<Vec<NodeId>> = vec![Vec::new(); hubs];
    for (i, &id) in ids.iter().enumerate().skip(hubs) {
        field[(i - hubs) % hubs].push(id);
    }
    for (h, devices) in field.iter().enumerate() {
        if devices.is_empty() {
            continue;
        }
        let mut ring = vec![ids[h]];
        ring.extend(devices.iter().copied());
        if ring.len() <= 3 {
            for pair in ring.windows(2) {
                b.link(&[pair[0], pair[1]], bytes_per_ms, latency);
            }
        } else {
            for i in 0..ring.len() {
                b.link(
                    &[ring[i], ring[(i + 1) % ring.len()]],
                    bytes_per_ms,
                    latency,
                );
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_shape_and_distances() {
        let t = torus(4, 5, 100, Duration(1)).unwrap();
        assert_eq!(t.node_count(), 20);
        // Every node has degree 4 (two per dimension).
        for n in t.nodes() {
            assert_eq!(t.neighbors(n.id).len(), 4, "node {}", n.id);
        }
        // 2 * 20 links (one per node per dimension).
        assert_eq!(t.links().len(), 40);
        // Wrap-around halves the mesh diameter: 2 + 2 instead of 3 + 4.
        assert_eq!(t.diameter(), 4);
    }

    #[test]
    fn torus_small_extents_do_not_duplicate_links() {
        // 2xC: the row wrap would duplicate the mesh edge; must not.
        let t = torus(2, 4, 100, Duration(1)).unwrap();
        for a in t.nodes() {
            for &(m, link) in t.neighbors(a.id) {
                let shared: Vec<_> = t
                    .links()
                    .iter()
                    .filter(|l| l.attaches(a.id) && l.attaches(m))
                    .map(|l| l.id)
                    .collect();
                assert_eq!(shared, [link], "links between {} and {m}", a.id);
            }
        }
        // 1xN degenerates to a ring.
        let r = torus(1, 6, 100, Duration(1)).unwrap();
        assert_eq!(r.links().len(), 6);
        assert_eq!(r.diameter(), 3);
    }

    #[test]
    fn torus_dims_factorisation() {
        assert_eq!(torus_dims(20), (4, 5));
        assert_eq!(torus_dims(100), (10, 10));
        assert_eq!(torus_dims(400), (20, 20));
        assert_eq!(torus_dims(1000), (25, 40));
        assert_eq!(torus_dims(13), (1, 13)); // Prime: a ring.
    }

    #[test]
    fn fat_tree_shape() {
        // k=4: 4 cores, 8 agg, 8 edge, 16 hosts.
        assert_eq!(fat_tree_size(4), 36);
        let t = fat_tree(4, 0, 100, Duration(1)).unwrap();
        assert_eq!(t.node_count(), 36);
        // Hosts (degree 2: dual-homed onto both pod edge switches).
        let hosts = t
            .nodes()
            .iter()
            .filter(|n| t.neighbors(n.id).len() == 2)
            .count();
        assert_eq!(hosts, 16);
        // Any two hosts reach each other within 6 hops (host-edge-agg-
        // core-agg-edge-host).
        assert!(t.diameter() <= 6);
        // Dual-homing means no single node failure partitions the
        // fabric at k >= 4.
        for dead in t.nodes() {
            let avoid = std::collections::BTreeSet::from([dead.id]);
            for n in t.nodes() {
                if n.id == dead.id {
                    continue;
                }
                let d = t.distances_avoiding(n.id, &avoid);
                let unreachable = t
                    .nodes()
                    .iter()
                    .filter(|m| m.id != dead.id && d[m.id.index()] == u32::MAX)
                    .count();
                assert_eq!(
                    unreachable, 0,
                    "killing {} partitions from {}",
                    dead.id, n.id
                );
            }
        }
        // Extra hosts pad to an exact size.
        let padded = fat_tree(4, 5, 100, Duration(1)).unwrap();
        assert_eq!(padded.node_count(), 41);
        // Odd or tiny k rejected.
        assert!(fat_tree(3, 0, 100, Duration(1)).is_err());
        assert!(fat_tree(0, 0, 100, Duration(1)).is_err());
    }

    #[test]
    fn scada_star_shape() {
        let t = scada_star(43, 100, Duration(1)).unwrap();
        assert_eq!(t.node_count(), 43);
        // 4 hubs: backbone ring of 4 + field rings.
        let hub_degrees: Vec<usize> = (0..4).map(|h| t.neighbors(NodeId(h)).len()).collect();
        // Each hub: 2 backbone + 2 field-ring ends.
        assert!(hub_degrees.iter().all(|&d| d == 4), "{hub_degrees:?}");
        assert!(scada_star(2, 100, Duration(1)).is_err());
    }

    #[test]
    fn families_validate_across_sizes() {
        // Sweep sizes incl. awkward ones; every build must validate (the
        // TopologyBuilder checks connectivity, link sanity, etc.).
        let lat = Duration(5);
        for n in [7usize, 16, 36, 37, 99, 100, 101, 512, 1000] {
            let (rows, cols) = torus_dims(n);
            let torus =
                torus(rows, cols, 100_000, lat).unwrap_or_else(|e| panic!("torus({n}): {e}"));
            assert_eq!(torus.node_count(), n, "torus({n})");
            let star = scada_star(n, 100_000, lat).unwrap_or_else(|e| panic!("scada({n}): {e}"));
            assert_eq!(star.node_count(), n, "scada({n})");
        }
        for (k, extra) in [(2, 0), (4, 1), (6, 17)] {
            let t =
                fat_tree(k, extra, 100_000, lat).unwrap_or_else(|e| panic!("fat-tree({k}): {e}"));
            assert_eq!(
                t.node_count(),
                fat_tree_size(k) + extra,
                "fat-tree({k})+{extra}"
            );
        }
    }

    #[test]
    fn too_small_sizes_are_clean_errors() {
        let lat = Duration(5);
        for err in [
            torus(1, 1, 100, lat),
            fat_tree(0, 0, 100, lat),
            scada_star(1, 100, lat),
        ] {
            assert!(
                matches!(err, Err(TopologyError::TooFewNodes { .. })),
                "should be TooFewNodes, got {err:?}"
            );
        }
        let e = TopologyError::TooFewNodes {
            family: "torus",
            need: 2,
            got: 1,
        };
        assert!(e.to_string().contains("torus"));
    }
}
