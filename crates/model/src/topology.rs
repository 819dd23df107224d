//! The CPS platform: nodes and links.
//!
//! Mirrors the system model of Section 2.1: "The system consists of a set
//! of nodes and a set of links. Nodes have a finite processing speed and
//! access to a local clock ... Each link is connected to some subset of
//! the nodes and has a finite bandwidth." Links with more than two
//! endpoints model shared buses (e.g. CAN); the per-node bandwidth
//! allocation is the statically-allocated MAC share that defeats the
//! babbling-idiot problem.
//!
//! A built [`Topology`] owns its [`Adjacency`] — per node, the
//! neighbours in ascending order, each with the lowest-id link the pair
//! shares — computed once by [`TopologyBuilder::build`]. Every graph
//! walk in the workspace (the BFS here, `btr-net`'s routing table and
//! demand rows) reads that one structure; nothing else derives
//! neighbourhoods from the link list.

use crate::ids::{LinkId, NodeId};
use crate::time::Duration;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Static description of one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// The node's id (dense, 0-based).
    pub id: NodeId,
    /// Processing speed in percent of nominal (100 = nominal). The paper
    /// assumes homogeneous speeds "for simplicity"; we keep the field so
    /// experiments can sweep the common clock-frequency metric.
    pub speed_pct: u32,
    /// True if physical sensors are attached (the node can host sources).
    pub can_sense: bool,
    /// True if physical actuators are attached (the node can host sinks).
    pub can_actuate: bool,
}

/// Static description of one link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkSpec {
    /// The link's id (dense, 0-based).
    pub id: LinkId,
    /// Nodes attached to this link (2 = point-to-point, >2 = bus).
    pub endpoints: Vec<NodeId>,
    /// Usable bandwidth in bytes per millisecond.
    pub bytes_per_ms: u32,
    /// Propagation latency.
    pub latency: Duration,
}

impl LinkSpec {
    /// True if `n` is attached to this link.
    pub fn attaches(&self, n: NodeId) -> bool {
        self.endpoints.contains(&n)
    }
}

/// Errors from topology construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A link references a node id that does not exist.
    UnknownNode(NodeId),
    /// A link has fewer than two endpoints.
    DegenerateLink(LinkId),
    /// A link has zero bandwidth.
    ZeroBandwidth(LinkId),
    /// The node graph is not connected.
    Disconnected {
        /// A node unreachable from node 0.
        unreachable: NodeId,
    },
    /// No nodes were declared.
    Empty,
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "link references unknown node {n}"),
            TopologyError::DegenerateLink(l) => write!(f, "link {l} has fewer than 2 endpoints"),
            TopologyError::ZeroBandwidth(l) => write!(f, "link {l} has zero bandwidth"),
            TopologyError::Disconnected { unreachable } => {
                write!(f, "topology is disconnected: {unreachable} unreachable")
            }
            TopologyError::Empty => write!(f, "topology has no nodes"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Per-node adjacency: each node's neighbours in ascending id order,
/// every neighbour paired with the lowest-id link attaching both.
///
/// Ascending order is what makes every BFS over it deterministic
/// (lowest-id tie-breaking); the lowest shared link is the one a hop
/// between the two nodes is carried on (it matters on redundant buses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adjacency {
    rows: Vec<Vec<(NodeId, LinkId)>>,
}

impl Adjacency {
    fn build(node_count: usize, links: &[LinkSpec]) -> Adjacency {
        let mut rows: Vec<Vec<(NodeId, LinkId)>> = vec![Vec::new(); node_count];
        for l in links {
            for &a in &l.endpoints {
                for &b in &l.endpoints {
                    if a != b {
                        rows[a.index()].push((b, l.id));
                    }
                }
            }
        }
        for row in &mut rows {
            // Ascending by neighbour then link id; keeping the first
            // entry per neighbour selects the lowest shared link.
            row.sort_unstable_by_key(|&(nb, link)| (nb.0, link.0));
            row.dedup_by_key(|&mut (nb, _)| nb);
        }
        Adjacency { rows }
    }

    /// The neighbours of `n`, ascending, each with the link reaching it.
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.rows[n.index()]
    }

    /// The lowest-id link directly connecting `a` and `b`, if any.
    #[inline]
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        let row = &self.rows[a.index()];
        row.binary_search_by_key(&b.0, |&(nb, _)| nb.0)
            .ok()
            .map(|i| row[i].1)
    }

    /// Heap bytes this adjacency holds.
    pub fn resident_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|row| row.capacity() * std::mem::size_of::<(NodeId, LinkId)>())
            .sum::<usize>()
            + self.rows.capacity() * std::mem::size_of::<Vec<(NodeId, LinkId)>>()
    }
}

/// A validated platform description.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    nodes: Vec<NodeSpec>,
    links: Vec<LinkSpec>,
    /// For each node, the links it attaches to.
    node_links: Vec<Vec<LinkId>>,
    adjacency: Adjacency,
}

impl Topology {
    /// All nodes, ordered by id.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// All links, ordered by id.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Look up a node spec.
    ///
    /// # Panics
    /// Panics if the id is out of range (ids are validated at build time).
    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id.index()]
    }

    /// Look up a link spec.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn link(&self, id: LinkId) -> &LinkSpec {
        &self.links[id.index()]
    }

    /// The links node `n` attaches to.
    pub fn links_of(&self, n: NodeId) -> &[LinkId] {
        &self.node_links[n.index()]
    }

    /// The adjacency computed when the topology was built.
    pub fn adjacency(&self) -> &Adjacency {
        &self.adjacency
    }

    /// Direct neighbours of `n` (nodes sharing at least one link),
    /// ascending, each with the lowest-id link shared with `n`.
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        self.adjacency.neighbors(n)
    }

    /// A link directly connecting `a` and `b`, if any (lowest id wins).
    #[inline]
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.adjacency.link_between(a, b)
    }

    /// Hop-count distances from `src` to every node (BFS).
    pub fn distances_from(&self, src: NodeId) -> Vec<u32> {
        self.distances_avoiding(src, &BTreeSet::new())
    }

    /// Network diameter in hops.
    pub fn diameter(&self) -> u32 {
        let mut d = 0;
        for n in &self.nodes {
            for x in self.distances_from(n.id) {
                if x != u32::MAX {
                    d = d.max(x);
                }
            }
        }
        d
    }

    /// Distances from `src` avoiding a set of (faulty) nodes.
    ///
    /// Faulty nodes neither originate nor relay traffic; links they sit on
    /// still work between the remaining endpoints (the MAC shares are
    /// static, so a faulty node cannot take over others' slots).
    pub fn distances_avoiding(&self, src: NodeId, avoid: &BTreeSet<NodeId>) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.nodes.len()];
        if avoid.contains(&src) {
            return dist;
        }
        dist[src.index()] = 0;
        let mut q = VecDeque::from([src]);
        while let Some(n) = q.pop_front() {
            for &(m, _) in self.neighbors(n) {
                if avoid.contains(&m) {
                    continue;
                }
                if dist[m.index()] == u32::MAX {
                    dist[m.index()] = dist[n.index()] + 1;
                    q.push_back(m);
                }
            }
        }
        dist
    }
}

/// Builder for [`Topology`].
#[derive(Debug, Default, Clone)]
pub struct TopologyBuilder {
    nodes: Vec<NodeSpec>,
    links: Vec<LinkSpec>,
}

impl TopologyBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node with the given capabilities; returns its id.
    pub fn node(&mut self, speed_pct: u32, can_sense: bool, can_actuate: bool) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSpec {
            id,
            speed_pct,
            can_sense,
            can_actuate,
        });
        id
    }

    /// Add a nominal-speed node with sensors and actuators.
    pub fn full_node(&mut self) -> NodeId {
        self.node(100, true, true)
    }

    /// Add a link; returns its id.
    pub fn link(&mut self, endpoints: &[NodeId], bytes_per_ms: u32, latency: Duration) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(LinkSpec {
            id,
            endpoints: endpoints.to_vec(),
            bytes_per_ms,
            latency,
        });
        id
    }

    /// Validate and build.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if self.nodes.is_empty() {
            return Err(TopologyError::Empty);
        }
        for l in &self.links {
            if l.endpoints.len() < 2 {
                return Err(TopologyError::DegenerateLink(l.id));
            }
            if l.bytes_per_ms == 0 {
                return Err(TopologyError::ZeroBandwidth(l.id));
            }
            for &n in &l.endpoints {
                if n.index() >= self.nodes.len() {
                    return Err(TopologyError::UnknownNode(n));
                }
            }
        }
        let mut node_links = vec![Vec::new(); self.nodes.len()];
        for l in &self.links {
            for &n in &l.endpoints {
                node_links[n.index()].push(l.id);
            }
        }
        let adjacency = Adjacency::build(self.nodes.len(), &self.links);
        let topo = Topology {
            nodes: self.nodes,
            links: self.links,
            node_links,
            adjacency,
        };
        // Connectivity check (single nodes are trivially connected).
        if topo.nodes.len() > 1 {
            let dist = topo.distances_from(NodeId(0));
            if let Some(i) = dist.iter().position(|&d| d == u32::MAX) {
                return Err(TopologyError::Disconnected {
                    unreachable: NodeId(i as u32),
                });
            }
        }
        Ok(topo)
    }
}

/// Convenience constructors for common CPS platforms.
impl Topology {
    /// A single shared bus (CAN-style) connecting `n` nodes.
    ///
    /// A single-node "bus" has no link (the node talks only to itself).
    pub fn bus(n: usize, bytes_per_ms: u32, latency: Duration) -> Topology {
        let mut b = TopologyBuilder::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| b.full_node()).collect();
        if n > 1 {
            b.link(&nodes, bytes_per_ms, latency);
        }
        b.build().expect("bus topology is always valid")
    }

    /// A ring of `n` nodes with point-to-point links.
    pub fn ring(n: usize, bytes_per_ms: u32, latency: Duration) -> Topology {
        let mut b = TopologyBuilder::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| b.full_node()).collect();
        for i in 0..n {
            b.link(&[nodes[i], nodes[(i + 1) % n]], bytes_per_ms, latency);
        }
        b.build().expect("ring topology is always valid")
    }

    /// Dual redundant buses (avionics-style): every node on two buses.
    pub fn dual_bus(n: usize, bytes_per_ms: u32, latency: Duration) -> Topology {
        let mut b = TopologyBuilder::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| b.full_node()).collect();
        b.link(&nodes, bytes_per_ms, latency);
        b.link(&nodes, bytes_per_ms, latency);
        b.build().expect("dual bus topology is always valid")
    }

    /// A 2D mesh (grid) of `rows * cols` nodes.
    pub fn mesh(rows: usize, cols: usize, bytes_per_ms: u32, latency: Duration) -> Topology {
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
                }
                if r + 1 < rows {
                    b.link(&[at(r, c), at(r + 1, c)], bytes_per_ms, latency);
                }
            }
        }
        b.build().expect("mesh topology is always valid")
    }
}

/// Per-node, per-link static bandwidth shares (bytes per period).
///
/// This is the "bandwidth of each link is statically allocated between the
/// nodes" assumption from Section 2.1; guardians in `btr-net` enforce it.
pub type BandwidthAlloc = BTreeMap<(NodeId, LinkId), u64>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_is_fully_connected() {
        let t = Topology::bus(5, 100, Duration(10));
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.links().len(), 1);
        assert_eq!(t.neighbors(NodeId(0)).len(), 4);
        assert_eq!(t.diameter(), 1);
    }

    #[test]
    fn ring_distances() {
        let t = Topology::ring(6, 100, Duration(10));
        let d = t.distances_from(NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
        assert_eq!(t.diameter(), 3);
    }

    #[test]
    fn mesh_shape() {
        let t = Topology::mesh(2, 3, 100, Duration(5));
        assert_eq!(t.node_count(), 6);
        // 2 rows * 2 horizontal + 3 vertical = 7 links.
        assert_eq!(t.links().len(), 7);
        assert_eq!(t.diameter(), 3); // Corner to corner.
    }

    #[test]
    fn disconnected_rejected() {
        let mut b = TopologyBuilder::new();
        let a = b.full_node();
        let c = b.full_node();
        let _d = b.full_node(); // Never linked.
        b.link(&[a, c], 10, Duration(1));
        assert_eq!(
            b.build(),
            Err(TopologyError::Disconnected {
                unreachable: NodeId(2)
            })
        );
    }

    #[test]
    fn bad_links_rejected() {
        let mut b = TopologyBuilder::new();
        let a = b.full_node();
        b.link(&[a], 10, Duration(1));
        assert!(matches!(b.build(), Err(TopologyError::DegenerateLink(_))));

        let mut b = TopologyBuilder::new();
        let a = b.full_node();
        let c = b.full_node();
        b.link(&[a, c], 0, Duration(1));
        assert!(matches!(b.build(), Err(TopologyError::ZeroBandwidth(_))));

        let mut b = TopologyBuilder::new();
        let a = b.full_node();
        b.link(&[a, NodeId(7)], 10, Duration(1));
        assert!(matches!(b.build(), Err(TopologyError::UnknownNode(_))));

        assert_eq!(TopologyBuilder::new().build(), Err(TopologyError::Empty));
    }

    #[test]
    fn distances_avoiding_faulty() {
        // Ring of 4: avoiding node 1 forces the long way round.
        let t = Topology::ring(4, 100, Duration(1));
        let avoid = BTreeSet::from([NodeId(1)]);
        let d = t.distances_avoiding(NodeId(0), &avoid);
        assert_eq!(d[2], 2); // 0 -> 3 -> 2.
        assert_eq!(d[1], u32::MAX);
        // Avoiding the source yields nothing reachable.
        let d = t.distances_avoiding(NodeId(0), &BTreeSet::from([NodeId(0)]));
        assert!(d.iter().all(|&x| x == u32::MAX));
    }

    #[test]
    fn link_between() {
        let t = Topology::ring(4, 100, Duration(1));
        assert!(t.link_between(NodeId(0), NodeId(1)).is_some());
        assert!(t.link_between(NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn value_semantics_round_trip() {
        // Serialization proper is stubbed offline (see vendor/README.md);
        // what persistence relies on is that equal construction inputs
        // give structurally equal topologies and clones are faithful.
        let t = Topology::mesh(2, 2, 50, Duration(3));
        assert_eq!(t, Topology::mesh(2, 2, 50, Duration(3)));
        assert_eq!(t, t.clone());
        assert_ne!(t, Topology::mesh(2, 2, 51, Duration(3)));
    }
}
