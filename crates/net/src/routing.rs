//! Static shortest-path routing.
//!
//! CPS networks are only partially connected ("Each link is connected to
//! some subset of the nodes"), so multi-hop flows exist and the planner
//! must know the paths — both to budget link bandwidth and to reason
//! about which faults cut which flows. Routes are computed offline (BFS,
//! deterministic lowest-id tie-breaking) and avoid the nodes of a plan's
//! fault set: the planner searches all pairs once, fault-free, into a
//! [`BaseRoutes`], and a fault set's routes are a [`ModeRoutes`] view of
//! it, answered from the fault-free table except to and from the faulty
//! nodes and toward the destinations a faulty node relayed for, the only
//! ones searched again.
//!
//! The graph the BFS walks is the topology's own adjacency
//! (`Topology::neighbors`: neighbours ascending, each with the lowest-id
//! link the pair shares), built once with the topology; a table build
//! allocates only the table.
//!
//! Because the simulator asks for a path on *every* transmitted message,
//! the table materialises every (src, dst) path — node sequence plus the
//! link carrying each hop — into flat pools at construction.
//! [`RoutingTable::path`] and [`RoutingTable::path_and_links`] are then
//! O(1) slice borrows with no per-call allocation or link lookup; the
//! planner's bounds (its placer's comm table, `sched::synthesize`) read
//! the cached links too, from a table or a view, through [`RouteLookup`].

use btr_model::{LinkId, NodeId, Topology};
use std::collections::{BTreeSet, VecDeque};

/// Nodes one destination's BFS can mark besides the destination: all of
/// them when avoided nodes may be endpoints (they get a hop, unexpanded),
/// the non-avoided ones otherwise. Both backends stop a search there.
pub(crate) fn markable(avoided: &[bool], endpoints_ok: bool) -> usize {
    let skipped = if endpoints_ok {
        0
    } else {
        avoided.iter().filter(|&&a| a).count()
    };
    (avoided.len() - skipped).saturating_sub(1)
}

/// Routes read without mutation: a [`RoutingTable`] or a mode's
/// [`ModeRoutes`] view of one. What the planner's bounds and placement
/// costs read.
pub trait RouteLookup {
    /// The path from `src` to `dst` inclusive of both endpoints, plus
    /// the link carrying each hop (`links.len() + 1 == nodes.len()`).
    /// `None` if unreachable. Self-paths always exist.
    fn path_and_links(&self, src: NodeId, dst: NodeId) -> Option<(&[NodeId], &[LinkId])>;
}

/// Pool offsets for one (src, dst) pair's cached path.
#[derive(Debug, Clone, Copy, Default)]
struct PathSpan {
    /// Offset into the node pool.
    node_off: u32,
    /// Offset into the link pool.
    link_off: u32,
    /// Number of nodes on the path (0 = unreachable; 1 = src == dst).
    len: u16,
}

impl PathSpan {
    /// The span's nodes and links in the pools it was cached into.
    #[inline]
    fn read<'p>(
        self,
        node_pool: &'p [NodeId],
        link_pool: &'p [LinkId],
    ) -> Option<(&'p [NodeId], &'p [LinkId])> {
        if self.len == 0 {
            return None;
        }
        let noff = self.node_off as usize;
        let loff = self.link_off as usize;
        Some((
            &node_pool[noff..noff + self.len as usize],
            &link_pool[loff..loff + self.len as usize - 1],
        ))
    }
}

/// All-pairs routing for one fault pattern, with fully cached paths.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    n: usize,
    /// `next_hop[src * n + dst]` = the neighbour of `src` on the chosen
    /// shortest path to `dst`, or `None` if unreachable.
    next_hop: Vec<Option<NodeId>>,
    /// Per-pair spans into the path pools, indexed `src * n + dst`.
    spans: Vec<PathSpan>,
    /// Concatenated path node sequences (inclusive of both endpoints).
    node_pool: Vec<NodeId>,
    /// Concatenated per-hop link ids (one fewer than nodes per path).
    link_pool: Vec<LinkId>,
    /// Destinations whose BFS ran to build this table.
    searched: usize,
}

/// The backward BFS toward one destination over the nodes an avoid set
/// leaves, with the working arrays it reuses from destination to
/// destination.
#[derive(Debug, Default)]
struct Search {
    /// `avoided[v]`: `v` is in the avoid set.
    avoided: Vec<bool>,
    /// Avoided nodes may still originate and terminate traffic.
    endpoints_ok: bool,
    /// Nodes one search can mark besides its destination ([`markable`]).
    markable: usize,
    visited: Vec<bool>,
    queue: VecDeque<NodeId>,
}

impl Search {
    /// Search `n` nodes around `avoid`, reusing the arrays.
    fn reset(&mut self, n: usize, avoid: &BTreeSet<NodeId>, endpoints_ok: bool) {
        self.avoided.clear();
        self.avoided.resize(n, false);
        for a in avoid {
            if let Some(slot) = self.avoided.get_mut(a.index()) {
                *slot = true;
            }
        }
        self.endpoints_ok = endpoints_ok;
        self.markable = markable(&self.avoided, endpoints_ok);
        self.visited.clear();
        self.visited.resize(n, false);
    }

    /// BFS backwards from `dst`, calling `mark(v, hop)` for every node
    /// `v` it reaches, `hop` being `v`'s next hop toward `dst`. An
    /// avoided destination that may not terminate traffic is not
    /// searched; returns whether the search ran.
    fn run(&mut self, topo: &Topology, dst: usize, mut mark: impl FnMut(usize, NodeId)) -> bool {
        let Search {
            avoided,
            endpoints_ok,
            markable,
            visited,
            queue,
        } = self;
        if avoided[dst] && !*endpoints_ok {
            return false;
        }
        visited.fill(false);
        visited[dst] = true;
        queue.clear();
        queue.push_back(NodeId(dst as u32));
        // The search ends with the last markable node — on a bus, after
        // the destination's own neighbour list — and runs the queue dry
        // only when some are unreachable.
        let mut unmarked = *markable;
        'bfs: while let Some(cur) = queue.pop_front() {
            for &(nb, _) in topo.neighbors(cur) {
                if visited[nb.index()] {
                    continue;
                }
                if avoided[nb.index()] {
                    if !*endpoints_ok {
                        continue;
                    }
                    // An avoided node may originate traffic (it gets a
                    // next hop) but never relays: don't expand it.
                } else {
                    queue.push_back(nb);
                }
                visited[nb.index()] = true;
                // From nb, the next hop toward dst is cur.
                mark(nb.index(), cur);
                unmarked -= 1;
                if unmarked == 0 {
                    break 'bfs;
                }
            }
        }
        true
    }
}

/// Walk the path from `src` to `dst` along `next_hop` (a node's next hop
/// toward `dst`) and append it to the pools, so per-message routing is a
/// slice borrow (pool size is bounded by n² · diameter). Self-paths
/// always exist (loopback), even for avoided nodes.
fn cache_path(
    topo: &Topology,
    src: usize,
    dst: usize,
    next_hop: impl Fn(usize) -> Option<NodeId>,
    node_pool: &mut Vec<NodeId>,
    link_pool: &mut Vec<LinkId>,
) -> PathSpan {
    if src != dst && next_hop(src).is_none() {
        return PathSpan::default();
    }
    let (node_off, link_off) = (node_pool.len(), link_pool.len());
    let mut cur = NodeId(src as u32);
    node_pool.push(cur);
    // The walk ends at dst, which has no next hop toward itself.
    while let Some(hop) = next_hop(cur.index()) {
        link_pool.push(
            topo.link_between(cur, hop)
                .expect("next-hop pairs share a link"),
        );
        node_pool.push(hop);
        cur = hop;
    }
    debug_assert_eq!(cur.index(), dst, "a BFS tree leads to its root");
    PathSpan {
        node_off: node_off as u32,
        link_off: link_off as u32,
        len: (node_pool.len() - node_off) as u16,
    }
}

impl RoutingTable {
    /// Compute routes over the full topology.
    pub fn new(topo: &Topology) -> RoutingTable {
        Self::avoiding(topo, &BTreeSet::new())
    }

    /// Compute routes that never traverse (or terminate at) `avoid` nodes.
    ///
    /// Deterministic: BFS from each destination with neighbours visited in
    /// ascending id order, so every correct node derives identical tables
    /// from identical inputs.
    pub fn avoiding(topo: &Topology, avoid: &BTreeSet<NodeId>) -> RoutingTable {
        Self::build(topo, avoid, false)
    }

    /// Compute routes that never *relay through* `avoid` nodes, but may
    /// still originate or terminate at them.
    ///
    /// This is the link layer's view of a crashed node: traffic addressed
    /// to it still flows (and is dropped at the dead receiver, where the
    /// simulator attributes it), but multi-hop flows are healed around it
    /// — a point-to-point link to a dead node loses carrier, so its
    /// neighbours stop relaying through it. See
    /// `btr_sim::World`'s crash handling.
    pub fn avoiding_transit(topo: &Topology, avoid: &BTreeSet<NodeId>) -> RoutingTable {
        Self::build(topo, avoid, true)
    }

    fn build(topo: &Topology, avoid: &BTreeSet<NodeId>, endpoints_ok: bool) -> RoutingTable {
        let n = topo.node_count();
        let mut table = RoutingTable {
            n,
            next_hop: vec![None; n * n],
            spans: vec![PathSpan::default(); n * n],
            node_pool: Vec::new(),
            link_pool: Vec::new(),
            searched: 0,
        };
        let mut search = Search::default();
        search.reset(n, avoid, endpoints_ok);
        for dst in 0..n {
            let next_hop = &mut table.next_hop;
            let ran = search.run(topo, dst, |v, hop| next_hop[v * n + dst] = Some(hop));
            table.searched += ran as usize;
        }
        // Source-major pools: a sender's paths sit together, as the
        // simulator reads them message by message.
        let RoutingTable {
            next_hop,
            spans,
            node_pool,
            link_pool,
            ..
        } = &mut table;
        for src in 0..n {
            for dst in 0..n {
                let hop = |cur: usize| next_hop[cur * n + dst];
                spans[src * n + dst] = cache_path(topo, src, dst, hop, node_pool, link_pool);
            }
        }
        table
    }

    /// Destinations whose BFS ran to build this table: every one that
    /// may terminate traffic.
    pub fn searched(&self) -> usize {
        self.searched
    }

    /// The next hop from `src` toward `dst` (None if unreachable or
    /// equal): the tests' reference for the cached paths.
    #[cfg(test)]
    fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        if src == dst {
            return None;
        }
        self.next_hop[src.index() * self.n + dst.index()]
    }

    /// The full path from `src` to `dst`, inclusive of both endpoints —
    /// a borrow of the precomputed pool, O(1) and allocation-free.
    ///
    /// Returns `None` if no route exists.
    #[inline]
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<&[NodeId]> {
        let span = self.spans[src.index() * self.n + dst.index()];
        if span.len == 0 {
            return None;
        }
        let off = span.node_off as usize;
        Some(&self.node_pool[off..off + span.len as usize])
    }

    /// The path plus the link carrying each hop (`links.len() + 1 ==
    /// nodes.len()`). The simulator's per-message route lookup.
    #[inline]
    pub fn path_and_links(&self, src: NodeId, dst: NodeId) -> Option<(&[NodeId], &[LinkId])> {
        let span = self.spans[src.index() * self.n + dst.index()];
        if span.len == 0 {
            return None;
        }
        let noff = span.node_off as usize;
        let loff = span.link_off as usize;
        Some((
            &self.node_pool[noff..noff + span.len as usize],
            &self.link_pool[loff..loff + span.len as usize - 1],
        ))
    }

    /// Hop count from `src` to `dst` (0 for self, None if unreachable).
    pub fn hops(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        self.path(src, dst).map(|p| (p.len() - 1) as u32)
    }

    /// Heap bytes resident for this table (next-hop matrix, spans, and
    /// the materialised path pools) — O(n² · diameter), the number the
    /// demand-driven backend exists to avoid at scale.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.next_hop.capacity() * std::mem::size_of::<Option<NodeId>>()
            + self.spans.capacity() * std::mem::size_of::<PathSpan>()
            + self.node_pool.capacity() * std::mem::size_of::<NodeId>()
            + self.link_pool.capacity() * std::mem::size_of::<LinkId>()
    }

    /// True if every pair of non-avoided nodes can reach each other.
    pub fn fully_connected(&self, avoid: &BTreeSet<NodeId>) -> bool {
        for s in 0..self.n {
            for d in 0..self.n {
                let (s_id, d_id) = (NodeId(s as u32), NodeId(d as u32));
                if s == d || avoid.contains(&s_id) || avoid.contains(&d_id) {
                    continue;
                }
                if self.next_hop[s * self.n + d].is_none() {
                    return false;
                }
            }
        }
        true
    }
}

impl RouteLookup for RoutingTable {
    #[inline]
    fn path_and_links(&self, src: NodeId, dst: NodeId) -> Option<(&[NodeId], &[LinkId])> {
        RoutingTable::path_and_links(self, src, dst)
    }
}

/// A strategy's one route search: the fault-free [`RoutingTable`], and
/// for each node the pairs whose route it relays, from which every fault
/// set's routes are patched ([`BaseRoutes::avoiding`]).
#[derive(Debug)]
pub struct BaseRoutes {
    table: RoutingTable,
    /// `relayed[relay_first[x]..relay_first[x + 1]]`: the pairs
    /// `src * n + dst` whose route passes through `x` between its ends.
    relay_first: Vec<u32>,
    relayed: Vec<u32>,
}

/// `Detours::column_of` for a destination that is not searched again.
const NO_COLUMN: u32 = u32::MAX;

impl BaseRoutes {
    /// Search all pairs of `topo` once, fault-free, and index the relays.
    pub fn new(topo: &Topology) -> BaseRoutes {
        let table = RoutingTable::new(topo);
        let n = table.n;
        let relays = |pair: usize| {
            let span = table.spans[pair];
            let off = span.node_off as usize;
            let len = span.len as usize;
            // Empty when unreachable; the ends are no relays.
            table.node_pool[off..off + len.saturating_sub(1)]
                .iter()
                .skip(1)
        };
        let mut relay_first = vec![0u32; n + 1];
        for pair in 0..n * n {
            for relay in relays(pair) {
                relay_first[relay.index() + 1] += 1;
            }
        }
        for x in 0..n {
            relay_first[x + 1] += relay_first[x];
        }
        let mut filled = relay_first.clone();
        let mut relayed = vec![0; relay_first[n] as usize];
        for pair in 0..n * n {
            for relay in relays(pair) {
                relayed[filled[relay.index()] as usize] = pair as u32;
                filled[relay.index()] += 1;
            }
        }
        BaseRoutes {
            table,
            relay_first,
            relayed,
        }
    }

    /// The fault-free table.
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// The routes [`RoutingTable::avoiding`] gives for `avoid`, as a view
    /// of the fault-free table: none from or to a node of `avoid`, and
    /// the fault-free route everywhere else but toward the destinations
    /// some other source reached through a node of `avoid`, the only
    /// ones searched again, into `detours`.
    ///
    /// Removing a relay changes a BFS tree only inside the relay's
    /// subtree (DESIGN.md "Why a stale row may answer"), so every other
    /// destination keeps its routes as they are. On a bus no route has a
    /// relay and nothing is searched again. The work is the avoided
    /// nodes' relay lists plus the searched destinations' columns; the
    /// rest of the n² pairs are not visited.
    pub fn avoiding<'a>(
        &'a self,
        topo: &Topology,
        avoid: &BTreeSet<NodeId>,
        detours: &'a mut Detours,
    ) -> ModeRoutes<'a> {
        let n = self.table.n;
        debug_assert_eq!(n, topo.node_count(), "these routes are this topology's");
        let Detours {
            search,
            avoid: avoid_list,
            dsts,
            column_of,
            next_hop,
            spans,
            node_pool,
            link_pool,
        } = detours;
        search.reset(n, avoid, false);
        avoid_list.clear();
        avoid_list.extend(avoid.iter().copied().filter(|x| x.index() < n));
        column_of.clear();
        column_of.resize(n, NO_COLUMN);
        for x in avoid_list.iter() {
            let (from, to) = (self.relay_first[x.index()], self.relay_first[x.index() + 1]);
            for &pair in &self.relayed[from as usize..to as usize] {
                let (src, dst) = (pair as usize / n, pair as usize % n);
                if !search.avoided[src] && !search.avoided[dst] {
                    column_of[dst] = 0;
                }
            }
        }
        dsts.clear();
        spans.clear();
        node_pool.clear();
        link_pool.clear();
        next_hop.clear();
        next_hop.resize(n, None);
        for dst in 0..n {
            if column_of[dst] == NO_COLUMN {
                continue;
            }
            column_of[dst] = dsts.len() as u32;
            dsts.push(NodeId(dst as u32));
            next_hop.fill(None);
            search.run(topo, dst, |v, hop| next_hop[v] = Some(hop));
            for src in 0..n {
                let hop = |cur: usize| next_hop[cur];
                spans.push(cache_path(topo, src, dst, hop, node_pool, link_pool));
            }
        }
        ModeRoutes {
            base: &self.table,
            detours,
        }
    }
}

/// A planning thread's working memory for [`BaseRoutes::avoiding`]: the
/// avoid set and the destinations searched again, with their paths.
/// Reused from mode to mode, it allocates only while it grows.
#[derive(Debug, Default)]
pub struct Detours {
    search: Search,
    /// The avoided nodes, ascending.
    avoid: Vec<NodeId>,
    /// The destinations searched again, ascending.
    dsts: Vec<NodeId>,
    /// `column_of[dst]`: `dst`'s place in `dsts`, or [`NO_COLUMN`].
    column_of: Vec<u32>,
    /// Each node's next hop toward the destination being searched.
    next_hop: Vec<Option<NodeId>>,
    /// `spans[column * n + src]`: the path from `src` to `dsts[column]`.
    spans: Vec<PathSpan>,
    node_pool: Vec<NodeId>,
    link_pool: Vec<LinkId>,
}

/// One fault set's routes, borrowed from a [`BaseRoutes`] and the
/// [`Detours`] it was patched into by [`BaseRoutes::avoiding`]: every
/// answer equals [`RoutingTable::avoiding`]'s for the same set.
#[derive(Debug, Clone, Copy)]
pub struct ModeRoutes<'a> {
    base: &'a RoutingTable,
    detours: &'a Detours,
}

impl<'a> ModeRoutes<'a> {
    /// The path plus the link carrying each hop, as
    /// [`RoutingTable::path_and_links`].
    #[inline]
    pub fn path_and_links(&self, src: NodeId, dst: NodeId) -> Option<(&'a [NodeId], &'a [LinkId])> {
        let Detours {
            search,
            column_of,
            spans,
            node_pool,
            link_pool,
            ..
        } = self.detours;
        if src != dst && (search.avoided[src.index()] || search.avoided[dst.index()]) {
            return None;
        }
        match column_of[dst.index()] {
            NO_COLUMN => self.base.path_and_links(src, dst),
            column => spans[column as usize * self.base.n + src.index()].read(node_pool, link_pool),
        }
    }

    /// The avoided nodes, ascending.
    pub fn avoided(&self) -> &'a [NodeId] {
        &self.detours.avoid
    }

    /// The destinations searched again, ascending: those some source
    /// outside the avoid set reached through it.
    pub fn detoured(&self) -> &'a [NodeId] {
        &self.detours.dsts
    }
}

impl RouteLookup for ModeRoutes<'_> {
    #[inline]
    fn path_and_links(&self, src: NodeId, dst: NodeId) -> Option<(&[NodeId], &[LinkId])> {
        ModeRoutes::path_and_links(self, src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_model::{Duration, Topology};

    #[test]
    fn bus_routes_are_single_hop() {
        let t = Topology::bus(4, 100, Duration(1));
        let r = RoutingTable::new(&t);
        assert_eq!(
            r.path(NodeId(0), NodeId(3)),
            Some(&[NodeId(0), NodeId(3)][..])
        );
        assert_eq!(r.hops(NodeId(0), NodeId(3)), Some(1));
        assert_eq!(r.hops(NodeId(2), NodeId(2)), Some(0));
    }

    #[test]
    fn ring_routes_take_shortest_side() {
        let t = Topology::ring(6, 100, Duration(1));
        let r = RoutingTable::new(&t);
        assert_eq!(r.hops(NodeId(0), NodeId(2)), Some(2));
        assert_eq!(r.hops(NodeId(0), NodeId(3)), Some(3));
        let p = r.path(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(p, &[NodeId(0), NodeId(1), NodeId(2)][..]);
    }

    #[test]
    fn avoiding_faulty_reroutes() {
        let t = Topology::ring(4, 100, Duration(1));
        let avoid = BTreeSet::from([NodeId(1)]);
        let r = RoutingTable::avoiding(&t, &avoid);
        // 0 -> 2 must go the long way: 0 -> 3 -> 2.
        assert_eq!(
            r.path(NodeId(0), NodeId(2)),
            Some(&[NodeId(0), NodeId(3), NodeId(2)][..])
        );
        // Routes to the avoided node do not exist.
        assert_eq!(r.path(NodeId(0), NodeId(1)), None);
        assert!(r.fully_connected(&avoid));
    }

    #[test]
    fn cut_network_detected() {
        // A line 0-1-2: avoiding the middle disconnects the ends.
        let mut b = btr_model::TopologyBuilder::new();
        let n0 = b.full_node();
        let n1 = b.full_node();
        let n2 = b.full_node();
        b.link(&[n0, n1], 100, Duration(1));
        b.link(&[n1, n2], 100, Duration(1));
        let t = b.build().unwrap();
        let avoid = BTreeSet::from([NodeId(1)]);
        let r = RoutingTable::avoiding(&t, &avoid);
        assert_eq!(r.path(NodeId(0), NodeId(2)), None);
        assert!(!r.fully_connected(&avoid));
    }

    #[test]
    fn determinism() {
        let t = Topology::mesh(3, 3, 100, Duration(1));
        let r1 = RoutingTable::new(&t);
        let r2 = RoutingTable::new(&t);
        for s in 0..9u32 {
            for d in 0..9u32 {
                assert_eq!(
                    r1.next_hop(NodeId(s), NodeId(d)),
                    r2.next_hop(NodeId(s), NodeId(d))
                );
            }
        }
    }

    #[test]
    fn paths_are_simple() {
        // No node repeats on any path.
        let t = Topology::mesh(3, 4, 100, Duration(1));
        let r = RoutingTable::new(&t);
        for s in 0..12u32 {
            for d in 0..12u32 {
                if let Some(p) = r.path(NodeId(s), NodeId(d)) {
                    let set: BTreeSet<_> = p.iter().collect();
                    assert_eq!(set.len(), p.len(), "path {s}->{d} not simple");
                }
            }
        }
    }

    /// The path rebuilt hop by hop from the public next-hop table — the
    /// reference `cache_matches_walk` holds the cached paths to.
    fn walk(r: &RoutingTable, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let mut path = vec![src];
        let mut cur = src;
        for _ in 0..=r.n {
            let hop = r.next_hop(cur, dst)?;
            path.push(hop);
            if hop == dst {
                return Some(path);
            }
            cur = hop;
        }
        None // Cycle guard; unreachable with consistent tables.
    }

    #[test]
    fn cache_matches_walk() {
        // The O(1) cached paths must agree with the next-hop walk on
        // every pair of distinct nodes, with and without avoided nodes.
        let t = Topology::mesh(3, 4, 100, Duration(1));
        for avoid in [
            BTreeSet::new(),
            BTreeSet::from([NodeId(5)]),
            BTreeSet::from([NodeId(1), NodeId(6)]),
        ] {
            let r = RoutingTable::avoiding(&t, &avoid);
            for s in 0..12u32 {
                for d in (0..12u32).filter(|&d| d != s) {
                    let cached = r.path(NodeId(s), NodeId(d)).map(|p| p.to_vec());
                    let walked = walk(&r, NodeId(s), NodeId(d));
                    assert_eq!(cached, walked, "pair {s}->{d} avoid {avoid:?}");
                }
            }
        }
    }

    #[test]
    fn cached_links_connect_their_hops() {
        let t = Topology::mesh(3, 4, 100, Duration(1));
        let r = RoutingTable::new(&t);
        for s in 0..12u32 {
            for d in 0..12u32 {
                let Some((nodes, links)) = r.path_and_links(NodeId(s), NodeId(d)) else {
                    continue;
                };
                assert_eq!(links.len() + 1, nodes.len());
                for (i, link) in links.iter().enumerate() {
                    assert_eq!(t.link_between(nodes[i], nodes[i + 1]), Some(*link));
                    let spec = t.link(*link);
                    assert!(spec.attaches(nodes[i]) && spec.attaches(nodes[i + 1]));
                }
            }
        }
    }

    #[test]
    fn avoiding_transit_keeps_endpoints_reachable() {
        let t = Topology::ring(6, 100, Duration(1));
        let avoid = BTreeSet::from([NodeId(1)]);
        let r = RoutingTable::avoiding_transit(&t, &avoid);
        // 0 -> 2 heals the long way around (no relaying through n1)...
        assert_eq!(
            r.path(NodeId(0), NodeId(2)),
            Some(&[NodeId(0), NodeId(5), NodeId(4), NodeId(3), NodeId(2)][..])
        );
        // ...but traffic addressed *to* n1 still routes (dropped at the
        // dead receiver, where the simulator attributes it)...
        assert_eq!(
            r.path(NodeId(0), NodeId(1)),
            Some(&[NodeId(0), NodeId(1)][..])
        );
        // ...and n1 could still originate (its packets just die with it).
        assert!(r.path(NodeId(1), NodeId(2)).is_some());
        // No healed path relays through the avoided node.
        for s in 0..6u32 {
            for d in 0..6u32 {
                if let Some(p) = r.path(NodeId(s), NodeId(d)) {
                    if p.len() > 2 {
                        assert!(
                            !p[1..p.len() - 1].contains(&NodeId(1)),
                            "{s}->{d} relays through the avoided node: {p:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn avoiding_transit_matches_plain_when_nothing_avoided() {
        let t = Topology::mesh(3, 3, 100, Duration(1));
        let a = RoutingTable::new(&t);
        let b = RoutingTable::avoiding_transit(&t, &BTreeSet::new());
        for s in 0..9u32 {
            for d in 0..9u32 {
                assert_eq!(a.path(NodeId(s), NodeId(d)), b.path(NodeId(s), NodeId(d)));
            }
        }
    }

    #[test]
    fn self_paths_always_exist() {
        // Loopback does not traverse the network, so a self-path exists
        // even for avoided nodes (pre-cache behaviour, preserved).
        let t = Topology::ring(4, 100, Duration(1));
        let avoid = BTreeSet::from([NodeId(1)]);
        let r = RoutingTable::avoiding(&t, &avoid);
        assert_eq!(r.path(NodeId(1), NodeId(1)), Some(&[NodeId(1)][..]));
        assert_eq!(r.path(NodeId(0), NodeId(0)), Some(&[NodeId(0)][..]));
    }
}
