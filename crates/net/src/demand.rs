//! Demand-driven routing: the at-scale alternative to the all-pairs
//! [`RoutingTable`].
//!
//! The precomputed table materialises every `(src, dst)` path at
//! construction — O(n² · diameter) memory and work, fine through a few
//! hundred nodes, ruinous at a thousand (ROADMAP "Workload scale-out").
//! [`DemandRoutes`] instead materialises one BFS **row** at a time, on
//! first use, and keeps the rows in a byte-budgeted LRU cache. A row is
//! keyed by the *destination*: the deterministic tie-breaking BFS that
//! defines every path runs from the destination outward (exactly as in
//! `RoutingTable::build`), so one row yields the next hop toward that
//! destination for *all* sources at once. Paths are then short walks
//! along the row, staged into reusable scratch buffers — no per-call
//! allocation in steady state. Rows and walks read a copy of the
//! topology's adjacency (`Topology::adjacency`, the same structure the
//! table's BFS borrows), taken at construction so the backend can
//! outlive the borrow of the topology.
//!
//! Both backends implement [`Routes`] and are interchangeable
//! bit-for-bit: identical paths, identical links, identical `avoiding` /
//! `avoiding_transit` semantics (the `routes_equiv` property tests pin
//! this). [`RouteBackend::auto`] picks the table below
//! [`DEMAND_ROUTING_THRESHOLD`] nodes and the row cache at or above it.

use crate::routing::RoutingTable;
use btr_model::{Adjacency, LinkId, NodeId, Topology};
use std::collections::{BTreeSet, VecDeque};

/// Node count at and above which [`RouteBackend::auto`] switches from
/// the precomputed all-pairs table to the demand-driven row cache.
///
/// Below this, the table's O(n² · d) memory is trivial and its O(1)
/// zero-branch lookups keep the simulator hot path at its measured
/// baseline; above it, table construction cost and residency grow
/// quadratically while the row cache stays near-linear.
pub const DEMAND_ROUTING_THRESHOLD: usize = 64;

/// Default byte budget for cached rows (32 MiB): at n = 1000 every row
/// is ~4 kB, so the full row set costs ~4 MB and nothing is evicted;
/// the budget is the backstop that keeps residency bounded at any n.
pub const DEMAND_CACHE_BUDGET: usize = 32 << 20;

/// Sentinel for "no next hop" in a row.
const NONE: u32 = u32::MAX;

/// A shortest-path provider for the link layer.
///
/// Methods take `&mut self` because the demand-driven implementation
/// materialises state on first use; the precomputed table simply ignores
/// the mutability. All implementations must agree bit-for-bit on every
/// path (same BFS, same ascending-id tie-breaking, same lowest-id link
/// selection) so that swapping backends never changes a simulation.
pub trait Routes {
    /// The path from `src` to `dst` inclusive of both endpoints, plus
    /// the link carrying each hop (`links.len() + 1 == nodes.len()`).
    /// `None` if unreachable. Self-paths always exist.
    fn path_and_links(&mut self, src: NodeId, dst: NodeId) -> Option<(&[NodeId], &[LinkId])>;

    /// Heap bytes resident for routing state (tables, cached rows,
    /// scratch) — the metric the scale harness gates sub-quadratic.
    fn resident_bytes(&self) -> usize;
}

impl Routes for RoutingTable {
    #[inline]
    fn path_and_links(&mut self, src: NodeId, dst: NodeId) -> Option<(&[NodeId], &[LinkId])> {
        RoutingTable::path_and_links(self, src, dst)
    }

    fn resident_bytes(&self) -> usize {
        RoutingTable::resident_bytes(self)
    }
}

/// Lazily-materialised per-destination routing rows with LRU eviction.
#[derive(Debug, Clone)]
pub struct DemandRoutes {
    index: Adjacency,
    avoid: BTreeSet<NodeId>,
    endpoints_ok: bool,
    budget: usize,
    /// `rows[dst]` = next hop toward `dst` for every source (NONE =
    /// unreachable), or `None` if not materialised.
    rows: Vec<Option<Box<[u32]>>>,
    /// LRU stamps, parallel to `rows`.
    last_used: Vec<u64>,
    cached: usize,
    tick: u64,
    /// Lifetime counters (diagnostics; the scale harness reports them).
    hits: u64,
    misses: u64,
    evictions: u64,
    // Reusable scratch: BFS state and the staged path returned by
    // `path_and_links`.
    visited: Vec<bool>,
    queue: VecDeque<NodeId>,
    path_nodes: Vec<NodeId>,
    path_links: Vec<LinkId>,
}

impl DemandRoutes {
    /// Routes over the full topology with the default cache budget.
    pub fn new(topo: &Topology) -> DemandRoutes {
        Self::with_budget(topo, DEMAND_CACHE_BUDGET)
    }

    /// Routes over the full topology with an explicit row-cache byte
    /// budget (at least one row is always kept).
    pub fn with_budget(topo: &Topology, budget: usize) -> DemandRoutes {
        let n = topo.node_count();
        DemandRoutes {
            index: topo.adjacency().clone(),
            avoid: BTreeSet::new(),
            endpoints_ok: false,
            budget,
            rows: vec![None; n],
            last_used: vec![0; n],
            cached: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            visited: vec![false; n],
            queue: VecDeque::new(),
            path_nodes: Vec::new(),
            path_links: Vec::new(),
        }
    }

    /// Routes that never traverse (or terminate at) `avoid` nodes —
    /// bit-identical to [`RoutingTable::avoiding`].
    pub fn avoiding(topo: &Topology, avoid: &BTreeSet<NodeId>) -> DemandRoutes {
        let mut d = Self::new(topo);
        d.set_avoid(avoid, false);
        d
    }

    /// Routes that never *relay through* `avoid` nodes but may originate
    /// or terminate at them — bit-identical to
    /// [`RoutingTable::avoiding_transit`].
    pub fn avoiding_transit(topo: &Topology, avoid: &BTreeSet<NodeId>) -> DemandRoutes {
        let mut d = Self::new(topo);
        d.set_avoid(avoid, true);
        d
    }

    /// Install a new avoid set, invalidating every cached row. This is
    /// the at-scale crash-heal path: O(cached) instead of the table's
    /// O(n² · diameter) rebuild.
    pub fn set_avoid(&mut self, avoid: &BTreeSet<NodeId>, endpoints_ok: bool) {
        if self.avoid == *avoid && self.endpoints_ok == endpoints_ok {
            return;
        }
        self.avoid = avoid.clone();
        self.endpoints_ok = endpoints_ok;
        for r in &mut self.rows {
            *r = None;
        }
        self.last_used.fill(0);
        self.cached = 0;
    }

    /// (hits, misses, evictions) since construction.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Number of rows currently materialised.
    pub fn cached_rows(&self) -> usize {
        self.cached
    }

    /// Materialise rows for a set of destinations (the plan-derived
    /// traffic matrix): demand-driven warming without waiting for the
    /// first message of each flow.
    pub fn warm<I: IntoIterator<Item = NodeId>>(&mut self, dsts: I) {
        for dst in dsts {
            if dst.index() < self.rows.len() {
                self.ensure_row(dst);
            }
        }
    }

    fn row_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<u32>()
    }

    /// Build the row for `dst`: the exact BFS of `RoutingTable::build`
    /// restricted to one destination — ascending-id neighbour order,
    /// avoided nodes either skipped (`avoiding`) or assigned a hop but
    /// never expanded (`avoiding_transit`).
    fn ensure_row(&mut self, dst: NodeId) {
        self.tick += 1;
        if self.rows[dst.index()].is_some() {
            self.last_used[dst.index()] = self.tick;
            self.hits += 1;
            return;
        }
        self.misses += 1;
        // Evict least-recently-used rows until this one fits the budget.
        while self.cached > 0 && (self.cached + 1) * self.row_bytes() > self.budget {
            let victim = (0..self.rows.len())
                .filter(|&i| self.rows[i].is_some())
                .min_by_key(|&i| self.last_used[i])
                .expect("cached > 0");
            self.rows[victim] = None;
            self.cached -= 1;
            self.evictions += 1;
        }

        let n = self.rows.len();
        let mut row = vec![NONE; n].into_boxed_slice();
        if !self.avoid.contains(&dst) || self.endpoints_ok {
            self.visited.fill(false);
            self.visited[dst.index()] = true;
            self.queue.clear();
            self.queue.push_back(dst);
            while let Some(cur) = self.queue.pop_front() {
                for &(nb, _) in self.index.neighbors(cur) {
                    if self.visited[nb.index()] {
                        continue;
                    }
                    if self.avoid.contains(&nb) {
                        if !self.endpoints_ok {
                            continue;
                        }
                        // May originate (gets a next hop), never relays.
                        self.visited[nb.index()] = true;
                        row[nb.index()] = cur.0;
                        continue;
                    }
                    self.visited[nb.index()] = true;
                    row[nb.index()] = cur.0;
                    self.queue.push_back(nb);
                }
            }
        }
        self.rows[dst.index()] = Some(row);
        self.last_used[dst.index()] = self.tick;
        self.cached += 1;
    }
}

impl Routes for DemandRoutes {
    fn path_and_links(&mut self, src: NodeId, dst: NodeId) -> Option<(&[NodeId], &[LinkId])> {
        self.path_nodes.clear();
        self.path_links.clear();
        self.path_nodes.push(src);
        if src == dst {
            // Loopback does not traverse the network; self-paths exist
            // even for avoided nodes (matches the table's spans).
            return Some((&self.path_nodes, &self.path_links));
        }
        self.ensure_row(dst);
        let n = self.rows.len();
        let mut cur = src;
        let mut ok = false;
        for _ in 0..=n {
            let hop = self.rows[dst.index()].as_ref().expect("ensured")[cur.index()];
            if hop == NONE {
                break;
            }
            let hop = NodeId(hop);
            self.path_links.push(
                self.index
                    .link_between(cur, hop)
                    .expect("next-hop pairs share a link"),
            );
            self.path_nodes.push(hop);
            cur = hop;
            if hop == dst {
                ok = true;
                break;
            }
        }
        if ok {
            Some((&self.path_nodes, &self.path_links))
        } else {
            None
        }
    }

    fn resident_bytes(&self) -> usize {
        self.cached * self.row_bytes()
            + self.rows.capacity() * std::mem::size_of::<Option<Box<[u32]>>>()
            + self.last_used.capacity() * 8
            + self.index.resident_bytes()
            + self.visited.capacity()
            + self.path_nodes.capacity() * 4
            + self.path_links.capacity() * 4
    }
}

/// The routing backend the simulator threads through its link layer:
/// precomputed all-pairs below the scale threshold, demand-driven rows
/// at or above it.
#[derive(Debug, Clone)]
pub enum RouteBackend {
    /// All-pairs table with fully materialised paths (small platforms).
    Precomputed(RoutingTable),
    /// Lazily-materialised LRU row cache (large platforms).
    Demand(DemandRoutes),
}

impl RouteBackend {
    /// Select the backend by node count (see
    /// [`DEMAND_ROUTING_THRESHOLD`]).
    pub fn auto(topo: &Topology) -> RouteBackend {
        if topo.node_count() >= DEMAND_ROUTING_THRESHOLD {
            RouteBackend::Demand(DemandRoutes::new(topo))
        } else {
            RouteBackend::Precomputed(RoutingTable::new(topo))
        }
    }

    /// Human-readable backend name (reports and traces).
    pub fn kind(&self) -> &'static str {
        match self {
            RouteBackend::Precomputed(_) => "precomputed",
            RouteBackend::Demand(_) => "demand",
        }
    }

    /// Recompute for a new avoid set, preserving the backend choice.
    /// `endpoints_ok` selects `avoiding_transit` (true) vs `avoiding`
    /// semantics — see [`RoutingTable::avoiding_transit`].
    pub fn recompute(&mut self, topo: &Topology, avoid: &BTreeSet<NodeId>, endpoints_ok: bool) {
        match self {
            RouteBackend::Precomputed(rt) => {
                *rt = if endpoints_ok {
                    RoutingTable::avoiding_transit(topo, avoid)
                } else {
                    RoutingTable::avoiding(topo, avoid)
                };
            }
            RouteBackend::Demand(d) => d.set_avoid(avoid, endpoints_ok),
        }
    }

    /// Materialise routing state for a set of destinations ahead of
    /// traffic (no-op for the precomputed table, which is always warm).
    pub fn warm<I: IntoIterator<Item = NodeId>>(&mut self, dsts: I) {
        if let RouteBackend::Demand(d) = self {
            d.warm(dsts);
        }
    }
}

impl Routes for RouteBackend {
    #[inline]
    fn path_and_links(&mut self, src: NodeId, dst: NodeId) -> Option<(&[NodeId], &[LinkId])> {
        match self {
            RouteBackend::Precomputed(rt) => RoutingTable::path_and_links(rt, src, dst),
            RouteBackend::Demand(d) => d.path_and_links(src, dst),
        }
    }

    fn resident_bytes(&self) -> usize {
        match self {
            RouteBackend::Precomputed(rt) => rt.resident_bytes(),
            RouteBackend::Demand(d) => d.resident_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_model::Duration;

    fn paths_match(table: &RoutingTable, demand: &mut DemandRoutes, n: usize, ctx: &str) {
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                let a = table
                    .path_and_links(NodeId(s), NodeId(d))
                    .map(|(p, l)| (p.to_vec(), l.to_vec()));
                let b = demand
                    .path_and_links(NodeId(s), NodeId(d))
                    .map(|(p, l)| (p.to_vec(), l.to_vec()));
                assert_eq!(a, b, "{ctx}: pair {s}->{d}");
            }
        }
    }

    #[test]
    fn demand_matches_table_on_mesh() {
        let t = Topology::mesh(3, 4, 100, Duration(1));
        for (avoid, transit) in [
            (BTreeSet::new(), false),
            (BTreeSet::from([NodeId(5)]), false),
            (BTreeSet::from([NodeId(1), NodeId(6)]), false),
            (BTreeSet::from([NodeId(5)]), true),
            (BTreeSet::from([NodeId(0), NodeId(11)]), true),
        ] {
            let table = if transit {
                RoutingTable::avoiding_transit(&t, &avoid)
            } else {
                RoutingTable::avoiding(&t, &avoid)
            };
            let mut demand = if transit {
                DemandRoutes::avoiding_transit(&t, &avoid)
            } else {
                DemandRoutes::avoiding(&t, &avoid)
            };
            paths_match(
                &table,
                &mut demand,
                12,
                &format!("avoid {avoid:?} t={transit}"),
            );
        }
    }

    #[test]
    fn tiny_budget_evicts_but_stays_correct() {
        let t = Topology::mesh(4, 4, 100, Duration(1));
        let table = RoutingTable::new(&t);
        // Budget of one row: every new destination evicts the previous.
        let mut demand = DemandRoutes::with_budget(&t, 16 * 4);
        paths_match(&table, &mut demand, 16, "one-row budget");
        assert_eq!(demand.cached_rows(), 1);
        let (_, misses, evictions) = demand.cache_stats();
        assert!(evictions > 0, "expected eviction churn");
        assert!(misses > 16, "rebuilds after eviction");
        // And a warm cache serves hits.
        let mut roomy = DemandRoutes::new(&t);
        paths_match(&table, &mut roomy, 16, "warm pass 1");
        paths_match(&table, &mut roomy, 16, "warm pass 2");
        let (hits, misses, evictions) = roomy.cache_stats();
        assert_eq!(evictions, 0);
        assert_eq!(misses, 16, "one build per destination");
        assert!(hits > misses);
    }

    #[test]
    fn set_avoid_invalidates_rows() {
        let t = Topology::ring(6, 100, Duration(1));
        let mut d = DemandRoutes::new(&t);
        assert!(d.path_and_links(NodeId(0), NodeId(2)).is_some());
        assert_eq!(d.cached_rows(), 1);
        d.set_avoid(&BTreeSet::from([NodeId(1)]), true);
        assert_eq!(d.cached_rows(), 0, "avoid change must drop rows");
        // Healed path goes the long way, matching the transit table.
        let table = RoutingTable::avoiding_transit(&t, &BTreeSet::from([NodeId(1)]));
        paths_match(&table, &mut d, 6, "post-heal");
        // Re-installing the same set keeps the cache.
        let cached = d.cached_rows();
        d.set_avoid(&BTreeSet::from([NodeId(1)]), true);
        assert_eq!(d.cached_rows(), cached);
    }

    #[test]
    fn auto_selects_by_node_count() {
        let small = Topology::mesh(4, 5, 100, Duration(1));
        assert_eq!(RouteBackend::auto(&small).kind(), "precomputed");
        let large = Topology::ring(DEMAND_ROUTING_THRESHOLD, 100, Duration(1));
        assert_eq!(RouteBackend::auto(&large).kind(), "demand");
    }

    #[test]
    fn backend_recompute_matches_either_way() {
        let t = Topology::ring(8, 100, Duration(1));
        let avoid = BTreeSet::from([NodeId(3)]);
        let mut pre = RouteBackend::Precomputed(RoutingTable::new(&t));
        let mut dem = RouteBackend::Demand(DemandRoutes::new(&t));
        for backend in [&mut pre, &mut dem] {
            backend.recompute(&t, &avoid, true);
        }
        for s in 0..8u32 {
            for d in 0..8u32 {
                let owned = |b: &mut RouteBackend| {
                    b.path_and_links(NodeId(s), NodeId(d))
                        .map(|(p, l)| (p.to_vec(), l.to_vec()))
                };
                assert_eq!(owned(&mut pre), owned(&mut dem), "pair {s}->{d}");
            }
        }
    }

    #[test]
    fn demand_resident_bytes_stay_bounded() {
        let t = Topology::ring(200, 100, Duration(1));
        let mut d = DemandRoutes::with_budget(&t, 8 * 200 * 4);
        for dst in 0..200u32 {
            d.path_and_links(NodeId(0), NodeId(dst));
        }
        assert!(d.cached_rows() <= 8);
        assert!(d.resident_bytes() < 1 << 20);
    }

    #[test]
    fn warm_materialises_rows() {
        let t = Topology::ring(10, 100, Duration(1));
        let mut b = RouteBackend::Demand(DemandRoutes::new(&t));
        b.warm([NodeId(3), NodeId(7)]);
        if let RouteBackend::Demand(d) = &b {
            assert_eq!(d.cached_rows(), 2);
            assert_eq!(d.cache_stats().1, 2);
        }
        // Precomputed warm is a no-op.
        let mut p = RouteBackend::Precomputed(RoutingTable::new(&t));
        p.warm([NodeId(1)]);
        assert!(p.resident_bytes() > 0);
    }
}
