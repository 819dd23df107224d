//! Demand-driven routing: the at-scale alternative to the all-pairs
//! [`RoutingTable`].
//!
//! The precomputed table materialises every `(src, dst)` path at
//! construction — O(n² · diameter) memory and work, fine through a few
//! dozen nodes, ruinous at a thousand. [`DemandRoutes`] instead
//! materialises one BFS **row** at a time, on first use. A row is keyed
//! by the *destination*: the deterministic tie-breaking BFS that defines
//! every path runs from the destination outward (exactly as in
//! `RoutingTable::build`), so one row yields the next hop toward that
//! destination for *all* sources at once.
//!
//! **What a row holds.** `row[src]` is a `u16` *slot*: the position of
//! the next hop in `src`'s adjacency list. The adjacency is a CSR copy
//! of the topology's, read through `Topology::neighbors` — one flat
//! array of `(neighbour, link)` edges, each node's neighbours
//! ascending, each with the lowest-id link the pair shares — taken at
//! construction so the backend can outlive the borrow of the topology.
//! A hop is therefore two indexed loads, `row[cur]` and
//! `edges[first_edge[cur] + slot]`, and the edge yields
//! the next node *and* the link that carries the hop: no search, and two
//! bytes per entry instead of a node id.
//!
//! **Where rows live.** In one slab of `n`-entry rows that grows by
//! doubling up to the byte budget (`with_budget`'s one argument; at least
//! one row), with a `dst → slab row` map and each slab row's owner. When
//! the slab is full a miss takes over the next slab row round-robin — off
//! the hit path, which pays one map load and a counter.
//!
//! **Rows outlive a crash.** When the avoid set *grows* (a node crashed),
//! `set_avoid` keeps every resident row and marks it stale — a bit of its
//! map entry, no new array. The BFS is destination-rooted with ascending
//! neighbour order, so removing a relay changes the parent only of the
//! nodes in *its* subtree: a walk over a stale row that meets no avoided
//! relay is bit-for-bit the walk a fresh BFS would give, and only a walk
//! that crosses one rebuilds that one row in place (DESIGN.md "The link
//! layer: what a hop reads"). A shrinking avoid set, or a change of
//! semantics over a non-empty one, forgets every row (the map is cleared,
//! the slab keeps its capacity) and rows re-materialise on demand.
//!
//! **What the budget bounds.** The slab only: `rows × n × 2` bytes. The
//! CSR adjacency (`n + 1` offsets, one edge and one reverse slot per
//! directed neighbour pair), the map, the BFS queue and the staged path
//! are O(n + edges) and are reported with it by `resident_bytes`.
//!
//! Both backends implement [`Routes`] and are interchangeable
//! bit-for-bit: identical paths, identical links, identical `avoiding` /
//! `avoiding_transit` semantics (the `routes_equiv` property tests pin
//! this). [`RouteBackend::auto`] picks the table below
//! `DEMAND_ROUTING_THRESHOLD` nodes and the rows at or above it.

use crate::routing::RoutingTable;
use btr_model::{LinkId, NodeId, Topology};
use std::collections::BTreeSet;

/// Node count at and above which [`RouteBackend::auto`] switches from
/// the precomputed all-pairs table to the demand-driven rows.
///
/// Below this, the table's O(n² · d) memory is trivial and its O(1)
/// zero-branch lookups keep the simulator hot path at its measured
/// baseline; above it, table construction cost and residency grow
/// quadratically while the rows stay near-linear.
pub(crate) const DEMAND_ROUTING_THRESHOLD: usize = 64;

/// Default byte budget for resident rows (32 MiB): at n = 1000 every row
/// is 2 kB, so the full row set costs 2 MB and nothing is evicted; the
/// budget is the backstop that keeps residency bounded at any n.
pub(crate) const DEMAND_CACHE_BUDGET: usize = 32 << 20;

/// Row entry for "no next hop": unreachable, or the destination itself.
const NONE: u16 = u16::MAX;

/// `row_of` entry for a destination with no resident row.
const NO_ROW: u32 = u32::MAX;

/// `row_of` bit of a row built under a smaller avoid set than the current
/// one: still resident, but a walk over it must check its relays. Entries
/// below this are fresh rows, so the hit path stays one compare.
const STALE: u32 = 1 << 31;

/// Most neighbours a node may have: a row entry indexes the sender's
/// adjacency list in 16 bits, with [`NONE`] set aside.
const MAX_DEGREE: usize = 65_533;

/// One hop of a routed message: `(from, to, link carrying it)`.
pub type Hop = (NodeId, NodeId, LinkId);

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
    /// scratch) — what must stay sub-quadratic at scale.
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

/// Lazily-materialised per-destination routing rows of adjacency slots,
/// resident in one byte-budgeted slab.
#[derive(Debug, Clone)]
pub struct DemandRoutes {
    n: usize,
    /// CSR adjacency: `edges[first_edge[v]..first_edge[v + 1]]` are `v`'s
    /// neighbours, ascending, each with the link reaching it.
    first_edge: Vec<u32>,
    edges: Vec<(NodeId, LinkId)>,
    /// `back_slot[e]` for edge `e = (v → w)`: the slot of `v` in `w`'s
    /// list — what the BFS writes into `row[w]` when it reaches `w`
    /// from `v`.
    back_slot: Vec<u16>,
    avoid: BTreeSet<NodeId>,
    /// `avoid` as a mask, for the BFS and the walk over a stale row.
    avoided: Vec<bool>,
    endpoints_ok: bool,
    /// Nodes a row's BFS can mark besides its destination; the fill
    /// stops when it has marked them all.
    markable: usize,
    /// Most rows the budget admits (at least one, at most `n`).
    max_rows: usize,
    /// Resident rows, `n` entries each; row `r` is `slab[r * n..][..n]`.
    slab: Vec<u16>,
    /// `row_of[dst]` = which slab row is `dst`'s, with [`STALE`] set if
    /// it predates the current avoid set, or [`NO_ROW`].
    row_of: Vec<u32>,
    /// `owner[r]` = the destination whose row slab row `r` holds.
    owner: Vec<NodeId>,
    /// The slab row the next miss takes over once the slab is full.
    next_victim: usize,
    /// Lifetime counters (diagnostics; the benchmark's probes read them).
    hits: u64,
    misses: u64,
    evictions: u64,
    kept_stale: u64,
    healed: u64,
    // Reusable scratch: the BFS queue and the staged path returned by
    // `path_and_links`.
    queue: Vec<NodeId>,
    path_nodes: Vec<NodeId>,
    path_links: Vec<LinkId>,
}

/// Refuse a node whose neighbours a 16-bit slot cannot index.
fn check_degree(node: NodeId, degree: usize) {
    assert!(
        degree <= MAX_DEGREE,
        "demand routing: {node} has {degree} neighbours, more than the {MAX_DEGREE} a 16-bit row slot can index"
    );
}

/// How a walk over a row ended.
#[derive(PartialEq)]
enum Walk {
    /// At `dst`.
    Found,
    /// Short of `dst`: no route.
    NoRoute,
    /// At an avoided relay of a stale row: the row must be rebuilt.
    Crossed,
}

/// Follow a destination's `row` from `src`, reporting each hop: the
/// slot `row[cur]` picks the edge of `cur` that leads on. A `STALE` row
/// predates the current avoid set, so each relay is checked against
/// `avoided`; a fresh row never leads through one. `src != dst`.
#[inline(always)]
fn walk<const STALE: bool>(
    row: &[u16],
    first_edge: &[u32],
    edges: &[(NodeId, LinkId)],
    avoided: &[bool],
    src: NodeId,
    dst: NodeId,
    mut hop: impl FnMut(NodeId, NodeId, LinkId),
) -> Walk {
    let mut cur = src;
    // A row is a tree rooted at `dst`, so a walk is under n hops.
    for _ in 0..row.len() {
        let slot = row[cur.index()];
        if slot == NONE {
            return Walk::NoRoute;
        }
        let (next, link) = edges[first_edge[cur.index()] as usize + slot as usize];
        hop(cur, next, link);
        if next == dst {
            return Walk::Found;
        }
        if STALE && avoided[next.index()] {
            return Walk::Crossed;
        }
        cur = next;
    }
    Walk::NoRoute
}

impl DemandRoutes {
    /// Routes over the full topology with the default row budget.
    ///
    /// # Panics
    /// As [`DemandRoutes::with_budget`].
    pub fn new(topo: &Topology) -> DemandRoutes {
        Self::with_budget(topo, DEMAND_CACHE_BUDGET)
    }

    /// Routes over the full topology with an explicit byte budget for
    /// resident rows (at least one row is always kept).
    ///
    /// # Panics
    /// Panics if a node has 65 534 or more neighbours: a row entry is a
    /// 16-bit index into the sender's adjacency list, and a wider list
    /// must fail here, naming the node and its degree, rather than wrap.
    pub fn with_budget(topo: &Topology, budget: usize) -> DemandRoutes {
        let n = topo.node_count();
        let mut first_edge = Vec::with_capacity(n + 1);
        let mut edges = Vec::new();
        for v in topo.nodes() {
            let nbs = topo.neighbors(v.id);
            check_degree(v.id, nbs.len());
            first_edge.push(edges.len() as u32);
            edges.extend_from_slice(nbs);
        }
        first_edge.push(edges.len() as u32);
        assert!(edges.len() <= u32::MAX as usize, "edge offsets are 32-bit");
        // Neighbourhood is symmetric, so `v` is in `w`'s (ascending) list.
        let mut back_slot = Vec::with_capacity(edges.len());
        for v in topo.nodes() {
            for &(w, _) in topo.neighbors(v.id) {
                let slot = topo
                    .neighbors(w)
                    .binary_search_by_key(&v.id, |&(x, _)| x)
                    .expect("adjacency is symmetric");
                back_slot.push(slot as u16);
            }
        }
        DemandRoutes {
            n,
            first_edge,
            edges,
            back_slot,
            avoid: BTreeSet::new(),
            avoided: vec![false; n],
            endpoints_ok: false,
            markable: n.saturating_sub(1),
            max_rows: (budget / (n * std::mem::size_of::<u16>())).clamp(1, n),
            slab: Vec::new(),
            row_of: vec![NO_ROW; n],
            owner: Vec::new(),
            next_victim: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            kept_stale: 0,
            healed: 0,
            queue: Vec::with_capacity(n),
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

    /// Install a new avoid set — the at-scale crash-heal path, O(resident
    /// rows) where the table rebuilds all pairs. A set that grew under
    /// unchanged semantics (or from empty, where the two semantics agree)
    /// keeps every resident row and marks it stale: lookups check a stale
    /// row's relays and rebuild only a row they find crossing an avoided
    /// one. Anything else forgets every row (the slab keeps its capacity).
    pub fn set_avoid(&mut self, avoid: &BTreeSet<NodeId>, endpoints_ok: bool) {
        if self.avoid == *avoid && self.endpoints_ok == endpoints_ok {
            return;
        }
        let grew = avoid.is_superset(&self.avoid)
            && (endpoints_ok == self.endpoints_ok || self.avoid.is_empty());
        self.avoid = avoid.clone();
        self.endpoints_ok = endpoints_ok;
        self.avoided.fill(false);
        for a in avoid {
            if let Some(m) = self.avoided.get_mut(a.index()) {
                *m = true;
            }
        }
        self.markable = crate::routing::markable(&self.avoided, endpoints_ok);
        if grew {
            for owner in &self.owner {
                self.row_of[owner.index()] |= STALE;
            }
            self.kept_stale += self.owner.len() as u64;
        } else {
            self.row_of.fill(NO_ROW);
            self.owner.clear();
            self.slab.clear();
            self.next_victim = 0;
        }
    }

    /// (hits, misses, evictions) since construction. A lookup answered
    /// from a resident row, stale or not, is a hit; a miss builds a row
    /// for a destination that had none.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// What growing avoid sets cost since construction: (rows kept
    /// resident and marked stale, stale rows rebuilt because a walk
    /// crossed an avoided relay). A rebuild is neither a hit nor a miss.
    pub fn heal_stats(&self) -> (u64, u64) {
        (self.kept_stale, self.healed)
    }

    /// Number of rows currently resident.
    pub fn cached_rows(&self) -> usize {
        self.owner.len()
    }

    /// Bytes one resident row takes of the budget.
    pub fn row_bytes(&self) -> usize {
        self.n * std::mem::size_of::<u16>()
    }

    /// Materialise rows for a set of destinations (the plan-derived
    /// traffic matrix): demand-driven warming without waiting for the
    /// first message of each flow.
    pub fn warm<I: IntoIterator<Item = NodeId>>(&mut self, dsts: I) {
        for dst in dsts {
            if dst.index() >= self.n {
                continue;
            }
            if self.row_of[dst.index()] == NO_ROW {
                self.build_row(dst);
            } else {
                self.hits += 1;
            }
        }
    }

    /// Stage the hops of the path from `src` to `dst` onto the end of
    /// `out` — the simulator's per-message lookup, written straight into
    /// its hop buffer. Returns false, leaving `out` as it was, if there
    /// is no route; a self-path is zero hops.
    #[inline]
    pub fn hops_into(&mut self, src: NodeId, dst: NodeId, out: &mut Vec<Hop>) -> bool {
        let mark = out.len();
        self.route(
            src,
            dst,
            out,
            |out, a, b, l| out.push((a, b, l)),
            |out| out.truncate(mark),
        )
    }

    /// The one walk behind every lookup: `hop` reports each hop of the
    /// path from `src` to `dst` into `sink`, and `rewind` takes back what
    /// was reported — when there is no route (false), and when a stale
    /// row led to an avoided relay, before the walk restarts on the
    /// rebuilt row. No answer ever comes from a path the current avoid
    /// set forbids.
    #[inline]
    fn route<S: ?Sized>(
        &mut self,
        src: NodeId,
        dst: NodeId,
        sink: &mut S,
        hop: impl Fn(&mut S, NodeId, NodeId, LinkId),
        rewind: impl Fn(&mut S),
    ) -> bool {
        if src == dst {
            return true;
        }
        let n = self.n;
        let (fe, edges, avoided) = (&self.first_edge, &self.edges, &self.avoided);
        let entry = self.row_of[dst.index()];
        let r = if entry < STALE {
            self.hits += 1;
            entry as usize
        } else if entry == NO_ROW {
            self.build_row(dst)
        } else {
            let r = (entry & !STALE) as usize;
            // `avoiding` gives an avoided endpoint no route at all.
            let refused = !self.endpoints_ok && (avoided[src.index()] || avoided[dst.index()]);
            let walked = if refused {
                Walk::NoRoute
            } else {
                let row = &self.slab[r * n..][..n];
                walk::<true>(row, fe, edges, avoided, src, dst, |a, b, l| {
                    hop(sink, a, b, l)
                })
            };
            if walked != Walk::Crossed {
                // Unreachable before the set grew is unreachable after.
                self.hits += 1;
                if walked == Walk::NoRoute {
                    rewind(sink);
                }
                return walked == Walk::Found;
            }
            rewind(sink);
            self.healed += 1;
            self.row_of[dst.index()] = r as u32;
            self.fill_row(r, dst);
            r
        };
        let row = &self.slab[r * n..][..n];
        let (fe, edges, avoided) = (&self.first_edge, &self.edges, &self.avoided);
        let walked = walk::<false>(row, fe, edges, avoided, src, dst, |a, b, l| {
            hop(sink, a, b, l)
        });
        if walked != Walk::Found {
            rewind(sink);
        }
        walked == Walk::Found
    }

    /// Claim a slab row for `dst` — a fresh one while the budget admits
    /// it, else the next victim's, round-robin — and fill it. Returns
    /// the slab row.
    #[cold]
    fn build_row(&mut self, dst: NodeId) -> usize {
        self.misses += 1;
        let n = self.n;
        let r = if self.owner.len() < self.max_rows {
            if self.slab.len() == self.slab.capacity() {
                // Grow by doubling, but never past the budget.
                let target = (self.slab.len() * 2).clamp(n, self.max_rows * n);
                self.slab.reserve_exact(target - self.slab.len());
            }
            self.slab.resize(self.slab.len() + n, NONE);
            self.owner.push(dst);
            self.owner.len() - 1
        } else {
            let r = self.next_victim;
            self.next_victim = (r + 1) % self.max_rows;
            self.row_of[self.owner[r].index()] = NO_ROW;
            self.owner[r] = dst;
            self.evictions += 1;
            r
        };
        self.row_of[dst.index()] = r as u32;
        self.fill_row(r, dst);
        r
    }

    /// Fill slab row `r` for `dst` under the current avoid set: the exact
    /// BFS of `RoutingTable::build` restricted to one destination, with
    /// ascending-id neighbour order and avoided nodes either skipped
    /// (`avoiding`) or assigned a hop but never expanded
    /// (`avoiding_transit`). The row is its own visited set, and the
    /// search ends with the last markable node, not with the queue.
    fn fill_row(&mut self, r: usize, dst: NodeId) {
        let n = self.n;
        let row = &mut self.slab[r * n..(r + 1) * n];
        row.fill(NONE);
        if self.avoided[dst.index()] && !self.endpoints_ok {
            return;
        }
        let (first_edge, edges, back_slot) =
            (&self.first_edge[..], &self.edges[..], &self.back_slot[..]);
        let (avoided, endpoints_ok) = (&self.avoided[..n], self.endpoints_ok);
        let queue = &mut self.queue;
        let mut unmarked = self.markable;
        row[dst.index()] = 0; // Visited; restored below.
        queue.clear();
        queue.push(dst);
        let mut head = 0;
        'bfs: while let Some(&cur) = queue.get(head) {
            head += 1;
            let (lo, hi) = (
                first_edge[cur.index()] as usize,
                first_edge[cur.index() + 1] as usize,
            );
            for (&(nb, _), &back) in edges[lo..hi].iter().zip(&back_slot[lo..hi]) {
                if row[nb.index()] != NONE {
                    continue;
                }
                if avoided[nb.index()] {
                    if !endpoints_ok {
                        continue;
                    }
                    // May originate (gets a next hop), never relays.
                } else {
                    queue.push(nb);
                }
                row[nb.index()] = back;
                unmarked -= 1;
                if unmarked == 0 {
                    break 'bfs;
                }
            }
        }
        row[dst.index()] = NONE;
    }
}

impl Routes for DemandRoutes {
    fn path_and_links(&mut self, src: NodeId, dst: NodeId) -> Option<(&[NodeId], &[LinkId])> {
        let mut path = (
            std::mem::take(&mut self.path_nodes),
            std::mem::take(&mut self.path_links),
        );
        path.0.clear();
        path.1.clear();
        path.0.push(src);
        // Loopback does not traverse the network: `route` gives a
        // self-path zero hops even for avoided nodes (matches the table's
        // spans).
        let found = self.route(
            src,
            dst,
            &mut path,
            |(nodes, links), _, to, link| {
                nodes.push(to);
                links.push(link);
            },
            |(nodes, links)| {
                nodes.truncate(1);
                links.clear();
            },
        );
        (self.path_nodes, self.path_links) = path;
        found.then_some((&self.path_nodes[..], &self.path_links[..]))
    }

    fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slab.capacity() * size_of::<u16>()
            + self.row_of.capacity() * size_of::<u32>()
            + self.owner.capacity() * size_of::<NodeId>()
            + self.first_edge.capacity() * size_of::<u32>()
            + self.edges.capacity() * size_of::<(NodeId, LinkId)>()
            + self.back_slot.capacity() * size_of::<u16>()
            + self.avoided.capacity()
            + self.queue.capacity() * size_of::<NodeId>()
            + self.path_nodes.capacity() * size_of::<NodeId>()
            + self.path_links.capacity() * size_of::<LinkId>()
    }
}

/// The routing backend the simulator threads through its link layer:
/// precomputed all-pairs below the scale threshold, demand-driven rows
/// at or above it.
///
/// A world holds exactly one, in place: boxing the larger variant would
/// put a pointer chase on the per-message path to save bytes nobody
/// copies.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum RouteBackend {
    /// All-pairs table with fully materialised paths (small platforms).
    Precomputed(RoutingTable),
    /// Lazily-materialised slot rows (large platforms).
    Demand(DemandRoutes),
}

impl RouteBackend {
    /// Select the backend by node count (see
    /// `DEMAND_ROUTING_THRESHOLD`).
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

    /// (rows built, how many of those were heals of a stale row) since
    /// construction — what demand routing cost in BFS runs. The
    /// precomputed table builds no rows.
    pub fn rows_built(&self) -> (u64, u64) {
        match self {
            RouteBackend::Precomputed(_) => (0, 0),
            RouteBackend::Demand(d) => {
                let healed = d.heal_stats().1;
                (d.cache_stats().1 + healed, healed)
            }
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

    /// Stage the hops of the path from `src` to `dst` onto the end of
    /// `out`; false (and `out` untouched) if there is no route. One
    /// backend `match` per message, as [`Routes::path_and_links`] has.
    #[inline]
    pub(crate) fn hops_into(&mut self, src: NodeId, dst: NodeId, out: &mut Vec<Hop>) -> bool {
        match self {
            RouteBackend::Precomputed(rt) => match rt.path_and_links(src, dst) {
                Some((nodes, links)) => {
                    out.extend(nodes.windows(2).zip(links).map(|(w, &l)| (w[0], w[1], l)));
                    true
                }
                None => false,
            },
            RouteBackend::Demand(d) => d.hops_into(src, dst, out),
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
        let one_row = DemandRoutes::new(&t).row_bytes();
        let mut demand = DemandRoutes::with_budget(&t, one_row);
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
    fn evicted_row_is_rebuilt_after_set_avoid() {
        // Three slab rows over a ring of 8: destinations 0..5 churn them
        // round-robin, so 0, 1, 2 are evicted and 3, 4, 5 resident.
        let t = Topology::ring(8, 100, Duration(1));
        let row = DemandRoutes::new(&t).row_bytes();
        let mut d = DemandRoutes::with_budget(&t, 3 * row);
        for dst in 0..6u32 {
            assert!(d.path_and_links(NodeId(7), NodeId(dst)).is_some());
        }
        assert_eq!((d.cached_rows(), d.cache_stats().2), (3, 3));
        // Heal around n1, then ask for an evicted destination, a resident
        // one, and churn past the budget again: the resident rows stay,
        // stale, and the `dst → slab row` map and the rows' owners stay
        // one-to-one through heals in place and takeovers alike, so every
        // answer is the healed table's.
        let avoid = BTreeSet::from([NodeId(1)]);
        d.set_avoid(&avoid, true);
        assert_eq!((d.cached_rows(), d.heal_stats()), (3, (3, 0)));
        let table = RoutingTable::avoiding_transit(&t, &avoid);
        for dst in [0u32, 4, 2, 6, 0, 5, 4] {
            let expect = table
                .path_and_links(NodeId(3), NodeId(dst))
                .map(|(p, l)| (p.to_vec(), l.to_vec()));
            let got = d
                .path_and_links(NodeId(3), NodeId(dst))
                .map(|(p, l)| (p.to_vec(), l.to_vec()));
            assert_eq!(expect, got, "3 -> {dst} after heal");
            for (r, owner) in d.owner.iter().enumerate() {
                assert_eq!(d.row_of[owner.index()] & !STALE, r as u32);
            }
            let mapped = d.row_of.iter().filter(|&&r| r != NO_ROW).count();
            assert_eq!(mapped, d.cached_rows());
        }
        assert_eq!(d.cached_rows(), 3);
        paths_match(&table, &mut d, 8, "post-heal under eviction");
    }

    #[test]
    fn hops_into_appends_or_leaves_untouched() {
        let t = Topology::ring(6, 100, Duration(1));
        let mut d = DemandRoutes::avoiding(&t, &BTreeSet::from([NodeId(1)]));
        let mut hops = vec![(NodeId(9), NodeId(9), LinkId(9))];
        assert!(d.hops_into(NodeId(0), NodeId(2), &mut hops));
        let via: Vec<u32> = hops[1..].iter().map(|h| h.1 .0).collect();
        assert_eq!(via, [5, 4, 3, 2]);
        for &(a, b, link) in &hops[1..] {
            assert_eq!(t.link_between(a, b), Some(link));
        }
        // No route to an avoided node, and a self-path is zero hops.
        let len = hops.len();
        assert!(!d.hops_into(NodeId(0), NodeId(1), &mut hops));
        assert!(d.hops_into(NodeId(4), NodeId(4), &mut hops));
        assert_eq!(hops.len(), len);
        // Both backends stage the same hops.
        let mut pre =
            RouteBackend::Precomputed(RoutingTable::avoiding(&t, &BTreeSet::from([NodeId(1)])));
        let mut staged = Vec::new();
        assert!(pre.hops_into(NodeId(0), NodeId(2), &mut staged));
        assert_eq!(staged, hops[1..]);
        assert!(!pre.hops_into(NodeId(0), NodeId(1), &mut staged));
    }

    #[test]
    #[should_panic(expected = "n7 has 65534 neighbours")]
    fn slot_width_is_checked() {
        check_degree(NodeId(7), MAX_DEGREE);
        check_degree(NodeId(7), MAX_DEGREE + 1);
    }

    #[test]
    fn set_avoid_invalidates_rows() {
        let t = Topology::ring(6, 100, Duration(1));
        let mut d = DemandRoutes::new(&t);
        assert!(d.path_and_links(NodeId(0), NodeId(2)).is_some());
        assert!(d.path_and_links(NodeId(0), NodeId(5)).is_some());
        assert_eq!(d.cached_rows(), 2);
        let avoid = BTreeSet::from([NodeId(1)]);
        d.set_avoid(&avoid, true);
        // Both rows are still resident, but no answer predates the crash:
        // the walk to n2 met n1 and healed its row the long way round, the
        // one to n5 never came near it and was served as it stood.
        assert_eq!((d.cached_rows(), d.heal_stats()), (2, (2, 0)));
        let table = RoutingTable::avoiding_transit(&t, &avoid);
        let owned = |p: Option<(&[NodeId], &[LinkId])>| p.map(|(p, l)| (p.to_vec(), l.to_vec()));
        for dst in [2, 5] {
            assert_eq!(
                owned(d.path_and_links(NodeId(0), NodeId(dst))),
                owned(table.path_and_links(NodeId(0), NodeId(dst))),
            );
        }
        assert_eq!(d.heal_stats(), (2, 1));
        // A heal is a rebuild in place: not a miss, not an eviction.
        assert_eq!(d.cache_stats(), (1, 2, 0));
        paths_match(&table, &mut d, 6, "post-heal");
        // Re-installing the same set changes nothing.
        let before = (d.cached_rows(), d.cache_stats(), d.heal_stats());
        d.set_avoid(&avoid, true);
        assert_eq!((d.cached_rows(), d.cache_stats(), d.heal_stats()), before);
    }

    #[test]
    fn shrinking_or_flipped_avoid_set_forgets() {
        let t = Topology::ring(6, 100, Duration(1));
        let one = BTreeSet::from([NodeId(1)]);
        let two = BTreeSet::from([NodeId(1), NodeId(4)]);
        let mut d = DemandRoutes::avoiding_transit(&t, &two);
        d.warm((0..6).map(NodeId));
        // A node came back: rows built around it know nothing shorter.
        d.set_avoid(&one, true);
        assert_eq!((d.cached_rows(), d.heal_stats()), (0, (0, 0)));
        paths_match(
            &RoutingTable::avoiding_transit(&t, &one),
            &mut d,
            6,
            "shrunk",
        );
        // Same set, other semantics: an avoided endpoint lost its routes.
        d.set_avoid(&one, false);
        assert_eq!(d.cached_rows(), 0);
        paths_match(&RoutingTable::avoiding(&t, &one), &mut d, 6, "flipped");
        // Growth under `avoiding` keeps the rows and refuses the new
        // endpoint without rebuilding anything.
        d.set_avoid(&two, false);
        assert_eq!((d.cached_rows(), d.heal_stats()), (6, (6, 0)));
        assert!(d.path_and_links(NodeId(4), NodeId(3)).is_none());
        assert!(d.path_and_links(NodeId(3), NodeId(4)).is_none());
        assert_eq!(d.heal_stats(), (6, 0));
        paths_match(&RoutingTable::avoiding(&t, &two), &mut d, 6, "regrown");
    }

    #[test]
    fn evicted_stale_row_comes_back_fresh() {
        // One slab row over a ring of 8: n2's row goes stale with the
        // crash of n1, is taken over by n6's, and is built anew when n2
        // is asked for again — fresh, with nothing left to heal.
        let t = Topology::ring(8, 100, Duration(1));
        let row = DemandRoutes::new(&t).row_bytes();
        let mut d = DemandRoutes::with_budget(&t, row);
        assert!(d.path_and_links(NodeId(0), NodeId(2)).is_some());
        let avoid = BTreeSet::from([NodeId(1)]);
        d.set_avoid(&avoid, true);
        assert_eq!(d.row_of[2], STALE);
        assert!(d.path_and_links(NodeId(0), NodeId(6)).is_some());
        assert_eq!((d.row_of[2], d.row_of[6]), (NO_ROW, 0));
        let (nodes, _) = d.path_and_links(NodeId(0), NodeId(2)).expect("heals");
        let via: Vec<u32> = nodes.iter().map(|n| n.0).collect();
        assert_eq!(via, [0, 7, 6, 5, 4, 3, 2]);
        assert_eq!((d.row_of[2], d.row_of[6]), (0, NO_ROW));
        assert_eq!((d.heal_stats(), d.cache_stats()), ((1, 0), (0, 3, 2)));
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
        let row = DemandRoutes::new(&t).row_bytes();
        let mut d = DemandRoutes::with_budget(&t, 8 * row);
        for dst in 0..200u32 {
            d.path_and_links(NodeId(0), NodeId(dst));
        }
        assert_eq!(d.cached_rows(), 8);
        // The slab never outgrows the budget, whatever the doubling did.
        assert_eq!(d.slab.capacity() * 2, 8 * row);
        assert!(d.resident_bytes() < 8 * row + (16 << 10));
        // Every row of a 100-node torus warm is 26 712 bytes; the
        // all-pairs table there holds 724 288 and grows quadratically.
        let t = btr_model::topology::torus(10, 10, 100, Duration(1)).expect("10x10 builds");
        let mut d = DemandRoutes::new(&t);
        d.warm((0..100).map(NodeId));
        assert_eq!(d.cached_rows(), 100);
        let table = RoutingTable::new(&t).resident_bytes();
        assert!(
            d.resident_bytes() < (64 << 10).min(table / 4),
            "{} demand bytes against the table's {table}",
            d.resident_bytes()
        );
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
