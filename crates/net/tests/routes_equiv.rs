//! Property tests: the demand-driven routing backend is bit-identical
//! to the precomputed all-pairs table — same paths, same per-hop links,
//! same `avoiding` and `avoiding_transit` semantics — on every platform
//! family the experiments use, up to 32 nodes, plus exhaustive cases on
//! the shapes that stress the row encoding: a bus whose degree is past a
//! byte, and parallel links between the same endpoints.
//!
//! This is the contract that lets `RouteBackend::auto` switch backends
//! by node count without changing a single simulation bit.
//!
//! The second half holds a `DemandRoutes` that *lived through* crashes —
//! rows kept stale across growing avoid sets, healed one at a time — to
//! a fresh one built for the final set: same answer on every pair,
//! through both lookups.
//!
//! A third input is the planner's: `RoutingTable::avoiding_from`, the
//! fault-free table with the routes through an avoid set patched out.
//! Wherever `avoiding` is the reference it must agree, and on the
//! planner's golden platforms and a torus it is held to a fresh
//! `avoiding` table for every avoid set of up to two nodes.

use btr_model::topology::{fat_tree, torus, torus_dims};
use btr_model::{Duration, LinkId, NodeId, Topology};
use btr_net::{DemandRoutes, Hop, Routes, RoutingTable};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Build one of the four platform families at (roughly) `n` nodes.
fn family(which: u8, n: usize) -> Topology {
    match which % 4 {
        0 => Topology::bus(n.max(2), 100, Duration(3)),
        1 => Topology::ring(n.max(3), 100, Duration(3)),
        2 => {
            let rows = (n.max(4) as f64).sqrt() as usize;
            let cols = n.max(4).div_ceil(rows);
            Topology::mesh(rows, cols, 100, Duration(3))
        }
        _ => {
            let (rows, cols) = torus_dims(n.max(4));
            torus(rows, cols, 100, Duration(3)).expect("n >= 4 builds")
        }
    }
}

fn assert_equivalent(topo: &Topology, avoid: &BTreeSet<NodeId>, transit: bool, ctx: &str) {
    let table = if transit {
        RoutingTable::avoiding_transit(topo, avoid)
    } else {
        RoutingTable::avoiding(topo, avoid)
    };
    let mut demand = if transit {
        DemandRoutes::avoiding_transit(topo, avoid)
    } else {
        DemandRoutes::avoiding(topo, avoid)
    };
    let n = topo.node_count() as u32;
    for s in 0..n {
        for d in 0..n {
            let expect = table
                .path_and_links(NodeId(s), NodeId(d))
                .map(|(p, l)| (p.to_vec(), l.to_vec()));
            let got = demand
                .path_and_links(NodeId(s), NodeId(d))
                .map(|(p, l)| (p.to_vec(), l.to_vec()));
            assert_eq!(expect, got, "{ctx}: pair {s}->{d}");
        }
    }
    if !transit {
        let derived = RoutingTable::avoiding_from(topo, &RoutingTable::new(topo), avoid);
        assert_derived_matches(topo, &derived, &table, avoid, ctx);
    }
}

/// A table derived by `avoiding_from` against a fresh `avoiding` table
/// for the same set: every pair's path, links and next hop, and whether
/// the survivors stay connected.
fn assert_derived_matches(
    topo: &Topology,
    derived: &RoutingTable,
    fresh: &RoutingTable,
    avoid: &BTreeSet<NodeId>,
    ctx: &str,
) {
    let n = topo.node_count() as u32;
    for s in (0..n).map(NodeId) {
        for d in (0..n).map(NodeId) {
            assert_eq!(
                derived.path_and_links(s, d),
                fresh.path_and_links(s, d),
                "{ctx}: derived path {s}->{d}"
            );
            assert_eq!(
                derived.next_hop(s, d),
                fresh.next_hop(s, d),
                "{ctx}: derived next hop {s}->{d}"
            );
        }
    }
    assert_eq!(
        derived.fully_connected(avoid),
        fresh.fully_connected(avoid),
        "{ctx}: derived connectivity"
    );
}

type OwnedPath = Option<(Vec<NodeId>, Vec<LinkId>)>;

fn via_path_and_links(d: &mut DemandRoutes, s: NodeId, t: NodeId) -> OwnedPath {
    d.path_and_links(s, t)
        .map(|(p, l)| (p.to_vec(), l.to_vec()))
}

/// The same answer through the simulator's lookup. The buffer arrives
/// holding a sentinel hop, which must survive whatever the walk does.
fn via_hops_into(d: &mut DemandRoutes, s: NodeId, t: NodeId, buf: &mut Vec<Hop>) -> OwnedPath {
    buf.truncate(1);
    let found = d.hops_into(s, t, buf);
    assert_eq!(buf[0], SENTINEL, "{s}->{t}: staged hops were clobbered");
    if !found {
        assert_eq!(buf.len(), 1, "{s}->{t}: no route, yet hops were left");
        return None;
    }
    let mut nodes = vec![s];
    nodes.extend(buf[1..].iter().map(|h| h.1));
    Some((nodes, buf[1..].iter().map(|h| h.2).collect()))
}

const SENTINEL: Hop = (NodeId(u32::MAX), NodeId(u32::MAX), LinkId(u32::MAX));

/// Every pair of `survivor`, through both lookups, against `fresh`. Each
/// lookup gets its own copy, so both meet the stale rows as they are.
fn assert_survivor_matches(survivor: &DemandRoutes, fresh: &mut DemandRoutes, n: u32, ctx: &str) {
    let (mut by_hops, mut by_path) = (survivor.clone(), survivor.clone());
    let mut buf = vec![SENTINEL];
    for s in (0..n).map(NodeId) {
        for t in (0..n).map(NodeId) {
            let expect = via_path_and_links(fresh, s, t);
            assert_eq!(
                via_hops_into(&mut by_hops, s, t, &mut buf),
                expect,
                "{ctx}: hops_into {s}->{t}"
            );
            assert_eq!(
                via_path_and_links(&mut by_path, s, t),
                expect,
                "{ctx}: path_and_links {s}->{t}"
            );
        }
    }
}

/// The families a crash can reroute on: ring, mesh, torus, fat-tree
/// (dual-homed hosts), dual bus.
fn healing_family(which: u8, n: usize) -> Topology {
    match which % 5 {
        0 => Topology::ring(n.max(3), 100, Duration(3)),
        1 | 2 => family(which + 1, n),
        3 => fat_tree(4, n % 5, 100, Duration(3)).expect("k = 4 builds"),
        _ => Topology::dual_bus(n.max(2), 100, Duration(3)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rows outlive crashes: one `DemandRoutes` sees up to four nodes
    /// join the avoid set one at a time, with random lookups in between
    /// (so some rows heal early, some go stale twice, and under a small
    /// budget some are taken over while stale), and after every crash it
    /// equals a fresh `avoiding_transit` / `avoiding` build on every pair.
    #[test]
    fn prop_rows_that_outlive_crashes_match_fresh(
        which in 0u8..5,
        n in 6usize..=30,
        crashes in proptest::collection::vec(0u32..64, 1..=4),
        mode in 0u8..4,
        seed in 0u64..1000,
    ) {
        let (transit, tight) = (mode & 1 == 1, mode & 2 == 2);
        let topo = healing_family(which, n);
        let n_nodes = topo.node_count() as u32;
        let budget = DemandRoutes::new(&topo).row_bytes() * if tight { 3 } else { n_nodes as usize };
        let mut survivor = DemandRoutes::with_budget(&topo, budget);
        let mut avoid = BTreeSet::new();
        let mut x = seed + 1;
        let mut buf = vec![SENTINEL];
        for step in 0..=crashes.len() {
            if step > 0 {
                avoid.insert(NodeId(crashes[step - 1] % n_nodes));
                survivor.set_avoid(&avoid, transit);
            }
            let mut fresh = if transit {
                DemandRoutes::avoiding_transit(&topo, &avoid)
            } else {
                DemandRoutes::avoiding(&topo, &avoid)
            };
            for i in 0..n_nodes {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let s = NodeId((x >> 33) as u32 % n_nodes);
                let t = NodeId((x >> 17) as u32 % n_nodes);
                let got = if i % 2 == 0 {
                    via_hops_into(&mut survivor, s, t, &mut buf)
                } else {
                    via_path_and_links(&mut survivor, s, t)
                };
                prop_assert_eq!(got, via_path_and_links(&mut fresh, s, t));
            }
            let ctx = format!("fam{which} n{n} avoid{avoid:?} transit={transit} tight={tight}");
            assert_survivor_matches(&survivor, &mut fresh, n_nodes, &ctx);
        }
    }

    /// Full-topology routing: every pair's path and per-hop links agree
    /// on bus, ring, mesh, and torus platforms up to 32 nodes.
    #[test]
    fn prop_demand_matches_table(which in 0u8..4, n in 2usize..=32) {
        let topo = family(which, n);
        assert_equivalent(&topo, &BTreeSet::new(), false, &format!("fam{which} n{n}"));
    }

    /// `avoiding` (planner semantics: avoided nodes neither originate
    /// nor relay) agrees for arbitrary avoid sets.
    #[test]
    fn prop_demand_matches_table_avoiding(
        which in 0u8..4,
        n in 4usize..=32,
        avoid_raw in proptest::collection::btree_set(0u32..32, 0..4),
    ) {
        let topo = family(which, n);
        let n_nodes = topo.node_count() as u32;
        let avoid: BTreeSet<NodeId> =
            avoid_raw.iter().map(|&a| NodeId(a % n_nodes)).collect();
        assert_equivalent(&topo, &avoid, false, &format!("fam{which} n{n} avoid{avoid:?}"));
    }

    /// `avoiding_transit` (link-layer crash semantics: avoided nodes may
    /// originate/terminate but never relay) agrees for arbitrary avoid
    /// sets — the path the simulator's crash healing exercises.
    #[test]
    fn prop_demand_matches_table_avoiding_transit(
        which in 0u8..4,
        n in 4usize..=32,
        avoid_raw in proptest::collection::btree_set(0u32..32, 0..4),
    ) {
        let topo = family(which, n);
        let n_nodes = topo.node_count() as u32;
        let avoid: BTreeSet<NodeId> =
            avoid_raw.iter().map(|&a| NodeId(a % n_nodes)).collect();
        assert_equivalent(&topo, &avoid, true, &format!("fam{which} n{n} avoid{avoid:?}"));
    }

    /// Equivalence survives eviction churn: with a one-row budget every
    /// query rebuilds its row, and results still match the table.
    #[test]
    fn prop_equivalence_under_eviction(n in 4usize..=24, seed in 0u32..1000) {
        let (rows, cols) = torus_dims(n);
        let topo = torus(rows, cols, 100, Duration(3)).expect("n >= 4 builds");
        let table = RoutingTable::new(&topo);
        let n_nodes = topo.node_count() as u32;
        let one_row = DemandRoutes::new(&topo).row_bytes();
        let mut demand = DemandRoutes::with_budget(&topo, one_row);
        // A seed-scrambled probe order (not all pairs in order) so the
        // one slot changes hands in a varied pattern.
        let mut x = seed as u64 + 1;
        for _ in 0..64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let s = NodeId((x >> 33) as u32 % n_nodes);
            let d = NodeId((x >> 17) as u32 % n_nodes);
            let expect = table.path_and_links(s, d).map(|(p, l)| (p.to_vec(), l.to_vec()));
            let got = demand.path_and_links(s, d).map(|(p, l)| (p.to_vec(), l.to_vec()));
            prop_assert_eq!(expect, got);
        }
        prop_assert!(demand.cached_rows() <= 1);
    }
}

/// The dual-bus family has parallel links between the same endpoints;
/// lowest-link-id selection must agree (exhaustive, not property-based,
/// since the family has one shape).
#[test]
fn dual_bus_parallel_links_agree() {
    let topo = Topology::dual_bus(6, 100, Duration(2));
    assert_equivalent(&topo, &BTreeSet::new(), false, "dual-bus");
    let avoid = BTreeSet::from([NodeId(2)]);
    assert_equivalent(&topo, &avoid, true, "dual-bus avoid");
    // Every pair shares both buses: each slot must resolve to the lower.
    let mut demand = DemandRoutes::avoiding_transit(&topo, &avoid);
    let (lo, hi) = (topo.links()[0].id, topo.links()[1].id);
    assert!(lo < hi);
    for s in 0..6 {
        for d in (0..6).filter(|&d| d != s) {
            let (_, links) = demand
                .path_and_links(NodeId(s), NodeId(d))
                .expect("one hop");
            assert_eq!(links, [lo], "{s}->{d}");
        }
    }
    let both = BTreeSet::from([NodeId(0), NodeId(5)]);
    assert_equivalent(&topo, &both, true, "dual-bus transit-avoid two");
    assert_equivalent(&topo, &both, false, "dual-bus avoid two");
}

/// A 300-node bus: every node has 299 neighbours, so slots run past
/// what a byte holds, and slot k of node v is node k (k < v) or k + 1.
/// Exhaustive over all 90 000 pairs, plain and under both avoid modes.
#[test]
fn high_degree_bus_slots_agree() {
    let topo = Topology::bus(300, 100, Duration(2));
    assert_eq!(topo.neighbors(NodeId(299)).len(), 299);
    assert_equivalent(&topo, &BTreeSet::new(), false, "bus300");
    let avoid = BTreeSet::from([NodeId(0), NodeId(257), NodeId(299)]);
    assert_equivalent(&topo, &avoid, true, "bus300 transit-avoid");
    assert_equivalent(&topo, &avoid, false, "bus300 avoid");
}

/// The crash the benchmark's torus workload scripts, exhaustively: all
/// 1000 rows warm, n1 dies, and every one of the million pairs is asked
/// of the rows that lived through it. Asked for everything, nearly every
/// row has *some* source behind the dead relay; the workload's own
/// traffic (each node to its +1, +7, +13 and +500 peers) crosses it on
/// few rows, so few are rebuilt — the planner's rule that extra
/// reassignments only prolong recovery, applied to the simulator's own
/// routing.
#[test]
fn torus1000_crash_heals_only_rows_it_crosses() {
    let topo = torus(25, 40, 100, Duration(3)).expect("25x40 is a valid torus");
    let mut survivor = DemandRoutes::new(&topo);
    survivor.warm((0..1000).map(NodeId));
    let avoid = BTreeSet::from([NodeId(1)]);
    survivor.set_avoid(&avoid, true);
    assert_eq!(survivor.heal_stats(), (1000, 0));
    let mut buf = vec![SENTINEL];
    let mut workload = survivor.clone();
    for s in 0..1000u32 {
        for stride in [1, 7, 13, 500] {
            workload.hops_into(NodeId(s), NodeId((s + stride) % 1000), &mut buf);
        }
    }
    let healed = workload.heal_stats().1;
    assert!(
        (1..150).contains(&healed),
        "{healed} of 1000 rows rebuilt for one dead relay"
    );
    let mut fresh = DemandRoutes::avoiding_transit(&topo, &avoid);
    for s in (0..1000).map(NodeId) {
        for t in (0..1000).map(NodeId) {
            let expect = fresh.path_and_links(s, t);
            let expect = expect.map(|(p, l)| (&p[1..], l));
            buf.truncate(1);
            let got = survivor.hops_into(s, t, &mut buf).then_some(&buf[1..]);
            let same = match (got, expect) {
                (Some(hops), Some((nodes, links))) => {
                    hops.iter().map(|h| h.1).eq(nodes.iter().copied())
                        && hops.iter().map(|h| h.2).eq(links.iter().copied())
                }
                (None, None) => true,
                _ => false,
            };
            assert!(same, "{s}->{t}: {got:?} != {expect:?}");
        }
    }
    let (kept, healed_by_all) = survivor.heal_stats();
    assert_eq!(kept, 1000);
    assert!(healed_by_all >= healed && healed_by_all <= 1000);
    assert_eq!(survivor.cache_stats().1, 1000, "a heal is not a miss");
}

/// The platforms of the planner's golden strategies, and a torus: every
/// avoid set of up to two nodes, derived from the one fault-free table,
/// equals a fresh `avoiding` build. Where every route is one hop (a bus,
/// a dual bus) nothing is relayed and nothing is searched again; a ring,
/// a mesh, a torus or a fat-tree searches some destinations again.
#[test]
fn derived_tables_match_fresh_on_planner_platforms() {
    let lat = Duration(5);
    let mut mixed = btr_model::TopologyBuilder::new();
    let nodes: Vec<NodeId> = [50, 100, 200, 100, 50, 200]
        .into_iter()
        .enumerate()
        .map(|(i, speed_pct)| mixed.node(speed_pct, i == 0 || i == 4, true))
        .collect();
    mixed.link(&nodes, 150_000, lat);
    let platforms = [
        ("bus20", Topology::bus(20, 150_000, lat)),
        ("bus36", Topology::bus(36, 150_000, lat)),
        ("ring12", Topology::ring(12, 150_000, lat)),
        ("mesh3x4", Topology::mesh(3, 4, 150_000, lat)),
        ("dual_bus6", Topology::dual_bus(6, 150_000, lat)),
        ("bus5", Topology::bus(5, 20_000, lat)),
        (
            "fat_tree4",
            fat_tree(4, 3, 150_000, lat).expect("k = 4 builds"),
        ),
        ("mixed6", mixed.build().expect("one shared link builds")),
        (
            "torus5x6",
            torus(5, 6, 150_000, lat).expect("5x6 is a valid torus"),
        ),
    ];
    for (name, topo) in &platforms {
        let n = topo.node_count() as u32;
        let base = RoutingTable::new(topo);
        assert_eq!(base.searched(), n as usize, "{name}");
        let singles = (0..n).map(|x| BTreeSet::from([NodeId(x)]));
        let pairs =
            (0..n).flat_map(|x| (x + 1..n).map(move |y| BTreeSet::from([NodeId(x), NodeId(y)])));
        let mut searched_again = 0;
        for avoid in std::iter::once(BTreeSet::new()).chain(singles).chain(pairs) {
            let derived = RoutingTable::avoiding_from(topo, &base, &avoid);
            let fresh = RoutingTable::avoiding(topo, &avoid);
            assert_derived_matches(
                topo,
                &derived,
                &fresh,
                &avoid,
                &format!("{name} avoid{avoid:?}"),
            );
            searched_again += derived.searched();
        }
        let one_hop = (0..n).all(|s| (0..n).all(|d| base.hops(NodeId(s), NodeId(d)) <= Some(1)));
        assert_eq!(
            one_hop,
            searched_again == 0,
            "{name}: {searched_again} searched again"
        );
    }
}
