//! The adjacency a `Topology` owns equals the brute force it replaced.
//!
//! `Topology::neighbors` used to collect co-endpoints into a fresh set
//! and `Topology::link_between` to scan the link list; both now read
//! the adjacency `TopologyBuilder::build` computes once. Every graph
//! walk in the workspace goes through it, so it is held here to the
//! definition — for every constructor and platform family of `btr-model`,
//! including the dual bus, whose two links attach every pair.

use btr_model::topology::{fat_tree, scada_star, torus};
use btr_model::{Duration, LinkId, NodeId, Topology, TopologyBuilder};
use std::collections::BTreeSet;

fn assert_matches_brute_force(name: &str, t: &Topology) {
    let n = t.node_count() as u32;
    for a in (0..n).map(NodeId) {
        // Ascending, deduplicated co-endpoints.
        let expect: BTreeSet<NodeId> = t
            .links_of(a)
            .iter()
            .flat_map(|&l| t.link(l).endpoints.iter().copied())
            .filter(|&m| m != a)
            .collect();
        let got: Vec<NodeId> = t.neighbors(a).iter().map(|&(m, _)| m).collect();
        assert_eq!(
            got,
            expect.iter().copied().collect::<Vec<_>>(),
            "{name}: neighbours of {a}"
        );
        for b in (0..n).map(NodeId) {
            // Lowest-id link attaching both; nothing links a node to itself.
            let lowest: Option<LinkId> = t
                .links()
                .iter()
                .find(|l| a != b && l.attaches(a) && l.attaches(b))
                .map(|l| l.id);
            assert_eq!(t.link_between(a, b), lowest, "{name}: link {a} - {b}");
            let in_row = t.neighbors(a).iter().find(|&&(m, _)| m == b);
            assert_eq!(in_row.map(|&(_, l)| l), lowest, "{name}: row {a} - {b}");
        }
    }
}

#[test]
fn adjacency_matches_brute_force_on_every_constructor() {
    let lat = Duration(3);
    let mut overlapping = TopologyBuilder::new();
    let ids: Vec<NodeId> = (0..6).map(|_| overlapping.full_node()).collect();
    // A p2p link listed before the bus that also attaches its pair, and
    // a second bus sharing two nodes with the first.
    overlapping.link(&[ids[1], ids[2]], 100, lat);
    overlapping.link(&ids[..4], 100, lat);
    overlapping.link(&[ids[5], ids[3], ids[2], ids[4]], 100, lat);

    let cases: Vec<(&str, Topology)> = vec![
        ("bus(1)", Topology::bus(1, 100, lat)),
        ("bus(7)", Topology::bus(7, 100, lat)),
        ("ring(3)", Topology::ring(3, 100, lat)),
        ("ring(9)", Topology::ring(9, 100, lat)),
        ("dual_bus(6)", Topology::dual_bus(6, 100, lat)),
        ("mesh(3,4)", Topology::mesh(3, 4, 100, lat)),
        ("overlapping buses", overlapping.build().unwrap()),
        ("torus(4,5)", torus(4, 5, 100, lat).unwrap()),
        ("torus(2,4)", torus(2, 4, 100, lat).unwrap()),
        ("torus(1,6)", torus(1, 6, 100, lat).unwrap()),
        ("fat_tree(4)", fat_tree(4, 0, 100, lat).unwrap()),
        ("fat_tree(4)+5", fat_tree(4, 5, 100, lat).unwrap()),
        ("scada_star(43)", scada_star(43, 100, lat).unwrap()),
    ];
    for (name, t) in &cases {
        assert_matches_brute_force(name, t);
    }
    // The dual bus is the case where "lowest id" decides.
    let dual = Topology::dual_bus(6, 100, lat);
    assert_eq!(dual.link_between(NodeId(2), NodeId(5)), Some(LinkId(0)));
}
