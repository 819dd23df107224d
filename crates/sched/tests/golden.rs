//! Golden syntheses: `synthesize`'s output where only the baselines
//! reach it.
//!
//! The planner's goldens (`crates/planner/tests/golden.rs`) hold
//! `synthesize` to the placements `place` produces, always with
//! `consume_all_lanes` off and every node at nominal speed. The voting
//! baselines and `harness e3` call it on `round_robin_placement` with
//! every lane consumed and the global speed swept; these constants pin
//! that side — an FNV-1a digest of the `Synthesis`'s `Debug` rendering —
//! and the exact text of one bandwidth and one deadline error.
//!
//! To regenerate after an *intended* behaviour change:
//! `GOLDEN_PRINT=1 cargo test -p btr-sched --test golden -- --nocapture`.

use btr_model::{Duration, TaskId, Topology};
use btr_net::RoutingTable;
use btr_sched::{round_robin_placement, synthesize, SchedParams};
use btr_workload::{generators, TaskKind, Workload};
use std::collections::BTreeMap;

/// FNV-1a, 64 bit (as in the planner's goldens).
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Two lanes of everything but the sinks, so every replicated task has
/// a checker and lane 1 of a consumer reads lane 1 of its producers.
fn two_lanes(w: &Workload) -> BTreeMap<TaskId, u8> {
    w.tasks()
        .iter()
        .map(|t| {
            (
                t.id,
                if matches!(t.kind, TaskKind::Sink { .. }) {
                    1
                } else {
                    2
                },
            )
        })
        .collect()
}

/// The synthesis (or error text) for avionics on `topo`, round-robin
/// placed, as one line.
fn render(topo: &Topology, params: &SchedParams) -> String {
    let w = generators::avionics(topo.node_count());
    let routing = RoutingTable::new(topo);
    let lanes = two_lanes(&w);
    let placement = round_robin_placement(&w, topo, &lanes, &[]);
    match synthesize(&w, topo, &routing, &placement, &lanes, params) {
        Ok(synth) => format!("{:#018x}", fnv1a(&format!("{synth:?}"))),
        Err(e) => e.to_string(),
    }
}

fn check(name: &str, topo: &Topology, params: &SchedParams, expect: &str) {
    let got = render(topo, params);
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("{name}: {got:?}");
        return;
    }
    assert_eq!(got, expect, "{name}");
}

#[test]
fn round_robin_syntheses() {
    let lat = Duration(5);
    let platforms = [
        ("ring9", Topology::ring(9, 150_000, lat)),
        ("mesh3x4", Topology::mesh(3, 4, 150_000, lat)),
    ];
    let expect = [
        // ring9: (all lanes off, on) × speed (60, 100).
        [
            "0xe22383b2f8275854",
            "0xb4e483be3697b3f6",
            "0xa3a19d90ad535fc2",
            "0x027fe11685f197e0",
        ],
        // mesh3x4.
        [
            "0x4ba90e8d61c42e66",
            "0x2d7e2ea691edc4d6",
            "0x8e04f5feb1987a76",
            "0xb4dca2a60de65baf",
        ],
    ];
    for ((name, topo), row) in platforms.iter().zip(expect) {
        let mut cell = row.into_iter();
        for consume_all_lanes in [false, true] {
            for speed_pct in [60, 100] {
                let params = SchedParams {
                    speed_pct,
                    consume_all_lanes,
                    ..SchedParams::default()
                };
                check(
                    &format!("{name} all_lanes={consume_all_lanes} speed={speed_pct}"),
                    topo,
                    &params,
                    cell.next().expect("four cells a platform"),
                );
            }
        }
    }
}

#[test]
fn error_texts() {
    let lat = Duration(5);
    // Voting with all but a thousandth of every share reserved for
    // control traffic: timing is untouched, the first link overflows. n0's
    // demand is what it originates; what it relays is its originators'.
    check(
        "bandwidth",
        &Topology::ring(9, 150_000, lat),
        &SchedParams {
            consume_all_lanes: true,
            control_reserve_frac: 0.999,
            ..SchedParams::default()
        },
        "n0 needs 1040 B/period, share is 750",
    );
    // A quarter-speed clock: a sink's primary lane finishes late.
    check(
        "deadline",
        &Topology::mesh(3, 4, 150_000, lat),
        &SchedParams {
            speed_pct: 25,
            ..SchedParams::default()
        },
        "t7 finishes at 10.696ms after deadline 8.000ms",
    );
}
