//! Golden strategies: the planner's output, frozen.
//!
//! `build_strategy` is deterministic, and everything downstream (the
//! campaign's `runs_digest`, the fuzzer baseline) hangs off the exact
//! `Strategy` it returns. These constants pin that value — a digest of
//! its `Debug` rendering plus the full `StrategyStats` — and the exact
//! text of the error a strict admission returns, on every platform
//! family the planner is exercised on, including the shed-and-retry
//! path, masking lane counts, both placement ablations, and a bus with
//! two sensors and mixed node speeds. Planner-internal changes (how often a routing table is built,
//! where transitions are derived) must leave every constant untouched.
//!
//! To regenerate after an *intended* behaviour change:
//! `GOLDEN_PRINT=1 cargo test -p btr-planner --test golden -- --nocapture`.

use btr_model::{Duration, Topology, TopologyBuilder};
use btr_planner::{
    build_strategy, PlannerConfig, ReplicationMode, ShedPolicy, StrategyStats, DETECT_MARGIN,
};
use btr_workload::{generators, Workload};

/// FNV-1a, 64 bit: a digest with a fixed definition (std's hashers
/// promise no stability across releases).
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn platform(name: &str) -> (Topology, u8) {
    let lat = Duration(5);
    match name {
        "bus20" => (Topology::bus(20, 150_000, lat), 2),
        "bus36" => (Topology::bus(36, 150_000, lat), 1),
        "ring12" => (Topology::ring(12, 150_000, lat), 2),
        "mesh3x4" => (Topology::mesh(3, 4, 150_000, lat), 2),
        "dual_bus6" => (Topology::dual_bus(6, 150_000, lat), 3),
        // Overloaded: too little bandwidth for the full workload, so
        // most modes go through shed-and-retry.
        "bus5_overloaded" => (Topology::bus(5, 20_000, lat), 2),
        // The campaign's largest cell shape: 36 fabric nodes plus three
        // extra dual-homed hosts.
        "fat_tree4" => (
            btr_model::topology::fat_tree(4, 3, 150_000, lat).expect("valid fat-tree"),
            1,
        ),
        "bus6_mixed" => (bus6_mixed(), 2),
        other => panic!("unknown platform {other}"),
    }
}

/// A six-node bus with two sensing nodes (n0, n4) and node speeds of
/// 50 / 100 / 200 %: source lanes are capped at the healthy sensor
/// count, the mode {n0, n4} has no sensor at all, and every WCET is
/// scaled by its host's speed.
fn bus6_mixed() -> Topology {
    let mut b = TopologyBuilder::new();
    let nodes: Vec<_> = [50, 100, 200, 100, 50, 200]
        .into_iter()
        .enumerate()
        .map(|(i, speed_pct)| b.node(speed_pct, i == 0 || i == 4, true))
        .collect();
    b.link(&nodes, 150_000, Duration(5));
    b.build().expect("valid bus")
}

fn workload(name: &str, nodes: usize) -> Workload {
    match name {
        "avionics" => generators::avionics(nodes),
        "scada" => generators::scada(nodes),
        other => panic!("unknown workload {other}"),
    }
}

/// Everything frozen about one (workload, platform) pair.
#[derive(Debug, PartialEq)]
struct Golden {
    /// FNV-1a of `format!("{:?}", strategy)`, best-effort admission.
    digest: u64,
    /// `plans, transitions, worst_transition µs, worst_distance,
    /// total_distance, max_shed, degraded_plans`.
    stats: [u64; 7],
    /// Strict admission at R = 20 ms: the error text (or "admitted").
    strict_20ms: String,
    /// Strict admission at R one microsecond under the worst
    /// transition's total: only the worst transitions violate, so the
    /// text pins *which* of them is reported first.
    strict_tight: String,
    /// Strict admission at R = 20 ms with `ShedPolicy::Never`: an
    /// infeasible mode outranks any R violation.
    strict_never: String,
}

fn stats_row(s: &StrategyStats) -> [u64; 7] {
    [
        s.plans as u64,
        s.transitions as u64,
        s.worst_transition.as_micros(),
        s.worst_distance as u64,
        s.total_distance as u64,
        s.max_shed as u64,
        s.degraded_plans as u64,
    ]
}

fn strict(w: &Workload, topo: &Topology, cfg: &PlannerConfig) -> String {
    match build_strategy(w, topo, cfg) {
        Ok(_) => "admitted".to_string(),
        Err(e) => e.to_string(),
    }
}

fn measure(wl: &str, plat: &str, tweak: fn(&mut PlannerConfig)) -> Golden {
    let (topo, f) = platform(plat);
    let w = workload(wl, topo.node_count());
    let mut cfg = PlannerConfig::new(f, Duration::from_millis(300));
    tweak(&mut cfg);
    cfg.admit_best_effort = true;
    let (strategy, stats) = build_strategy(&w, &topo, &cfg).expect("best-effort build");
    // The threaded build must be the same value, not merely equivalent.
    cfg.threads = 3;
    let (threaded, threaded_stats) = build_strategy(&w, &topo, &cfg).expect("threaded build");
    assert_eq!(strategy, threaded, "{wl} on {plat}: threads = 3 differs");
    assert_eq!(
        stats, threaded_stats,
        "{wl} on {plat}: threaded stats differ"
    );
    cfg.threads = 1;

    cfg.admit_best_effort = false;
    cfg.r_bound = Duration::from_millis(20);
    let strict_20ms = strict(&w, &topo, &cfg);
    cfg.shed = ShedPolicy::Never;
    let strict_never = strict(&w, &topo, &cfg);
    cfg.shed = ShedPolicy::ByCriticality;
    cfg.r_bound = DETECT_MARGIN + stats.worst_transition - Duration(1);
    let strict_tight = strict(&w, &topo, &cfg);
    cfg.threads = 3;
    assert_eq!(
        strict(&w, &topo, &cfg),
        strict_tight,
        "{wl} on {plat}: threaded strict error differs"
    );

    Golden {
        digest: fnv1a(&format!("{strategy:?}")),
        stats: stats_row(&stats),
        strict_20ms,
        strict_tight,
        strict_never,
    }
}

fn golden(
    digest: u64,
    stats: [u64; 7],
    strict_20ms: &str,
    strict_tight: &str,
    strict_never: &str,
) -> Golden {
    Golden {
        digest,
        stats,
        strict_20ms: strict_20ms.to_string(),
        strict_tight: strict_tight.to_string(),
        strict_never: strict_never.to_string(),
    }
}

fn check(wl: &str, plat: &str, expect: Golden) {
    check_with(wl, plat, |_| {}, expect);
}

/// `check` under a planner configuration other than the default.
fn check_with(wl: &str, plat: &str, tweak: fn(&mut PlannerConfig), expect: Golden) {
    let got = measure(wl, plat, tweak);
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!(
            "{wl} {plat}:\n    golden(\n        {:#018x},\n        {:?},\n        {:?},\n        {:?},\n        {:?},\n    )",
            got.digest, got.stats, got.strict_20ms, got.strict_tight, got.strict_never
        );
        return;
    }
    assert_eq!(got, expect, "{wl} on {plat}");
}

#[test]
fn avionics_bus20_f2() {
    check(
        "avionics",
        "bus20",
        golden(
            0x5254_8d5c_c0d7_ffba,
            [211, 400, 11447, 10, 1509, 2, 105],
            "transition {} -> {n0} bound 22.764ms exceeds R = 20.000ms",
            "transition {n3} -> {n3,n6} bound 23.447ms exceeds R = 23.446ms",
            "no feasible plan for {n3}: t7: actuator node is faulty",
        ),
    );
}

#[test]
fn scada_bus20_f2() {
    check(
        "scada",
        "bus20",
        golden(
            0x5cd5_217f_910b_26e1,
            [211, 400, 21720, 6, 755, 2, 57],
            "transition {} -> {n0} bound 32.628ms exceeds R = 20.000ms",
            "transition {} -> {n14} bound 33.720ms exceeds R = 33.719ms",
            "no feasible plan for {n3}: t4: actuator node is faulty",
        ),
    );
}

#[test]
fn avionics_bus36_f1() {
    check(
        "avionics",
        "bus36",
        golden(
            0x3b52_9efb_d0ae_be43,
            [37, 36, 11701, 3, 40, 1, 6],
            "transition {} -> {n0} bound 22.718ms exceeds R = 20.000ms",
            "transition {} -> {n13} bound 23.701ms exceeds R = 23.700ms",
            "no feasible plan for {n3}: t7: actuator node is faulty",
        ),
    );
}

#[test]
fn scada_bus36_f1() {
    check(
        "scada",
        "bus36",
        golden(
            0x51fc_9112_155b_f413,
            [37, 36, 22684, 3, 20, 1, 3],
            "transition {} -> {n0} bound 32.718ms exceeds R = 20.000ms",
            "transition {} -> {n10} bound 34.684ms exceeds R = 34.683ms",
            "no feasible plan for {n3}: t4: actuator node is faulty",
        ),
    );
}

#[test]
fn avionics_ring12_f2() {
    check(
        "avionics",
        "ring12",
        golden(
            0x5f18_7a5f_6f64_b770,
            [79, 144, 11320, 17, 478, 15, 64],
            "transition {} -> {n0} bound 23.320ms exceeds R = 20.000ms",
            "transition {} -> {n0} bound 23.320ms exceeds R = 23.319ms",
            "no feasible plan for {n3}: t7: actuator node is faulty",
        ),
    );
}

#[test]
fn scada_ring12_f2() {
    check(
        "scada",
        "ring12",
        golden(
            0x36a3_ce57_cddf_b432,
            [79, 144, 21870, 7, 286, 7, 58],
            "transition {} -> {n0} bound 32.780ms exceeds R = 20.000ms",
            "transition {} -> {n5} bound 33.870ms exceeds R = 33.869ms",
            "no feasible plan for {n3}: t4: actuator node is faulty",
        ),
    );
}

#[test]
fn avionics_mesh3x4_f2() {
    check(
        "avionics",
        "mesh3x4",
        golden(
            0x4430_31dd_9ccf_2a5b,
            [79, 144, 11076, 14, 868, 11, 57],
            "transition {} -> {n0} bound 22.705ms exceeds R = 20.000ms",
            "transition {n2} -> {n2,n5} bound 23.076ms exceeds R = 23.075ms",
            "no feasible plan for {n3}: t7: actuator node is faulty",
        ),
    );
}

#[test]
fn scada_mesh3x4_f2() {
    check(
        "scada",
        "mesh3x4",
        golden(
            0x7d28_1fe8_12c6_9294,
            [79, 144, 21700, 7, 455, 6, 34],
            "transition {} -> {n0} bound 32.640ms exceeds R = 20.000ms",
            "transition {n9} -> {n6,n9} bound 33.700ms exceeds R = 33.699ms",
            "no feasible plan for {n3}: t4: actuator node is faulty",
        ),
    );
}

#[test]
fn avionics_dual_bus6_f3() {
    check(
        "avionics",
        "dual_bus6",
        golden(
            0xc306_866f_a0ea_7c76,
            [42, 96, 10898, 28, 926, 13, 41],
            "transition {} -> {n0} bound 22.713ms exceeds R = 20.000ms",
            "transition {n0} -> {n0,n3} bound 22.898ms exceeds R = 22.897ms",
            "no feasible plan for {n0}: t12: actuator node is faulty",
        ),
    );
}

#[test]
fn scada_dual_bus6_f3() {
    check(
        "scada",
        "dual_bus6",
        golden(
            0xe063_1110_7108_048e,
            [42, 96, 20918, 17, 646, 5, 35],
            "transition {} -> {n0} bound 32.918ms exceeds R = 20.000ms",
            "transition {} -> {n0} bound 32.918ms exceeds R = 32.917ms",
            "no feasible plan for {n3}: t4: actuator node is faulty",
        ),
    );
}

#[test]
fn avionics_bus5_overloaded_f2() {
    check(
        "avionics",
        "bus5_overloaded",
        golden(
            0xa481_e4aa_5027_5e27,
            [16, 25, 12773, 25, 375, 3, 15],
            "transition {} -> {n0} bound 23.685ms exceeds R = 20.000ms",
            "transition {n0} -> {n0,n1} bound 24.773ms exceeds R = 24.772ms",
            "no feasible plan for {n0}: t10: actuator node is faulty",
        ),
    );
}

#[test]
fn scada_bus5_overloaded_f2() {
    check(
        "scada",
        "bus5_overloaded",
        golden(
            0x8be3_2927_c64f_8d02,
            [16, 25, 23029, 15, 188, 2, 12],
            "transition {} -> {n0} bound 34.773ms exceeds R = 20.000ms",
            "transition {} -> {n4} bound 35.029ms exceeds R = 35.028ms",
            "no feasible plan for {n0}: t7: actuator node is faulty",
        ),
    );
}

#[test]
fn scada_fat_tree4_f1() {
    check(
        "scada",
        "fat_tree4",
        golden(
            0xf547_d0fd_38f3_4d61,
            [40, 39, 21459, 2, 16, 1, 3],
            "transition {} -> {n0} bound 32.668ms exceeds R = 20.000ms",
            "transition {} -> {n20} bound 33.459ms exceeds R = 33.458ms",
            "no feasible plan for {n3}: t4: actuator node is faulty",
        ),
    );
}

#[test]
fn avionics_bus20_masking_f1() {
    check_with(
        "avionics",
        "bus20",
        |cfg| {
            cfg.f = 1;
            cfg.replication = ReplicationMode::Masking;
        },
        golden(
            0xc3bd_bf1f_b911_4474,
            [21, 20, 11174, 6, 69, 1, 6],
            "transition {} -> {n0} bound 22.764ms exceeds R = 20.000ms",
            "transition {} -> {n3} bound 23.174ms exceeds R = 23.173ms",
            "no feasible plan for {n3}: t7: actuator node is faulty",
        ),
    );
}

#[test]
fn avionics_mesh3x4_checkers_apart_f2() {
    check_with(
        "avionics",
        "mesh3x4",
        |cfg| cfg.place.checker_colocate = false,
        golden(
            0xc7e5_a97a_42b6_828c,
            [79, 144, 11156, 16, 861, 11, 57],
            "transition {} -> {n0} bound 22.945ms exceeds R = 20.000ms",
            "transition {n1} -> {n1,n6} bound 23.156ms exceeds R = 23.155ms",
            "no feasible plan for {n3}: t7: actuator node is faulty",
        ),
    );
}

#[test]
fn avionics_mesh3x4_no_delta_minimisation_f2() {
    check_with(
        "avionics",
        "mesh3x4",
        |cfg| cfg.place.minimize_delta = false,
        golden(
            0x4d78_60c0_fde1_9a73,
            [79, 144, 11212, 38, 4046, 11, 57],
            "transition {} -> {n0} bound 22.790ms exceeds R = 20.000ms",
            "transition {n1} -> {n1,n6} bound 23.212ms exceeds R = 23.211ms",
            "no feasible plan for {n3}: t7: actuator node is faulty",
        ),
    );
}

#[test]
fn avionics_bus6_mixed_f2() {
    check(
        "avionics",
        "bus6_mixed",
        golden(
            0x36ce_fed5_84f8_ab34,
            [22, 36, 10867, 18, 335, 3, 21],
            "transition {} -> {n0} bound 22.631ms exceeds R = 20.000ms",
            "transition {n4} -> {n3,n4} bound 22.867ms exceeds R = 22.866ms",
            "no feasible plan for {n0}: t12: actuator node is faulty",
        ),
    );
}
