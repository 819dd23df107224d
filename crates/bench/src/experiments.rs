//! The experiment suite (DESIGN.md E1–E10, A1–A2).
//!
//! Each `eN` function runs one experiment and returns a rendered table
//! plus machine-readable rows where useful. The paper is a position
//! paper without an evaluation section; these experiments operationalise
//! its quantitative claims (see DESIGN.md for the claim-by-claim map).

use btr_baselines::{Baseline, BaselineSystem};
use btr_core::{BtrSystem, FaultScenario, Plant, PlantConfig};
use btr_model::{ATask, Criticality, Duration, FaultKind, FaultSet, NodeId, Time, Topology};
use btr_net::RoutingTable;
use btr_planner::{build_strategy, plan_utility, strategy_quality, PlannerConfig};
use btr_runtime::BtrNode;
use btr_sched::{min_speed_pct, round_robin_placement, synthesize, SchedParams};
use btr_workload::generators::{self, RandomParams};
use btr_workload::Workload;
use std::collections::BTreeMap;

use crate::table::Table;

fn ms(x: u64) -> Duration {
    Duration::from_millis(x)
}

/// Standard 9-node avionics platform used by most experiments.
pub fn avionics_setup(f: u8) -> BtrSystem {
    let workload = generators::avionics(9);
    let topo = Topology::bus(9, 100_000, Duration(5));
    let mut cfg = PlannerConfig::new(f, ms(150));
    cfg.admit_best_effort = true;
    BtrSystem::plan(workload, topo, cfg).expect("avionics plannable")
}

fn pick_victim(sys: &BtrSystem) -> NodeId {
    // A node hosting the primary flight-control lane: faults there hit
    // the Safety pipeline directly.
    let ctl = sys
        .workload()
        .tasks()
        .iter()
        .find(|t| t.name == "flight-control")
        .map(|t| t.id)
        .unwrap_or(btr_model::TaskId(0));
    sys.strategy()
        .initial_plan()
        .node_of(ATask::Work {
            task: ctl,
            replica: 0,
        })
        .unwrap_or(NodeId(0))
}

/// E1 / Figure 1 — recovery timeline per approach and fault type.
///
/// Claim (Definition 3.1 + Section 3.1): BTR's incorrect-output window is
/// bounded by R; BFT masks (no window); self-stabilisation recovers only
/// eventually.
pub fn e1_recovery_timeline() -> String {
    let mut t = Table::new(&[
        "approach",
        "fault",
        "bad window (ms)",
        "R (ms)",
        "tail clean",
    ]);
    let horizon = ms(500);
    let fault_at = Time::from_millis(52);

    let sys = avionics_setup(1);
    let r_ms = sys.strategy().r_bound.as_millis_f64();
    let victim = pick_victim(&sys);
    for kind in [FaultKind::Crash, FaultKind::Commission, FaultKind::Omission] {
        let report = sys.run(&FaultScenario::single(victim, kind, fault_at), horizon, 7);
        let tl = report.timeline();
        let tail_ok = tl[tl.len().saturating_sub(3)..]
            .iter()
            .all(|(_, f)| *f >= 0.99);
        t.row(vec![
            "BTR".into(),
            kind.label().into(),
            format!("{:.1}", report.recovery.bad_window().as_millis_f64()),
            format!("{r_ms:.0}"),
            tail_ok.to_string(),
        ]);
    }

    let w = generators::avionics(9);
    let topo = Topology::bus(9, 200_000, Duration(5));
    let bft = BaselineSystem::plan(
        Baseline::BftMask,
        w.clone(),
        topo.clone(),
        1,
        &SchedParams::default(),
    )
    .expect("bft plannable");
    let report = bft.run(
        &FaultScenario::single(victim, FaultKind::Commission, fault_at),
        horizon,
        7,
    );
    t.row(vec![
        "BFT-mask".into(),
        "commission".into(),
        format!("{:.1}", report.recovery.bad_window().as_millis_f64()),
        "0 (masks)".into(),
        "true".into(),
    ]);

    let stab = BaselineSystem::plan(Baseline::SelfStab, w, topo, 1, &SchedParams::default())
        .expect("selfstab plannable");
    let report = stab.run(
        &FaultScenario::single(victim, FaultKind::Commission, fault_at),
        horizon,
        7,
    );
    t.row(vec![
        "self-stab".into(),
        "commission".into(),
        format!("{:.1}", report.recovery.bad_window().as_millis_f64()),
        "unbounded".into(),
        "eventual".into(),
    ]);
    format!(
        "## E1 — recovery timeline (fault at 52 ms)\n\n{}",
        t.render()
    )
}

/// E2 / Table 1 — replication cost: replicas, traffic, CPU.
///
/// Claim (Section 1): "detection requires fewer replicas than masking".
pub fn e2_replica_cost(f: u8) -> String {
    let mut t = Table::new(&[
        "approach",
        "lanes",
        "msgs (200ms)",
        "kbytes (200ms)",
        "peak CPU util",
    ]);
    let horizon = ms(200);
    let w = generators::avionics(9);
    let topo = Topology::bus(9, 200_000, Duration(5));

    // BTR.
    let mut cfg = PlannerConfig::new(f, ms(200));
    cfg.admit_best_effort = true;
    let sys = BtrSystem::plan(w.clone(), topo.clone(), cfg).expect("plannable");
    let report = sys.run(&FaultScenario::none(), horizon, 3);
    let plan = sys.strategy().initial_plan();
    t.row(vec![
        format!("BTR detect (f={f})"),
        format!("{}", f + 1),
        report.metrics.msgs_sent.to_string(),
        format!("{:.0}", report.metrics.bytes_sent as f64 / 1e3),
        format!("{:.2}", plan.max_utilization(w.period)),
    ]);

    for b in [
        Baseline::BftMask,
        Baseline::PbftLite,
        Baseline::Zz,
        Baseline::SelfStab,
    ] {
        match BaselineSystem::plan(b, w.clone(), topo.clone(), f, &SchedParams::default()) {
            Ok(sys) => {
                let report = sys.run(&FaultScenario::none(), horizon, 3);
                t.row(vec![
                    b.label().into(),
                    b.lanes(f).to_string(),
                    report.metrics.msgs_sent.to_string(),
                    format!("{:.0}", report.metrics.bytes_sent as f64 / 1e3),
                    format!("{:.2}", sys.plan_ref().max_utilization(w.period)),
                ]);
            }
            Err(e) => {
                t.row(vec![
                    b.label().into(),
                    b.lanes(f).to_string(),
                    format!("infeasible: {e}"),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    format!("## E2 — replication cost at f = {f}\n\n{}", t.render())
}

/// E3 / Figure 2 — minimum CPU speed to stay schedulable.
///
/// Claim (Section 2): "the impact on clock frequency is a common
/// evaluation metric"; BTR needs less speed than masking.
pub fn e3_min_speed() -> String {
    let mut t = Table::new(&[
        "utilisation",
        "unprotected",
        "BTR f=1 (f+1)",
        "BFT f=1 (2f+1)",
        "PBFT f=1 (3f+1)",
    ]);
    for util_pct in [40u32, 80, 120] {
        let p = RandomParams {
            seed: 11,
            layers: 3,
            width: 4,
            fanin: 2,
            utilization: util_pct as f64 / 100.0,
            period: ms(10),
            n_nodes: 6,
        };
        let w = generators::random_layered(&p);
        let topo = Topology::bus(6, 200_000, Duration(5));
        let routing = RoutingTable::new(&topo);
        let speed_for = |lanes_per_task: u8, checkers: bool, all_lanes: bool| -> String {
            let mut lanes = BTreeMap::new();
            for task in w.tasks() {
                let n = match task.kind {
                    btr_workload::TaskKind::Sink { .. } => 1,
                    _ => lanes_per_task,
                };
                lanes.insert(task.id, n);
            }
            // `round_robin_placement` gives every replicated task a
            // checker slot, the voting baselines' too; what tells the
            // columns apart is the verify reserve below, which only BTR
            // pays.
            let placement = round_robin_placement(&w, &topo, &lanes, &[]);
            let result = min_speed_pct(|pct| {
                let params = SchedParams {
                    speed_pct: pct,
                    consume_all_lanes: all_lanes,
                    verify_reserve: if checkers { Duration(200) } else { Duration(0) },
                    ..SchedParams::default()
                };
                synthesize(&w, &topo, &routing, &placement, &lanes, &params).is_ok()
            });
            result.map_or("-".into(), |pct| format!("{pct}%"))
        };
        t.row(vec![
            format!("{:.2}", util_pct as f64 / 100.0),
            speed_for(1, false, false),
            speed_for(2, true, false),
            speed_for(3, false, true),
            speed_for(4, false, true),
        ]);
    }
    format!(
        "## E3 — minimum schedulable CPU speed (random DAGs, 6 nodes)\n\n{}",
        t.render()
    )
}

/// E4 / Figure 3 — sequential faults and the R := D/f rule.
///
/// Claim (Section 3): an adversary triggering k <= f faults forces at
/// most ~kR of bad output; provisioning R = D/f keeps the plant safe.
pub fn e4_sequential_faults() -> String {
    let mut t = Table::new(&[
        "k faults",
        "bad window (ms)",
        "budget R+(k-1)*gap (ms)",
        "within budget",
        "plant damaged (D=2R)",
    ]);
    let sys = avionics_setup(2);
    let r = sys.strategy().r_bound;
    let victims = [pick_victim(&sys), NodeId(8)];
    for k in 1..=2usize {
        let scenario = FaultScenario::sequential(
            &victims[..k],
            FaultKind::Crash,
            Time::from_millis(50),
            ms(200),
        );
        let report = sys.run(&scenario, ms(600), 7);
        let window = report.recovery.bad_window();
        // Per-fault windows cannot overlap here (faults 200 ms apart and
        // R = 150 ms), so the end-to-end window spans the whole episode;
        // compare against gap*(k-1) + R.
        let budget = Duration(r.as_micros() + 200_000 * (k as u64 - 1));
        let plant = Plant::drive(
            sys.workload(),
            PlantConfig::with_deadline(Duration(2 * r.as_micros())),
            &report.verdicts,
        );
        t.row(vec![
            k.to_string(),
            format!("{:.1}", window.as_millis_f64()),
            format!("{:.1}", budget.as_millis_f64()),
            (window <= budget).to_string(),
            plant.damaged().to_string(),
        ]);
    }
    format!(
        "## E4 — sequential faults, f = 2, R = {:.0} ms\n\n{}",
        r.as_millis_f64(),
        t.render()
    )
}

/// E5 / Figure 4 — mixed-criticality degradation.
///
/// Claim (Section 1): "the system can disable some of the less critical
/// tasks and allocate their resources to the more critical ones".
pub fn e5_degradation() -> String {
    let mut t = Table::new(&[
        "failed nodes",
        "SAFETY sinks",
        "HIGH sinks",
        "MED sinks",
        "LOW sinks",
        "utility",
    ]);
    // A smaller platform so shedding actually bites.
    let w = generators::avionics(6);
    let topo = Topology::bus(6, 60_000, Duration(5));
    let mut cfg = PlannerConfig::new(2, ms(300));
    cfg.admit_best_effort = true;
    let (strategy, _) = build_strategy(&w, &topo, &cfg).expect("plannable");
    for k in 0..=2u32 {
        let fs: FaultSet = (0..k).map(NodeId).collect();
        let plan = strategy.plan(strategy.best_plan_for(&fs));
        let mut by_crit: BTreeMap<Criticality, (usize, usize)> = BTreeMap::new();
        for sink in w.sinks() {
            let e = by_crit.entry(sink.criticality).or_insert((0, 0));
            e.1 += 1;
            if !plan.is_shed(sink.id) {
                e.0 += 1;
            }
        }
        let cell = |c: Criticality| -> String {
            by_crit
                .get(&c)
                .map(|(ok, total)| format!("{ok}/{total}"))
                .unwrap_or_else(|| "-".into())
        };
        t.row(vec![
            format!("{k}"),
            cell(Criticality::Safety),
            cell(Criticality::High),
            cell(Criticality::Medium),
            cell(Criticality::Low),
            format!("{:.2}", plan_utility(plan, &w)),
        ]);
    }
    format!(
        "## E5 — per-criticality survival (avionics on 6 nodes, f = 2)\n\n{}",
        t.render()
    )
}

/// E6 / Table 2 — planner scalability and the strategy game tree. Build
/// times are the repository benchmark's (`planner_ladder`); this table
/// keeps the counts, which repeat exactly.
pub fn e6_planner_scale() -> String {
    let mut t = Table::new(&[
        "nodes",
        "f",
        "plans",
        "transitions",
        "worst dist",
        "adversary damage",
    ]);
    for &(n, f) in &[(9usize, 1u8), (9, 2), (12, 2), (16, 2), (20, 2), (36, 1)] {
        let w = generators::avionics(n);
        let topo = Topology::bus(n, 150_000, Duration(5));
        let mut cfg = PlannerConfig::new(f, ms(300));
        cfg.admit_best_effort = true;
        let (strategy, stats) = build_strategy(&w, &topo, &cfg).expect("plannable");
        let q = strategy_quality(&strategy, &w);
        t.row(vec![
            n.to_string(),
            f.to_string(),
            stats.plans.to_string(),
            stats.transitions.to_string(),
            stats.worst_distance.to_string(),
            format!("{:.2}", q.worst_damage),
        ]);
    }
    format!("## E6 — planner scalability\n\n{}", t.render())
}

/// Detection + convergence latency for a scenario, by stepping the world.
pub fn detection_latency(
    sys: &BtrSystem,
    scenario: &FaultScenario,
    victim: NodeId,
    horizon: Duration,
    seed: u64,
) -> (Option<Duration>, Option<Duration>) {
    let mut world = sys.build_world(scenario, seed);
    world.start();
    let fault_at = scenario.first_manifestation().unwrap_or(Time::ZERO);
    let step = ms(1);
    let mut detect: Option<Duration> = None;
    let mut converge: Option<Duration> = None;
    let mut t = Time::ZERO;
    let n = sys.topology().node_count();
    while t < Time::ZERO + horizon {
        t += step;
        world.run_until(t);
        let mut knowing = 0usize;
        let mut correct = 0usize;
        for i in 0..n as u32 {
            let node = NodeId(i);
            if node == victim || world.is_crashed(node) {
                continue;
            }
            correct += 1;
            if let Some(b) = world
                .behavior(node)
                .and_then(|b| b.as_any())
                .and_then(|a| a.downcast_ref::<BtrNode>())
            {
                if b.fault_set().contains(victim) {
                    knowing += 1;
                }
            }
        }
        if knowing > 0 && detect.is_none() {
            detect = Some(t.saturating_since(fault_at));
        }
        if correct > 0 && knowing == correct {
            converge = Some(t.saturating_since(fault_at));
            break;
        }
    }
    (detect, converge)
}

/// E7 / Figure 5 — detection and convergence latency per fault type.
pub fn e7_detection_latency() -> String {
    let mut t = Table::new(&["fault", "first detection (ms)", "all nodes (ms)"]);
    let sys = avionics_setup(1);
    let victim = pick_victim(&sys);
    for kind in [
        FaultKind::Commission,
        FaultKind::Equivocation,
        FaultKind::Crash,
        FaultKind::Omission,
        FaultKind::Timing,
    ] {
        let scenario = FaultScenario::single(victim, kind, Time::from_millis(52));
        let (detect, converge) = detection_latency(&sys, &scenario, victim, ms(500), 7);
        let show = |d: Option<Duration>| {
            d.map_or("> horizon".into(), |d| format!("{:.0}", d.as_millis_f64()))
        };
        t.row(vec![kind.label().into(), show(detect), show(converge)]);
    }
    format!(
        "## E7 — detection latency by fault type (f = 1)\n\n{}",
        t.render()
    )
}

/// E8 / Figure 6 — evidence distribution under bogus-evidence DoS.
pub fn e8_evidence_dissemination() -> String {
    let mut t = Table::new(&[
        "spam records/period",
        "convergence (ms)",
        "rejected records",
        "spammer blacklisted",
    ]);
    let sys = avionics_setup(1);
    let victim = pick_victim(&sys);
    let spammer = NodeId((victim.0 + 1) % 9);
    for spam in [0u32, 8, 32] {
        let mut scenario =
            FaultScenario::single(victim, FaultKind::Commission, Time::from_millis(52));
        if spam > 0 {
            scenario.faults.push(btr_core::InjectedFault::new(
                spammer,
                FaultKind::EvidenceSpam,
                Time::from_millis(20),
            ));
        }
        // Convergence on the *commission* victim despite the spam.
        let (_, converge) = detection_latency(&sys, &scenario, victim, ms(500), 7);
        let report = sys.run(&scenario, ms(300), 7);
        let rejected: u64 = report
            .node_stats
            .iter()
            .map(|(_, s, _, _)| s.evidence_rejected)
            .sum();
        t.row(vec![
            spam.to_string(),
            converge.map_or("> horizon".into(), |d| format!("{:.0}", d.as_millis_f64())),
            rejected.to_string(),
            (spam > 0).to_string(),
        ]);
    }
    format!(
        "## E8 — evidence distribution vs bogus-evidence DoS\n\n{}",
        t.render()
    )
}

/// E9 / Figure 7 — mode-change cost vs migrated state.
pub fn e9_mode_change() -> String {
    let mut t = Table::new(&[
        "state per task (bytes)",
        "planner bound (ms)",
        "measured window (ms)",
        "within bound+R",
    ]);
    for &state in &[256u32, 4_096, 16_384] {
        // Fusion chain with configurable state.
        let w = scale_state(&generators::fusion_chain(4, 9), state);
        let topo = Topology::bus(9, 100_000, Duration(5));
        let mut cfg = PlannerConfig::new(1, ms(250));
        cfg.admit_best_effort = true;
        let sys = BtrSystem::plan(w, topo, cfg).expect("plannable");
        let victim = sys
            .strategy()
            .initial_plan()
            .node_of(ATask::Work {
                task: btr_model::TaskId(2),
                replica: 0,
            })
            .unwrap_or(NodeId(0));
        let bound = sys.strategy().worst_transition_bound();
        let report = sys.run(
            &FaultScenario::single(victim, FaultKind::Crash, Time::from_millis(52)),
            ms(500),
            7,
        );
        let window = report.recovery.bad_window();
        t.row(vec![
            state.to_string(),
            format!("{:.1}", bound.as_millis_f64()),
            format!("{:.1}", window.as_millis_f64()),
            (window <= sys.strategy().r_bound).to_string(),
        ]);
    }
    format!(
        "## E9 — mode-change cost vs migrated state\n\n{}",
        t.render()
    )
}

fn scale_state(w: &Workload, state: u32) -> Workload {
    let mut tasks = w.tasks().to_vec();
    for t in &mut tasks {
        if t.state_bytes > 0 {
            t.state_bytes = state;
        }
    }
    Workload::new(w.period, w.seed, tasks).expect("scaled workload valid")
}

/// E10 / Table 3 — omission attribution accuracy.
pub fn e10_omission_attribution() -> String {
    let mut t = Table::new(&[
        "scenario",
        "victim attributed",
        "innocents accused",
        "converged",
    ]);
    let sys = avionics_setup(1);
    let victim = pick_victim(&sys);
    for (label, kind) in [
        ("omission", FaultKind::Omission),
        ("crash", FaultKind::Crash),
        ("babble", FaultKind::Babble),
    ] {
        let scenario = FaultScenario::single(victim, kind, Time::from_millis(52));
        // Membership check: convergence on the victim via world stepping.
        let (_, converge) = detection_latency(&sys, &scenario, victim, ms(500), 7);
        let report = sys.run(&scenario, ms(500), 7);
        let innocents: usize = report
            .node_stats
            .iter()
            .map(|(_, _, _, fs_len)| fs_len.saturating_sub(1))
            .max()
            .unwrap_or(0);
        t.row(vec![
            label.into(),
            converge.is_some().to_string(),
            innocents.to_string(),
            report.converged.to_string(),
        ]);
    }
    format!("## E10 — omission attribution accuracy\n\n{}", t.render())
}

/// R1 — robustness: residual link loss must not trigger false positives.
///
/// Section 2.1 assumes FEC makes losses "rare enough to be ignored";
/// this checks the detector tolerates the *residual* rate: sporadic
/// drops may cost individual output slots but must never convict a
/// healthy node or destabilise the system.
pub fn r1_link_loss() -> String {
    let mut t = Table::new(&[
        "loss (ppm)",
        "acceptable outputs",
        "false attributions",
        "converged",
    ]);
    let workload = generators::avionics(9);
    let topo = Topology::bus(9, 100_000, Duration(5));
    for (label, ppm, fec) in [
        ("0", 0u32, None),
        ("200", 200, None),
        ("1000", 1_000, None),
        ("5000", 5_000, None),
        ("20000 + FEC(4,2)", 20_000, Some((4u8, 2u8))),
    ] {
        let mut cfg = PlannerConfig::new(1, ms(150));
        cfg.admit_best_effort = true;
        let mut sys = BtrSystem::plan(workload.clone(), topo.clone(), cfg)
            .expect("plannable")
            .with_loss_ppm(ppm);
        if let Some((k, m)) = fec {
            sys = sys.with_fec(k, m);
        }
        let report = sys.run(&FaultScenario::none(), ms(400), 7);
        let false_attr: usize = report
            .node_stats
            .iter()
            .map(|(_, _, _, fs_len)| *fs_len)
            .max()
            .unwrap_or(0);
        t.row(vec![
            label.to_string(),
            format!("{:.3}", report.acceptable_fraction()),
            false_attr.to_string(),
            report.converged.to_string(),
        ]);
    }
    format!(
        "## R1 — robustness to residual link loss (fault-free)\n\n{}",
        t.render()
    )
}

/// A1 — plan-distance minimisation ablation.
pub fn a1_plan_distance() -> String {
    let mut t = Table::new(&[
        "delta minimisation",
        "total reassignments",
        "worst reassignments",
        "measured window (ms)",
    ]);
    let w = generators::avionics(9);
    let topo = Topology::bus(9, 100_000, Duration(5));
    for minimize in [true, false] {
        let mut cfg = PlannerConfig::new(1, ms(150));
        cfg.admit_best_effort = true;
        cfg.place.minimize_delta = minimize;
        let sys = BtrSystem::plan(w.clone(), topo.clone(), cfg).expect("plannable");
        let victim = pick_victim(&sys);
        let report = sys.run(
            &FaultScenario::single(victim, FaultKind::Crash, Time::from_millis(52)),
            ms(400),
            7,
        );
        t.row(vec![
            minimize.to_string(),
            sys.stats().total_distance.to_string(),
            sys.stats().worst_distance.to_string(),
            format!("{:.1}", report.recovery.bad_window().as_millis_f64()),
        ]);
    }
    format!(
        "## A1 — plan-distance minimisation ablation\n\n{}",
        t.render()
    )
}

/// A2 — checker placement ablation.
///
/// On a single bus every placement is equidistant, so this runs on a
/// ring, where "putting checking tasks close to replicas" (Section 4.1)
/// actually changes hop counts.
pub fn a2_checker_placement() -> String {
    let mut t = Table::new(&[
        "checkers co-located",
        "fault-free kbytes (200ms)",
        "detect (ms)",
        "converge (ms)",
    ]);
    let w = generators::fusion_chain(3, 9);
    let topo = Topology::ring(9, 400_000, Duration(3));
    for colocate in [true, false] {
        let mut cfg = PlannerConfig::new(1, ms(150));
        cfg.admit_best_effort = true;
        cfg.place.checker_colocate = colocate;
        let sys = BtrSystem::plan(w.clone(), topo.clone(), cfg).expect("plannable");
        let victim = sys
            .strategy()
            .initial_plan()
            .node_of(ATask::Work {
                task: btr_model::TaskId(2),
                replica: 0,
            })
            .unwrap_or(NodeId(0));
        let quiet = sys.run(&FaultScenario::none(), ms(200), 7);
        let scenario = FaultScenario::single(victim, FaultKind::Commission, Time::from_millis(52));
        let (detect, converge) = detection_latency(&sys, &scenario, victim, ms(400), 7);
        let show = |d: Option<Duration>| {
            d.map_or("> horizon".into(), |d| format!("{:.0}", d.as_millis_f64()))
        };
        t.row(vec![
            colocate.to_string(),
            format!("{:.0}", quiet.metrics.bytes_sent as f64 / 1e3),
            show(detect),
            show(converge),
        ]);
    }
    format!("## A2 — checker placement ablation\n\n{}", t.render())
}

/// One experiment of the suite: id, what it regenerates, and its
/// rendered table.
pub type Experiment = (&'static str, &'static str, fn() -> String);

/// The suite in report order. `harness <id>`, `harness all` and
/// `harness --list` are all driven by this one table.
pub const SUITE: [Experiment; 13] = [
    (
        "e1",
        "recovery timeline per approach and fault type",
        e1_recovery_timeline,
    ),
    ("e2", "replication cost (replicas / traffic / CPU)", || {
        format!("{}\n{}", e2_replica_cost(1), e2_replica_cost(2))
    }),
    ("e3", "minimum schedulable CPU speed", e3_min_speed),
    (
        "e4",
        "sequential faults and the R := D/f rule",
        e4_sequential_faults,
    ),
    ("e5", "mixed-criticality degradation", e5_degradation),
    ("e6", "planner scalability", e6_planner_scale),
    (
        "e7",
        "detection latency by fault type",
        e7_detection_latency,
    ),
    (
        "e8",
        "evidence distribution under DoS",
        e8_evidence_dissemination,
    ),
    ("e9", "mode-change cost vs migrated state", e9_mode_change),
    (
        "e10",
        "omission attribution accuracy",
        e10_omission_attribution,
    ),
    (
        "a1",
        "plan-distance minimisation ablation",
        a1_plan_distance,
    ),
    ("a2", "checker placement ablation", a2_checker_placement),
    ("r1", "robustness to residual link loss", r1_link_loss),
];

/// Run every experiment on `threads` workers, returning the combined
/// report.
///
/// The hand-written experiments execute on the campaign's work-stealing
/// runner (`btr_campaign::runner::run_indexed`): each experiment is an
/// independent pure job, results merge in suite order, so the combined
/// report is byte-identical at any thread count — the same determinism
/// contract the campaign and the fuzzer inherit from the same primitive.
/// CI holds it to the committed `CLAIMS_btr.md` at one and two threads.
pub fn run_all(threads: usize) -> String {
    btr_campaign::runner::run_indexed(SUITE.len(), threads, |i| (SUITE[i].2)()).join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_planner::{lane_counts, ReplicationMode};

    #[test]
    fn avionics_setup_plans() {
        let sys = avionics_setup(1);
        assert_eq!(sys.strategy().plan_count(), 10);
        let v = pick_victim(&sys);
        assert!(v.index() < 9);
    }

    #[test]
    fn e5_table_renders() {
        let s = e5_degradation();
        assert!(s.contains("SAFETY"));
        assert!(s.contains("utility"));
    }

    #[test]
    fn scale_state_rewrites_stateful_tasks() {
        let w = generators::fusion_chain(3, 6);
        let scaled = scale_state(&w, 9_999);
        assert!(scaled
            .tasks()
            .iter()
            .filter(|t| t.state_bytes > 0)
            .all(|t| t.state_bytes == 9_999));
    }

    #[test]
    fn kernel_min_speed_probe_finds_speed() {
        // One E3 schedulability search at reduced size.
        let p = RandomParams {
            seed: 11,
            layers: 3,
            width: 3,
            fanin: 2,
            utilization: 0.3,
            period: ms(10),
            n_nodes: 9,
        };
        let w = generators::random_layered(&p);
        let topo = Topology::bus(9, 200_000, Duration(5));
        let routing = RoutingTable::new(&topo);
        let lanes = lane_counts(&w, ReplicationMode::Detection, 1, &Default::default(), 9);
        let placement = round_robin_placement(&w, &topo, &lanes, &[]);
        let speed = min_speed_pct(|pct| {
            let params = SchedParams {
                speed_pct: pct,
                ..SchedParams::default()
            };
            synthesize(&w, &topo, &routing, &placement, &lanes, &params).is_ok()
        });
        assert!(speed.is_some());
    }
}
