//! `planner_ladder`: the offline planner on growing platforms.
//!
//! `build_strategy` for the avionics workload on a shared bus at
//! (nodes, f) = (20, 2), (36, 1), one planner thread. An operation is
//! one built strategy; a slice is one pass up the ladder. The simulator
//! does no work here. A traced run climbs on to (64, 1) in every pass,
//! and adds the (100, 1) rung once and the single-call probes at n = 64.

use super::{Budget, Outcome, RunArgs, MIB};
use crate::calib::Calibrator;
use crate::trace::Tracer;
use crate::{alloc, probes, stats};
use btr::model::{Duration, Topology};
use btr::planner::{build_strategy, PlannerConfig, StrategyStats};
use btr::workload::{generators, Workload};
use std::time::Instant;

/// (nodes, fault budget, metric suffix) per rung.
const LADDER: [(usize, u8, &str); 3] = [(20, 2, "n20f2"), (36, 1, "n36f1"), (64, 1, "n64f1")];
/// The rungs an untraced run times. A 64-node plan takes 1.5 s, four
/// times the two rungs below it together: it alone set the ladder's
/// time, and with seven repetitions in a run its minimum follows the
/// host (the ladder moved 19 % between two sets of ten runs).
const TIMED_RUNGS: usize = 2;
const SMOKE_LADDER: [(usize, u8, &str); 2] = [(9, 1, "n20f2"), (12, 1, "n36f1")];
const TOP_RUNG: (usize, u8, &str) = (100, 1, "n100f1");

/// E6's planner settings: R = 300 ms, over-bound transitions recorded
/// instead of failing the build.
pub fn config(f: u8) -> PlannerConfig {
    let mut cfg = PlannerConfig::new(f, Duration::from_millis(300));
    cfg.admit_best_effort = true;
    cfg
}

/// The planner's inputs for one rung. The workload family and the
/// ladder are fixed; the seed moves the bus bandwidth by up to 2 %.
fn inputs(nodes: usize, seed: u64) -> (Workload, Topology) {
    let bytes_per_ms = 150_000 + (seed % 7) as u32 * 500;
    (
        generators::avionics(nodes),
        Topology::bus(nodes, bytes_per_ms, Duration(5)),
    )
}

struct Built {
    wall_s: f64,
    allocs: u64,
    stats: StrategyStats,
}

/// Plan one rung and check the strategy it returns.
fn plan_rung(
    out: &mut Outcome,
    tracer: &mut Tracer,
    op: u64,
    workload: &Workload,
    topo: &Topology,
    f: u8,
) -> Option<Built> {
    let cfg = config(f);
    let allocs_before = alloc::allocations();
    let span = tracer.begin("planner.build_strategy", op);
    let start = Instant::now();
    let built = build_strategy(workload, topo, &cfg);
    let wall_s = start.elapsed().as_secs_f64();
    tracer.end(span);
    let allocs = alloc::allocations() - allocs_before;
    match built {
        Err(e) => {
            out.check(Some(format!("n={} f={f}: {e}", topo.node_count())));
            None
        }
        Ok((strategy, stats)) => {
            let invalid = strategy
                .plans
                .iter()
                .find_map(|p| p.validate(topo, strategy.period).err())
                .map(|e| format!("n={} f={f}: invalid plan: {e:?}", topo.node_count()));
            out.check(invalid);
            Some(Built {
                wall_s,
                allocs,
                stats,
            })
        }
    }
}

pub fn run(args: &RunArgs, tracer: &mut Tracer, calib: &mut Calibrator) -> Outcome {
    let budget = Budget::new(args.seconds);
    let ladder: &[(usize, u8, &str)] = if args.smoke {
        &SMOKE_LADDER
    } else if tracer.on() {
        &LADDER
    } else {
        &LADDER[..TIMED_RUNGS]
    };
    let mut out = Outcome::default();
    // Per rung: seconds per plan over the passes; the first pass's stats.
    let mut rung_s: Vec<Vec<f64>> = vec![vec![]; ladder.len()];
    let mut first: Vec<Option<StrategyStats>> = vec![None; ladder.len()];
    let (mut allocs, mut peak) = (vec![], vec![]);
    let mut pass = 0u64;
    while pass < 2 || !budget.spent() {
        calib.sample();
        let built_inputs: Vec<_> = out.set_up(20, || {
            ladder
                .iter()
                .map(|&(n, _, _)| inputs(n, args.seed))
                .collect()
        });

        alloc::reset_peak();
        let mut pass_allocs = 0;
        for (rung, (&(_, f, _), (workload, topo))) in ladder.iter().zip(&built_inputs).enumerate() {
            let op = pass * ladder.len() as u64 + rung as u64;
            let Some(built) = plan_rung(&mut out, tracer, op, workload, topo, f) else {
                continue;
            };
            pass_allocs += built.allocs;
            rung_s[rung].push(built.wall_s);
            let same = first[rung].get_or_insert_with(|| built.stats.clone()) == &built.stats;
            out.check(
                (!same).then(|| format!("rung {rung}: plan statistics differ between passes")),
            );
        }
        allocs.push(pass_allocs as f64 / ladder.len() as f64);
        peak.push(alloc::peak_bytes() as f64);
        pass += 1;
    }

    let ladder_s: f64 = rung_s.iter().map(|s| stats::best(s)).sum();
    out.throughput_per_s = ladder.len() as f64 / ladder_s;
    out.latency_ms_p50 = ladder_s * 1e3;
    out.allocs_per_op = stats::median(&allocs);
    out.peak_heap_mb = stats::worst(&peak) / MIB;

    if tracer.on() {
        out.layer("plan_ladder_s", ladder_s);
        let (mut plans, mut transitions) = (0, 0);
        for (rung, &(_, _, suffix)) in ladder.iter().enumerate() {
            out.layer(
                &format!("planner.plan_s.{suffix}"),
                stats::best(&rung_s[rung]),
            );
            if let Some(s) = &first[rung] {
                plans += s.plans;
                transitions += s.transitions;
            }
        }
        out.layer("planner.plans_total", plans as f64);
        out.layer("planner.transitions_total", transitions as f64);
        out.layer("planner.us_per_plan", ladder_s * 1e6 / plans.max(1) as f64);
        out.layer(
            "planner.allocs_per_plan",
            stats::median(&allocs) * ladder.len() as f64 / plans.max(1) as f64,
        );
        if !args.smoke {
            let (n, f, suffix) = TOP_RUNG;
            let (workload, topo) = inputs(n, args.seed);
            if let Some(built) = plan_rung(&mut out, tracer, u64::MAX, &workload, &topo, f) {
                out.layer(&format!("planner.plan_s.{suffix}"), built.wall_s);
            }
            let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
            probes::planner_n64(&mut out, tracer, threads, stats::best(&rung_s[2]));
        }
    }
    out
}
