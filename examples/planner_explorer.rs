//! Explore the offline planner: strategy sizes, transition costs, and a
//! JSON export of the full strategy (what a deployment would install on
//! every node).
//!
//! ```text
//! cargo run --example planner_explorer [nodes] [f]
//! ```

use btr::model::{Duration, Topology};
use btr::planner::{build_strategy, PlannerConfig};

/// The next argument as a number in `range` (`default` if absent), or
/// `None` if it is not one.
fn arg_in(
    args: &mut impl Iterator<Item = String>,
    default: usize,
    range: std::ops::RangeInclusive<usize>,
) -> Option<usize> {
    let value = match args.next() {
        None => default,
        Some(a) => a.parse().ok()?,
    };
    range.contains(&value).then_some(value)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(n), Some(f), None) = (
        arg_in(&mut args, 9, 4..=24),
        arg_in(&mut args, 1, 0..=3),
        args.next(),
    ) else {
        eprintln!("usage: planner_explorer [nodes 4..=24] [f 0..=3]");
        std::process::exit(2);
    };
    let f = f as u8;

    let workload = btr::workload::generators::avionics(n);
    let topo = Topology::bus(n, 150_000, Duration(5));
    let mut cfg = PlannerConfig::new(f, Duration::from_millis(300));
    cfg.admit_best_effort = true;
    cfg.threads = 4;

    let t0 = std::time::Instant::now();
    let (strategy, stats) = build_strategy(&workload, &topo, &cfg).expect("plannable");
    let dt = t0.elapsed();

    println!("platform: {n} nodes, fault budget f = {f}");
    println!("built in {dt:?}");
    println!("plans:               {}", stats.plans);
    println!("transitions:         {}", stats.transitions);
    println!("worst transition:    {}", stats.worst_transition);
    println!("worst plan distance: {}", stats.worst_distance);
    println!("degraded plans:      {}", stats.degraded_plans);

    // Per-level shedding summary.
    for k in 0..=f as usize {
        let (count, degraded): (usize, usize) = strategy
            .plans
            .iter()
            .filter(|p| p.fault_set.len() == k)
            .fold((0, 0), |(c, d), p| {
                (c + 1, d + usize::from(!p.shed.is_empty()))
            });
        println!("level {k}: {count} plans, {degraded} degraded");
    }

    // Export summary: the artifact a deployment installs on every node is
    // the strategy value; report its footprint. (JSON export is stubbed
    // offline — see vendor/README.md.)
    let placements: usize = strategy.plans.iter().map(|p| p.placement.len()).sum();
    let sched_slots: usize = strategy
        .plans
        .iter()
        .flat_map(|p| p.schedules.values())
        .map(|s| s.entries.len())
        .sum();
    println!(
        "\nstrategy artifact: {} plans, {placements} placements, {sched_slots} schedule slots",
        strategy.plan_count()
    );
}
