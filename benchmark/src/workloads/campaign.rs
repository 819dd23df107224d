//! `campaign_grid_faults`: the full stack under injected faults.
//!
//! The default campaign grid (nine planned cells, 6 to 36 nodes, every
//! fault variant, HMAC authenticators) under one fault per run, executed
//! by the campaign runner on as many threads as the host has.
//! Planner, runtime, detector, evidence and mode switch all work here,
//! on the simulator. An operation is one judged run; a slice plans the
//! grid (set-up) and executes every run of it once. An untraced run
//! leaves the 36-node cell to the traced one (see `TIMED_CELL_NODES`).
//!
//! `BtrSystem::run` has no seam between building the world, running it
//! and judging it, so a traced run repeats each run in pieces through
//! the public `build_world` / `run_until` / `judge_actuations` calls,
//! and once more under `run_observed` for the recovery phases.

use super::{Budget, Outcome, RunArgs, MIB};
use crate::calib::Calibrator;
use crate::trace::Tracer;
use crate::{alloc, probes, stats};
use btr::campaign::runner::{execute_run, plan_cells, run_indexed, sim_seed, PlannedCell};
use btr::campaign::verdict::score;
use btr::campaign::{CampaignConfig, FaultSchedule, FaultVariant, RunRecord};
use btr::core::FaultScenario;
use btr::crypto::{AuthSuite, Xoshiro256StarStar};
use btr::model::{NodeId, Time};
use btr_obs::{RecoveryTimeline, Subsystem};
use std::time::Instant;

/// The largest cell an untraced run plans and times. One batch of the
/// 36-node fat-tree cell takes three times as long as the sixteen runs
/// of the eight smaller cells together, so it alone set the grid's
/// time, and being one long batch it repeats too seldom in a run for
/// its minimum to settle (the grid's runs per second spread 30 % over
/// ten seeds in a busy phase of the host). A traced run keeps the
/// whole grid.
const TIMED_CELL_NODES: usize = 9;

/// Schedules per cell, one simulator seed each.
const SCHEDULES_PER_CELL: usize = 2;
const SMOKE_SCHEDULES_PER_CELL: usize = 1;

/// The benchmark's own schedule table for one cell: one fault per run,
/// the variants dealt round-robin over the whole grid so that every
/// seed runs the same mix on the same cells (the campaign's sampler
/// deals them at random, and one evidence-spam draw on the 36-node
/// cell moves a run's cost threefold; so does the choice between a
/// victim that hosts tasks and one that does not). Victims are dealt
/// by a fixed stride; the seed picks where inside its period each
/// fault activates, and the simulator seed.
fn schedule_table(
    cell_idx: usize,
    cell: &PlannedCell,
    per_cell: usize,
    seed: u64,
) -> Vec<FaultSchedule> {
    let p = &cell.params;
    (0..per_cell)
        .map(|j| {
            let k = cell_idx * per_cell + j;
            let variant = FaultVariant::ALL[k % FaultVariant::ALL.len()];
            let mut rng = Xoshiro256StarStar::from_parts(&[
                b"benchmark-campaign",
                &seed.to_be_bytes(),
                &(k as u64).to_be_bytes(),
            ]);
            let victim = NodeId((7 * k as u32 + 3) % p.n_nodes);
            let period = p.period.as_micros();
            let at = p.first_at.as_micros() + (j as u64 + 1) * period + rng.next_below(period);
            FaultSchedule {
                id: j as u32,
                scenario: FaultScenario {
                    faults: vec![variant.inject(victim, Time(at))],
                },
            }
        })
        .collect()
}

/// When a piece of work started and ended (on whichever worker had it).
#[derive(Clone, Copy)]
struct Interval {
    start: Instant,
    end: Instant,
}

impl Interval {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Interval) {
    let start = Instant::now();
    let value = f();
    let end = Instant::now();
    (value, Interval { start, end })
}

/// The grid's runs as (cell, schedule), in the runner's cell-major order.
fn run_specs(cells: &[PlannedCell]) -> Vec<(u16, u32)> {
    let mut specs = Vec::new();
    for (c, cell) in cells.iter().enumerate() {
        for s in 0..cell.schedules.len() as u32 {
            specs.push((c as u16, s));
        }
    }
    specs
}

/// Execute every run once, `threads` at a time: a batch is as many
/// consecutive runs as there are workers, and its wall time is one
/// sample of that batch's cost. Batches this short are what lets the
/// best-of-k estimator find a quiet moment of the host for each.
fn pass(
    cfg: &CampaignConfig,
    cells: &[PlannedCell],
    specs: &[(u16, u32)],
    threads: usize,
) -> (Vec<(RunRecord, Interval)>, Vec<f64>) {
    let mut runs = Vec::with_capacity(specs.len());
    let mut batch_s = Vec::with_capacity(specs.len().div_ceil(threads));
    for first in (0..specs.len()).step_by(threads) {
        let size = threads.min(specs.len() - first);
        let start = Instant::now();
        runs.extend(run_indexed(size, threads, |j| {
            let i = first + j;
            let (c, s) = specs[i];
            timed(|| execute_run(cfg, cells, i as u32, c, s, 0))
        }));
        batch_s.push(start.elapsed().as_secs_f64());
    }
    (runs, batch_s)
}

/// One run again, in the three pieces `BtrSystem::run` is made of.
struct Pieces {
    build: Interval,
    sim: Interval,
    judge: Interval,
}

fn run_in_pieces(cfg: &CampaignConfig, cell: &PlannedCell, s: u32) -> Pieces {
    let scenario = &cell.schedules[s as usize].scenario;
    let (mut world, build) = timed(|| cell.system.build_world(scenario, sim_seed(cfg.seed, 0)));
    let ((), sim) = timed(|| {
        world.start();
        world.run_until(Time::ZERO + cell.horizon + cell.system.grace());
    });
    let (judged, judge) = timed(|| {
        cell.system
            .judge_actuations(scenario, cell.horizon, world.actuations())
    });
    std::hint::black_box(judged);
    Pieces { build, sim, judge }
}

/// One run again under a recorder: the recovery phases, the message
/// volume, and what scoring the report costs.
struct Observed {
    run: Interval,
    score: Interval,
    timeline: Option<RecoveryTimeline>,
    msgs: u64,
    bytes: u64,
    delivered: u64,
    counts: Vec<(&'static str, u64)>,
}

fn run_observed(cfg: &CampaignConfig, cell: &PlannedCell, s: u32) -> Observed {
    let sched = &cell.schedules[s as usize];
    let ((report, rec), run) = timed(|| {
        cell.system
            .run_observed(&sched.scenario, cell.horizon, sim_seed(cfg.seed, 0))
    });
    let (violations, score) = timed(|| score(&cell.system, sched, &report, cfg.slack));
    std::hint::black_box(violations);
    // The phase fold is defined per fault; these schedules inject one.
    let timeline = match sched.scenario.faults.as_slice() {
        [fault] => Some(RecoveryTimeline::fold(
            fault.node,
            fault.at,
            report.recovery.bad_window(),
            cell.system.strategy().r_bound,
            rec.marks(),
        )),
        _ => None,
    };
    let prof = rec.subsystem_profile();
    Observed {
        run,
        score,
        timeline,
        msgs: report.metrics.msgs_sent,
        bytes: report.metrics.bytes_sent,
        delivered: report.metrics.msgs_delivered,
        counts: Subsystem::all()
            .iter()
            .map(|&s| (s.label(), prof.count(s)))
            .collect(),
    }
}

/// What the traced repeats of the grid measured, per run index; host
/// times keep the best repetition.
#[derive(Default)]
struct Repeats {
    build_us: Vec<f64>,
    sim_us: Vec<f64>,
    judge_us: Vec<f64>,
    score_us: Vec<f64>,
    observed_ms: Vec<f64>,
    /// The first repetition's simulated results (they repeat exactly).
    observed: Vec<Observed>,
}

fn keep_best(best: &mut Vec<f64>, i: usize, sample: f64) {
    if best.len() <= i {
        best.resize(i + 1, f64::INFINITY);
    }
    best[i] = best[i].min(sample);
}

impl Repeats {
    /// Run the whole grid again in pieces and again observed, and file
    /// the spans (consecutive runs are in flight together, so they go
    /// on alternating lanes).
    fn add(
        &mut self,
        cfg: &CampaignConfig,
        cells: &[PlannedCell],
        specs: &[(u16, u32)],
        threads: usize,
        tracer: &mut Tracer,
    ) {
        let span = tracer.begin("campaign.pass(pieces)", 0);
        let pieces = run_indexed(specs.len(), threads, |i| {
            let (c, s) = specs[i];
            run_in_pieces(cfg, &cells[c as usize], s)
        });
        for (i, p) in pieces.iter().enumerate() {
            let (op, lane) = (i as u64, (i % threads) as u32 + 1);
            tracer.record(
                "core.BtrSystem::build_world",
                op,
                lane,
                p.build.start,
                p.build.end,
            );
            tracer.record("sim.World::run_until", op, lane, p.sim.start, p.sim.end);
            tracer.record(
                "core.BtrSystem::judge_actuations",
                op,
                lane,
                p.judge.start,
                p.judge.end,
            );
            keep_best(&mut self.build_us, i, p.build.ms() * 1e3);
            keep_best(&mut self.sim_us, i, p.sim.ms() * 1e3);
            keep_best(&mut self.judge_us, i, p.judge.ms() * 1e3);
        }
        tracer.end(span);
        let span = tracer.begin("campaign.pass(observed)", 0);
        let observed = run_indexed(specs.len(), threads, |i| {
            let (c, s) = specs[i];
            run_observed(cfg, &cells[c as usize], s)
        });
        for (i, o) in observed.iter().enumerate() {
            let (op, lane) = (i as u64, (i % threads) as u32 + 1);
            tracer.record(
                "core.BtrSystem::run_observed",
                op,
                lane,
                o.run.start,
                o.run.end,
            );
            tracer.record(
                "campaign.verdict::score",
                op,
                lane,
                o.score.start,
                o.score.end,
            );
            keep_best(&mut self.observed_ms, i, o.run.ms());
            keep_best(&mut self.score_us, i, o.score.ms() * 1e3);
        }
        tracer.end(span);
        if self.observed.is_empty() {
            self.observed = observed;
        }
    }
}

pub fn run(args: &RunArgs, tracer: &mut Tracer, calib: &mut Calibrator) -> Outcome {
    let budget = Budget::new(args.seconds);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = Outcome::default();
    let mut cfg = CampaignConfig::new(args.seed, 0, threads);
    cfg.sim_seeds = 1;
    // The cells of this run, by their place in the default grid (which
    // is what deals a cell its fault variants, traced or not).
    let grid: Vec<usize> = (0..cfg.cells.len())
        .filter(|&c| tracer.on() || cfg.cells[c].topo.n_nodes() <= TIMED_CELL_NODES)
        .collect();
    cfg.cells = grid.iter().map(|&c| cfg.cells[c].clone()).collect();
    let per_cell = if args.smoke {
        SMOKE_SCHEDULES_PER_CELL
    } else {
        SCHEDULES_PER_CELL
    };
    cfg.runs = per_cell * cfg.cells.len();

    let mut first: Option<Vec<RunRecord>> = None;
    // Per run index, its wall ms in every pass.
    let mut run_ms: Vec<Vec<f64>> = vec![];
    // Per batch, its wall seconds in every pass.
    let mut batch_s: Vec<Vec<f64>> = vec![];
    let (mut allocs, mut peak) = (vec![], vec![]);
    let mut repeats = Repeats::default();
    let mut last_cells = None;
    let mut slice = 0u64;
    while slice < 1 || !budget.spent() {
        calib.sample();
        let span = tracer.begin("campaign.plan_cells", slice);
        let planned = out.set_up(2, || {
            plan_cells(&cfg).map(|mut cells| {
                for (c, cell) in cells.iter_mut().enumerate() {
                    cell.schedules = schedule_table(grid[c], cell, per_cell, args.seed);
                }
                cells
            })
        });
        tracer.end(span);
        let cells = match planned {
            Ok(cells) => cells,
            Err(e) => {
                out.check(Some(format!("grid failed to plan: {e}")));
                return out;
            }
        };
        let specs = run_specs(&cells);

        alloc::reset_peak();
        let allocs_before = alloc::allocations();
        let span = tracer.begin("campaign.pass", slice);
        let (runs, walls) = pass(&cfg, &cells, &specs, threads);
        for (i, (_, at)) in runs.iter().enumerate() {
            let lane = (i % threads) as u32 + 1;
            tracer.record("campaign.execute_run", i as u64, lane, at.start, at.end);
        }
        tracer.end(span);
        allocs.push((alloc::allocations() - allocs_before) as f64 / runs.len() as f64);
        peak.push(alloc::peak_bytes() as f64);
        batch_s.resize(walls.len(), vec![]);
        for (b, wall) in walls.into_iter().enumerate() {
            batch_s[b].push(wall);
        }

        run_ms.resize(runs.len(), vec![]);
        for (i, (rec, at)) in runs.iter().enumerate() {
            run_ms[i].push(at.ms());
            let problem = if rec.admissible && !rec.violations.is_empty() {
                Some(format!("run {i} ({}): {:?}", rec.label, rec.violations))
            } else if first.as_ref().is_some_and(|f| f[i] != *rec) {
                Some(format!("run {i} differs between passes of one seed"))
            } else {
                None
            };
            out.check(problem);
        }
        if first.is_none() {
            first = Some(runs.into_iter().map(|(rec, _)| rec).collect());
        }
        if tracer.on() {
            repeats.add(&cfg, &cells, &specs, threads, tracer);
        }
        last_cells = Some((cells, specs));
        slice += 1;
    }

    let records = first.expect("at least one slice ran");
    let (cells, specs) = last_cells.expect("at least one slice ran");
    let per_run_ms: Vec<f64> = run_ms.iter().map(|v| stats::best(v)).collect();
    let grid_s: f64 = batch_s.iter().map(|v| stats::best(v)).sum();
    out.throughput_per_s = specs.len() as f64 / grid_s;
    out.latency_ms_p50 = stats::median(&per_run_ms);
    out.allocs_per_op = stats::median(&allocs);
    out.peak_heap_mb = stats::worst(&peak) / MIB;

    // One worker must produce what many did (and, traced, how much
    // longer it takes is the speed-up).
    let span = tracer.begin("campaign.pass(1 thread)", 0);
    let start = Instant::now();
    let sequential = run_indexed(specs.len(), 1, |i| {
        let (c, s) = specs[i];
        execute_run(&cfg, &cells, i as u32, c, s, 0)
    });
    let sequential_s = start.elapsed().as_secs_f64();
    tracer.end(span);
    for (i, rec) in sequential.iter().enumerate() {
        out.check(
            (*rec != records[i]).then(|| format!("run {i} differs at 1 vs {threads} threads")),
        );
    }

    if tracer.on() {
        let n = specs.len();
        out.layer("runs_per_s", out.throughput_per_s);
        out.layer("run_ms_p50", out.latency_ms_p50);
        out.layer("run_ms_p95", stats::quantile(&per_run_ms, 0.95));
        out.layer("campaign.parallel_speedup", sequential_s / grid_s);
        out.layer(
            "campaign.plan_cells_ms",
            stats::best(&tracer.durations_us("campaign.plan_cells")) / 1e3,
        );
        let by_nodes = |pick: &dyn Fn(usize) -> bool| -> f64 {
            let ms: Vec<f64> = (0..n)
                .filter(|&i| pick(cells[specs[i].0 as usize].spec.topo.n_nodes()))
                .map(|i| per_run_ms[i])
                .collect();
            stats::median(&ms)
        };
        out.layer("campaign.run_ms_p50.n9", by_nodes(&|nodes| nodes <= 9));
        out.layer("campaign.run_ms_p50.n36", by_nodes(&|nodes| nodes == 36));

        let recovery_ms: Vec<f64> = records
            .iter()
            .filter(|r| r.n_faults > 0)
            .map(|r| r.recovery_us as f64 / 1e3)
            .collect();
        out.layer("recovery_ms_p50", stats::median(&recovery_ms));
        out.layer("recovery_ms_p95", stats::quantile(&recovery_ms, 0.95));
        let slack = records
            .iter()
            .filter(|r| r.admissible)
            .map(|r| r.slack_us)
            .min()
            .unwrap_or(0);
        out.layer("slack_to_r_ms_min", slack as f64 / 1e3);
        out.layer(
            "detector.near_miss_per_run",
            stats::mean(records.iter().map(|r| r.near_misses as f64)),
        );
        out.layer(
            "detector.suppressed_per_run",
            stats::mean(records.iter().map(|r| r.suppressed as f64)),
        );
        out.layer(
            "detector.excess_convictions",
            records
                .iter()
                .map(|r| r.convictions as f64 - r.n_faults as f64)
                .sum(),
        );

        out.layer("core.build_world_us", stats::median(&repeats.build_us));
        out.layer("core.sim_run_us", stats::median(&repeats.sim_us));
        out.layer("core.judge_us", stats::median(&repeats.judge_us));
        out.layer("campaign.score_us_p50", stats::median(&repeats.score_us));
        // The pieces against the whole they were cut from.
        let pieces_ms: f64 = (0..n)
            .map(|i| {
                (repeats.build_us[i]
                    + repeats.sim_us[i]
                    + repeats.judge_us[i]
                    + repeats.score_us[i])
                    / 1e3
            })
            .sum();
        out.layer(
            "core.span_coverage_pct",
            pieces_ms / per_run_ms.iter().sum::<f64>() * 100.0,
        );
        let plain_ms: f64 = pieces_ms - repeats.score_us.iter().sum::<f64>() / 1e3;
        out.layer(
            "obs.recorder_overhead_pct",
            (repeats.observed_ms.iter().sum::<f64>() / plain_ms - 1.0) * 100.0,
        );
        let observed = &repeats.observed;
        let per_delivery: Vec<f64> = observed
            .iter()
            .zip(&per_run_ms)
            .map(|(o, ms)| ms * 1e3 / o.delivered.max(1) as f64)
            .collect();
        out.layer("core.us_per_delivery", stats::median(&per_delivery));
        out.layer(
            "runtime.msgs_per_run",
            stats::mean(observed.iter().map(|o| o.msgs as f64)),
        );
        out.layer(
            "runtime.bytes_per_run",
            stats::mean(observed.iter().map(|o| o.bytes as f64)),
        );
        for (at, &(label, _)) in observed[0].counts.iter().enumerate() {
            let total: u64 = observed.iter().map(|o| o.counts[at].1).sum();
            out.layer(&format!("sim.count.{label}"), total as f64);
        }
        let timelines: Vec<&RecoveryTimeline> = observed
            .iter()
            .filter_map(|o| o.timeline.as_ref())
            .collect();
        out.phase_layers(&timelines);
        for t in &timelines {
            out.check(
                (t.phases_sum() != t.recovery_us)
                    .then(|| format!("phases of {} do not add up to its recovery", t.subject)),
            );
        }
        probes::crypto(&mut out, tracer, AuthSuite::HmacSha256, args.seed);
    }
    out
}
