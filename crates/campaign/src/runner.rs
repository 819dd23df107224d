//! The parallel campaign runner.
//!
//! Work-stealing over the run grid (cell × schedule × sim seed) on
//! `std::thread::scope`: workers claim run indices from a shared atomic
//! counter, execute independently (each run builds its own simulator
//! world from shared, immutable planned systems), and the main thread
//! merges per-worker results back into run-index order. Because every
//! run is a pure function of its spec, the merged record vector is
//! **bit-identical at any thread count** — the determinism tests and the
//! report digest both pin this.

use crate::grid::{CellError, CellSpec};
use crate::schedule::{self, FaultSchedule, ScheduleParams};
use crate::verdict::{budget, violations, Finished, Violation};
use crate::Timing;
use btr_core::BtrSystem;
use btr_model::Duration;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-run simulator event cap of every campaign, fuzz and shrink run,
/// pinned into each replay token as `me=` so a truncated run reproduces.
pub(crate) const MAX_EVENTS: u64 = 20_000_000;

/// Campaign-wide configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed: fixes schedules and per-run simulator seeds.
    pub seed: u64,
    /// Target total number of runs (split evenly across cells).
    pub runs: usize,
    /// Worker threads.
    pub threads: usize,
    /// Simulator seeds per (cell, schedule).
    pub sim_seeds: u32,
    /// Sample sequential multi-fault schedules up to budget f (hunting
    /// mode; the sequential space has known findings).
    pub combos: bool,
    /// Include f+1-fault (inadmissible) schedules.
    pub over_budget: bool,
    /// Extra tolerance on the R-bound check.
    pub slack: Duration,
    /// The grid.
    pub cells: Vec<CellSpec>,
}

impl CampaignConfig {
    /// A campaign over the default grid.
    pub fn new(seed: u64, runs: usize, threads: usize) -> CampaignConfig {
        CampaignConfig {
            seed,
            runs,
            threads,
            sim_seeds: 2,
            combos: false,
            over_budget: false,
            slack: Duration::ZERO,
            cells: crate::grid::default_grid(),
        }
    }

    /// Schedules each cell draws: the target run count spread over the
    /// cells and simulator seeds, rounded up, at least one.
    pub fn schedules_per_cell(&self) -> usize {
        let spread = self.cells.len().max(1) * self.sim_seeds.max(1) as usize;
        self.runs.div_ceil(spread).max(1)
    }

    /// The runs [`execute`] performs: cells × schedules per cell ×
    /// simulator seeds (saturating). A ceiling on a campaign's size must
    /// bound this, not the target `runs` it is rounded up from.
    pub fn executed_runs(&self) -> usize {
        self.cells
            .len()
            .saturating_mul(self.schedules_per_cell())
            .saturating_mul(self.sim_seeds.max(1) as usize)
    }
}

/// One scored run (everything in here is deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// Dense run index (the merge order).
    pub run_idx: u32,
    /// Cell index into the campaign's grid.
    pub cell_idx: u16,
    /// Schedule id within the cell.
    pub schedule_id: u32,
    /// Simulator seed used.
    pub sim_seed: u64,
    /// Kind signature of the schedule, e.g. `crash+omission`.
    pub label: String,
    /// Number of injected faults.
    pub n_faults: u8,
    /// True when the schedule stays within the cell's fault budget f.
    pub admissible: bool,
    /// Measured bad-output window in µs (0 = masked or fault-free).
    pub recovery_us: u64,
    /// Schedule slack to the R bound in µs: the recovery budget the
    /// schedule had — `(last_at − first_at) + R` for faulted runs, `R`
    /// for fault-free — minus the measured window. Negative when the
    /// bound was blown; campaigns score schedules by minimum slack.
    pub slack_us: i64,
    /// Unacceptable output slots.
    pub bad_outputs: u32,
    /// Judged output slots.
    pub total_outputs: u32,
    /// All correct nodes ended on identical fault sets and plans.
    pub converged: bool,
    /// Evidence-pool near misses summed over correct nodes: suspects
    /// left one accuser short of conviction when the run ended. A fuzzer
    /// score signal; **excluded from `runs_digest`** so pre-existing
    /// replay tokens and report digests are unperturbed.
    pub near_misses: u64,
    /// Path declarations withheld by the cascade gates, summed over
    /// correct nodes. Also excluded from `runs_digest`.
    pub suppressed: u64,
    /// Largest fault set any correct node ended on (convictions). Also
    /// excluded from `runs_digest`.
    pub convictions: u32,
    /// Broken claims (empty = clean run).
    pub violations: Vec<Violation>,
}

impl RunRecord {
    /// The one fold from a finished run to its record, on either
    /// substrate: the oracle's verdicts, the window and its slack to
    /// the schedule's budget, and the detector counters summed over the
    /// correct nodes. `f` and R are the planned system's. The three
    /// indices say where a run sat in a grid, which the run itself does
    /// not know: they are zero here and the caller's to set.
    pub fn judge(
        sys: &BtrSystem,
        sched: &FaultSchedule,
        sim_seed: u64,
        run: Finished<'_>,
        slack: Duration,
    ) -> RunRecord {
        let strategy = sys.strategy();
        let recovery_us = run.recovery.bad_window().as_micros();
        let budget_us = budget(&sched.scenario, strategy.r_bound).as_micros();
        let stats = || run.node_stats.iter();
        RunRecord {
            run_idx: 0,
            cell_idx: 0,
            schedule_id: 0,
            sim_seed,
            label: sched.label(),
            n_faults: sched.scenario.faults.len() as u8,
            admissible: sched.budget() <= strategy.f as usize,
            recovery_us,
            slack_us: budget_us as i64 - recovery_us as i64,
            bad_outputs: run.recovery.bad_outputs as u32,
            total_outputs: run.recovery.total_outputs as u32,
            converged: run.converged,
            near_misses: stats().map(|(_, s, _, _)| s.near_miss_accusations).sum(),
            suppressed: stats().map(|(_, s, _, _)| s.suppressed_declarations).sum(),
            convictions: stats().map(|(.., fs)| *fs as u32).max().unwrap_or(0),
            violations: violations(sys, &sched.scenario, run, slack),
        }
    }
}

/// A planned cell with its generated schedule set.
pub struct PlannedCell {
    /// The cell's spec.
    pub spec: CellSpec,
    /// The planned system (shared, immutable, run from many threads).
    pub system: BtrSystem,
    /// The cell's schedules.
    pub schedules: Vec<FaultSchedule>,
    /// The judging horizon for this cell's runs.
    pub horizon: Duration,
    /// The schedule-generation parameters the cell's schedules were
    /// drawn under (the fuzzer mutates within the same bounds).
    pub params: ScheduleParams,
}

/// Plan every cell and generate its schedules. Deterministic; the
/// expensive planner work is shared by all runs of a cell.
pub fn plan_cells(cfg: &CampaignConfig) -> Result<Vec<PlannedCell>, CellError> {
    let per_cell = cfg.schedules_per_cell();
    cfg.cells
        .iter()
        .map(|spec| {
            let system = spec.plan()?.with_max_events(MAX_EVENTS);
            let period = system.workload().period;
            let deadline = system
                .workload()
                .sinks()
                .map(|s| s.deadline)
                .min()
                .unwrap_or(period);
            let params = spec.schedule_params(period, deadline, cfg.combos, cfg.over_budget);
            let schedules = schedule::generate(&params, cfg.seed, per_cell);
            let horizon = spec.horizon(period, cfg.combos, cfg.over_budget);
            Ok(PlannedCell {
                spec: spec.clone(),
                system,
                schedules,
                horizon,
                params,
            })
        })
        .collect()
}

/// The simulator seed for seed-slot `k` of a campaign.
pub fn sim_seed(campaign_seed: u64, k: u32) -> u64 {
    // SplitMix64 finalizer over (seed, k): decorrelates neighbouring
    // campaign seeds without any per-run state.
    let mut z = campaign_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Execute one run and score it.
pub fn execute_run(
    cfg: &CampaignConfig,
    cells: &[PlannedCell],
    run_idx: u32,
    cell_idx: u16,
    schedule_id: u32,
    seed_slot: u32,
) -> RunRecord {
    run_and_score(cfg, cells, run_idx, cell_idx, schedule_id, seed_slot).0
}

/// [`execute_run`], plus the messages the run delivered (the base of the
/// timing region's MACs-per-delivery figure; not part of the record).
fn run_and_score(
    cfg: &CampaignConfig,
    cells: &[PlannedCell],
    run_idx: u32,
    cell_idx: u16,
    schedule_id: u32,
    seed_slot: u32,
) -> (RunRecord, u64) {
    let cell = &cells[cell_idx as usize];
    let sched = &cell.schedules[schedule_id as usize];
    let seed = sim_seed(cfg.seed, seed_slot);
    let report = cell.system.run(&sched.scenario, cell.horizon, seed);
    let record = RunRecord {
        run_idx,
        cell_idx,
        schedule_id,
        ..RunRecord::judge(&cell.system, sched, seed, (&report).into(), cfg.slack)
    };
    (record, report.metrics.msgs_delivered)
}

/// The work-stealing primitive every fleet in this workspace runs on:
/// execute `f(0..n)` on `threads` scoped workers claiming indices from a
/// shared atomic counter, and merge the results back into index order.
/// Because each item is a pure function of its index, the merged vector
/// is **bit-identical at any thread count** — the campaign runner, the
/// fuzzer's batch executor, and the e1–e10 experiment fleet all inherit
/// the determinism contract from this one function.
pub fn run_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, T)>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            buckets.push(h.join().expect("work-stealing worker panicked"));
        }
    });
    // Per-worker vectors are already sorted by index (the counter is
    // monotone), so a flatten + sort is cheap.
    let mut items: Vec<(usize, T)> = buckets.into_iter().flatten().collect();
    items.sort_by_key(|(i, _)| *i);
    items.into_iter().map(|(_, t)| t).collect()
}

/// Run the whole grid at `cfg.threads`, returning records in run order
/// plus what the execution phase cost: its wall time, and the MACs the
/// runs computed against the messages they delivered (each worker reads
/// its own thread's `btr_crypto::mac_count` around each run).
pub fn execute(cfg: &CampaignConfig, cells: &[PlannedCell]) -> (Vec<RunRecord>, Timing) {
    // Lay the grid out cell-major so the report reads naturally.
    let mut specs: Vec<(u16, u32, u32)> = Vec::new();
    for (c, cell) in cells.iter().enumerate() {
        for s in 0..cell.schedules.len() as u32 {
            for k in 0..cfg.sim_seeds.max(1) {
                specs.push((c as u16, s, k));
            }
        }
    }
    let started = std::time::Instant::now();
    let runs = run_indexed(specs.len(), cfg.threads, |i| {
        let (c, s, k) = specs[i];
        let macs_before = btr_crypto::mac_count();
        let (record, delivered) = run_and_score(cfg, cells, i as u32, c, s, k);
        (record, btr_crypto::mac_count() - macs_before, delivered)
    });
    let mut timing = Timing {
        threads: cfg.threads,
        wall_ns: started.elapsed().as_nanos() as u64,
        runs: runs.len(),
        macs: 0,
        delivered: 0,
    };
    let records = runs
        .into_iter()
        .map(|(record, macs, delivered)| {
            timing.macs += macs;
            timing.delivered += delivered;
            record
        })
        .collect();
    (records, timing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::TopoSpec;
    use crate::replay;
    use crate::schedule::FaultVariant;
    use btr_crypto::AuthSuite;

    /// A one-cell config small enough for unit tests.
    pub(crate) fn tiny_config(threads: usize) -> CampaignConfig {
        CampaignConfig {
            seed: 9,
            runs: 8,
            threads,
            sim_seeds: 1,
            combos: false,
            over_budget: false,
            slack: Duration::ZERO,
            cells: vec![CellSpec {
                workload: "avionics".into(),
                topo: TopoSpec::Bus {
                    n: 9,
                    bytes_per_ms: 100_000,
                    latency_us: 5,
                },
                f: 1,
                r_bound: Duration::from_millis(150),
                auth: AuthSuite::HmacSha256,
                variants: vec![FaultVariant::CRASH, FaultVariant::COMMISSION],
            }],
        }
    }

    #[test]
    fn run_indexed_merges_in_index_order_at_any_thread_count() {
        let f = |i: usize| (i * i) as u64;
        let seq = run_indexed(37, 1, f);
        assert_eq!(seq.len(), 37);
        for (i, v) in seq.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
        assert_eq!(seq, run_indexed(37, 4, f));
        assert!(run_indexed(0, 3, f).is_empty());
    }

    #[test]
    fn executed_runs_counts_what_execute_runs() {
        // 5 runs over 1 cell and 2 seeds round up to 3 schedules: 6 runs.
        let mut cfg = tiny_config(1);
        (cfg.runs, cfg.sim_seeds) = (5, 2);
        let cells = plan_cells(&cfg).expect("plans");
        assert_eq!(cells[0].schedules.len(), cfg.schedules_per_cell());
        assert_eq!(execute(&cfg, &cells).0.len(), 6);
        assert_eq!(cfg.executed_runs(), 6);
        // Far past any ceiling, without overflow.
        (cfg.runs, cfg.sim_seeds) = (usize::MAX, u32::MAX);
        assert_eq!(cfg.executed_runs(), usize::MAX);
        (cfg.runs, cfg.sim_seeds) = (1, u32::MAX);
        assert_eq!(cfg.executed_runs(), u32::MAX as usize);
    }

    #[test]
    fn sim_seed_is_stable_and_spread() {
        assert_eq!(sim_seed(7, 0), sim_seed(7, 0));
        assert_ne!(sim_seed(7, 0), sim_seed(7, 1));
        assert_ne!(sim_seed(7, 0), sim_seed(8, 0));
    }

    #[test]
    fn records_are_merged_in_run_order_and_thread_invariant() {
        let cfg1 = tiny_config(1);
        let cells = plan_cells(&cfg1).expect("plans");
        let (seq, _) = execute(&cfg1, &cells);
        assert_eq!(seq.len(), 8);
        for (i, r) in seq.iter().enumerate() {
            assert_eq!(r.run_idx, i as u32);
        }
        let cfg3 = tiny_config(3);
        let (par, _) = execute(&cfg3, &cells);
        assert_eq!(seq, par, "records must not depend on thread count");
        // Every record survives its own replay token, but for the grid
        // indices, which a token does not carry.
        for r in &seq {
            let cell = &cells[r.cell_idx as usize];
            let scenario = &cell.schedules[r.schedule_id as usize].scenario;
            let tok = replay::token(&cell.spec, r.sim_seed, cell.horizon, MAX_EVENTS, scenario);
            let replayed = replay::run(&replay::parse(&tok).expect("parses")).expect("replays");
            let replayed = RunRecord {
                run_idx: r.run_idx,
                cell_idx: r.cell_idx,
                schedule_id: r.schedule_id,
                ..replayed
            };
            assert_eq!(replayed, *r, "{tok}");
        }
    }

    #[test]
    fn default_tiny_campaign_is_clean() {
        let cfg = tiny_config(2);
        let cells = plan_cells(&cfg).expect("plans");
        let (records, _) = execute(&cfg, &cells);
        for r in &records {
            assert!(r.admissible);
            assert!(
                r.violations.is_empty(),
                "run {}: {:?}",
                r.run_idx,
                r.violations
            );
        }
    }
}
