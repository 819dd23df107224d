//! # btr-campaign — parallel fault-injection campaigns
//!
//! The paper's whole claim is a *bound*: under any admissible fault
//! pattern, recovery completes within R (Definition 3.1). The experiment
//! suite checks a handful of hand-written scenarios; this crate turns
//! the `Attack`/`FaultScenario` machinery into an adversarial *campaign*
//! engine that sweeps the fault space systematically and triages what it
//! finds:
//!
//! * [`schedule`] — deterministic schedule generation: boundary
//!   enumeration straddling period/deadline instants plus seeded
//!   sampling of sequential multi-fault scripts up to (and, on request,
//!   beyond) the budget f. A pure function of the seed.
//! * [`grid`] — the campaign grid: planned (workload × platform × f)
//!   cells, each pinned to the fault-variant space it is known to cover.
//! * [`runner`] — a work-stealing parallel runner on
//!   `std::thread::scope`; results merge in run order, so reports are
//!   bit-identical at any thread count. [`RunRecord::judge`] is the one
//!   fold from a finished run, on either substrate, to its record: the
//!   campaign, the fuzzer, the shrinker and both replays call it.
//! * [`verdict`] — the oracle: R-bound, pre-fault correctness, and
//!   criticality-ordered shedding, over what a finished run hands over
//!   ([`Finished`]); the recovery budget is computed here only.
//! * `shrink` — delta-debugs violating schedules to minimal
//!   reproducers (fewest faults, latest activation).
//! * [`replay`] — one-string replay tokens for shrunk reproducers.
//! * [`report`] — aggregation and the `CAMPAIGN_btr.json` writer, with
//!   a deterministic region and a separate timing region that records
//!   the 1-thread vs N-thread scaling trajectory.
//! * [`score`] — fuzzer run scoring (slack-to-R, evidence-pool near
//!   misses, excess convictions) and the phase-timeline coverage
//!   signature.
//! * [`corpus`] — the fuzzer's bounded corpus, deduped by
//!   shrinker-canonical replay keys.
//! * [`fuzz`] — coverage-guided schedule search over the mutation
//!   operators, generational and byte-identical at any thread count;
//!   writes `FUZZ_btr.json`.
//!
//! Entry points: [`run_campaign`], [`fuzz::run_fuzz`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod fuzz;
pub mod grid;
pub mod replay;
pub mod report;
pub mod runner;
pub mod schedule;
pub mod score;
pub(crate) mod shrink;
pub mod verdict;

pub use corpus::Corpus;
pub use fuzz::{run_fuzz, FuzzConfig};
pub use grid::{all_variant_grid, auth_sweep, with_auth, CellSpec, TopoSpec};
pub use runner::{CampaignConfig, RunRecord};
pub use schedule::{FaultSchedule, FaultVariant, ScheduleParams};
pub use shrink::ShrinkOutcome;
pub use verdict::Finished;

use grid::CellError;

/// Wall-clock measurement of one execution pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Worker threads used.
    pub threads: usize,
    /// Wall time of the execution phase (ns).
    pub wall_ns: u64,
    /// Runs executed.
    pub runs: usize,
    /// MAC tags the runs computed, signing and verifying (a count, the
    /// same at any thread count; reported as a cost, beside the wall
    /// time, not as part of any verdict).
    pub macs: u64,
    /// Messages the runs delivered.
    pub delivered: u64,
}

impl Timing {
    /// Campaign throughput in runs per wall-clock second.
    pub fn runs_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return f64::NAN;
        }
        self.runs as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// MACs computed per delivered message: about two when every signed
    /// thing is signed once and checked once by each receiver.
    pub fn macs_per_delivery(&self) -> f64 {
        self.macs as f64 / self.delivered as f64
    }
}

/// Static summary of one planned cell (for the report header).
#[derive(Debug, Clone)]
pub(crate) struct CellSummary {
    /// Display name.
    pub(crate) name: String,
    /// Workload family.
    pub(crate) workload: String,
    /// Topology token.
    pub(crate) topology: String,
    /// Node count.
    pub(crate) nodes: usize,
    /// Fault budget.
    pub(crate) f: u8,
    /// Recovery bound (µs).
    pub(crate) r_bound_us: u64,
    /// Judging horizon (µs).
    pub(crate) horizon_us: u64,
    /// Schedules generated for the cell.
    pub(crate) schedules: usize,
    /// Variant labels scheduled on the cell.
    pub(crate) variants: Vec<&'static str>,
    /// Digest-stable per-subsystem event counts from one observed
    /// fault-free reference run of the cell (zero subsystems omitted).
    /// A pure function of the cell and campaign seed, so it lives in
    /// the report's deterministic region.
    pub(crate) profile: Vec<(&'static str, u64)>,
    /// Messages delivered in the reference run.
    pub(crate) delivered: u64,
}

/// Everything a finished campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The configuration the campaign ran with.
    pub(crate) config: CampaignConfig,
    /// Per-cell summaries, in grid order.
    pub(crate) cells: Vec<CellSummary>,
    /// Every scored run, in run order (deterministic).
    pub records: Vec<RunRecord>,
    /// Minimal reproducers for violating runs (capped).
    pub shrunk: Vec<ShrinkOutcome>,
    /// Execution timings: always the 1-thread pass, plus the N-thread
    /// pass when more than one thread was requested.
    pub scaling: Vec<Timing>,
}

impl CampaignOutcome {
    /// Violating runs that were within the admitted fault budget — the
    /// count CI gates on (zero on the default grid).
    pub fn admissible_violations(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.admissible && !r.violations.is_empty())
            .count()
    }

    /// Render the full `CAMPAIGN_btr.json` contents.
    pub fn to_json(&self) -> String {
        report::render(self)
    }
}

/// Campaign-level failures.
#[derive(Debug)]
pub enum CampaignError {
    /// A grid cell failed to plan.
    Cell(CellError),
    /// The parallel pass disagreed with the sequential pass — a
    /// determinism bug in the stack, reported rather than papered over.
    Nondeterministic {
        /// Index of the first diverging run.
        first_divergence: u32,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Cell(e) => write!(f, "{e}"),
            CampaignError::Nondeterministic { first_divergence } => write!(
                f,
                "parallel execution diverged from sequential at run {first_divergence}"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

/// One observed fault-free reference run of a planned cell: the
/// digest-stable subsystem count profile and delivered-message total
/// for the report header. Event counts are a pure function of the
/// logical schedule — thread- and suite-invariant — so they belong in
/// the deterministic region alongside the cell's static summary.
fn cell_profile(
    cell: &runner::PlannedCell,
    cfg: &CampaignConfig,
) -> (Vec<(&'static str, u64)>, u64) {
    use btr_obs::Subsystem;
    let (report, rec) = cell.system.run_observed(
        &btr_core::FaultScenario::none(),
        cell.horizon,
        runner::sim_seed(cfg.seed, 0),
    );
    let prof = rec.subsystem_profile();
    let counts = Subsystem::all()
        .iter()
        .filter_map(|&s| {
            let n = prof.count(s);
            (n > 0).then_some((s.label(), n))
        })
        .collect();
    (counts, report.metrics.msgs_delivered)
}

/// How many violating runs get shrunk per campaign (shrinking costs
/// dozens of probe simulations each; the first few reproducers are the
/// actionable ones).
pub(crate) const MAX_SHRINKS: usize = 4;

/// Simulation-probe budget per shrink.
pub(crate) const SHRINK_PROBES: u32 = 96;

/// Plan, execute, verify determinism, shrink, and summarize a campaign.
///
/// The grid always runs once at 1 thread, and again at `cfg.threads`
/// when more are requested. The two record sets must be identical — the
/// second pass doubles as a standing determinism check on the whole
/// stack — and both wall times are reported as the scaling trajectory.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignOutcome, CampaignError> {
    let cells = runner::plan_cells(cfg).map_err(CampaignError::Cell)?;

    let mut seq_cfg = cfg.clone();
    seq_cfg.threads = 1;
    let (records, seq_timing) = runner::execute(&seq_cfg, &cells);
    let mut scaling = vec![seq_timing];

    if cfg.threads > 1 {
        let (par_records, par_timing) = runner::execute(cfg, &cells);
        if let Some(first) = records
            .iter()
            .zip(&par_records)
            .position(|(a, b)| a != b)
            .or((records.len() != par_records.len())
                .then_some(records.len().min(par_records.len())))
        {
            return Err(CampaignError::Nondeterministic {
                first_divergence: first as u32,
            });
        }
        scaling.push(par_timing);
    }

    // Shrink the first few violating runs to minimal reproducers.
    let mut shrunk = Vec::new();
    for r in records.iter().filter(|r| !r.violations.is_empty()) {
        if shrunk.len() >= MAX_SHRINKS {
            break;
        }
        let cell = &cells[r.cell_idx as usize];
        let schedule = &cell.schedules[r.schedule_id as usize];
        shrunk.push(shrink::shrink_violation(
            cell,
            schedule,
            r.sim_seed,
            r.run_idx,
            cfg.slack,
            SHRINK_PROBES,
        ));
    }

    let cells_summary = cells
        .iter()
        .map(|c| {
            let (profile, delivered) = cell_profile(c, cfg);
            CellSummary {
                name: c.spec.name(),
                workload: c.spec.workload.clone(),
                topology: c.spec.topo.token(),
                nodes: c.spec.topo.n_nodes(),
                f: c.spec.f,
                r_bound_us: c.spec.r_bound.as_micros(),
                horizon_us: c.horizon.as_micros(),
                schedules: c.schedules.len(),
                variants: c.spec.variants.iter().map(|v| v.label()).collect(),
                profile,
                delivered,
            }
        })
        .collect();

    Ok(CampaignOutcome {
        config: cfg.clone(),
        cells: cells_summary,
        records,
        shrunk,
        scaling,
    })
}
