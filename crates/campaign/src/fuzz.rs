//! Coverage-guided fault-schedule search.
//!
//! `btr-campaign`'s grid sweeps the fault space *uniformly*; the fuzzer
//! spends the same simulation budget *adaptively*. Each executed run is
//! scored ([`crate::score`]) and fingerprinted with a phase-timeline
//! coverage signature; interesting schedules enter a bounded corpus
//! ([`crate::corpus`]) keyed by shrinker-canonical replay form, and new
//! batches are bred from the corpus with the seeded mutation operators
//! in [`crate::schedule::mutate`] — including chain extension to the
//! cell's full budget, which is how 1-fault seeds evolve into the f=3
//! sequential chains the `fuzz_grid` hunts.
//!
//! **Determinism.** The search is generational: a batch's jobs are a
//! pure function of the corpus state *after the previous batch*, jobs
//! execute on [`crate::runner::run_indexed`] (results merge in index
//! order at any thread count), and corpus/coverage updates fold
//! sequentially in that order. So the entire outcome — corpus digest,
//! coverage curve, violation tokens, `FUZZ_btr.json` bytes — is a pure
//! function of `(seed, budget)` and is **byte-identical at any thread
//! count**. CI pins this by diffing a 1-thread and an N-thread run.

use crate::corpus::{canonical_key, Corpus};
use crate::grid::{CellError, CellSpec};
use crate::replay;
use crate::runner::{self, run_indexed, CampaignConfig, PlannedCell, RunRecord, MAX_EVENTS};
use crate::schedule::{mutate, FaultSchedule, FaultVariant};
use crate::score::{base_score, signature, NEW_COVERAGE_PTS};
use btr_model::Duration;
use btr_obs::json::{self, Layout};
use std::collections::BTreeSet;

/// Seed schedules generated per cell before mutation takes over.
const SEED_SCHEDULES_PER_CELL: usize = 12;
/// Corpus capacity.
const CORPUS_MAX: usize = 64;
/// Mutants bred per generation. Fixed independently of the thread
/// count: batch composition is part of the deterministic outcome.
const BATCH: usize = 16;
/// Cap on distinct admissible-violation tokens kept in the outcome.
const MAX_VIOLATION_TOKENS: usize = 32;

/// Fuzzing campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed: fixes seed schedules, mutation draws, and sim seeds.
    pub seed: u64,
    /// Total simulation runs to spend.
    pub budget: usize,
    /// Worker threads (never affects results, only wall time).
    pub threads: usize,
    /// The cells to fuzz.
    pub cells: Vec<CellSpec>,
}

impl FuzzConfig {
    /// A fuzzing campaign over `fuzz_grid`.
    pub fn new(seed: u64, budget: usize, threads: usize) -> FuzzConfig {
        FuzzConfig {
            seed,
            budget,
            threads,
            cells: crate::grid::fuzz_grid(),
        }
    }
}

/// Everything a finished fuzzing campaign produced. Every field is
/// deterministic in `(seed, budget)`.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// The configuration the search ran with.
    pub(crate) config: FuzzConfig,
    /// Cell names, in grid order.
    pub(crate) cells: Vec<String>,
    /// Runs actually executed (≤ budget).
    pub runs: usize,
    /// Final coverage: distinct phase-timeline signature elements.
    pub coverage: usize,
    /// Coverage growth curve: `(runs_executed, coverage)` per generation.
    pub curve: Vec<(usize, usize)>,
    /// The final corpus.
    pub corpus: Corpus,
    /// Tightest admissible slack seen (µs; negative = bound blown).
    pub min_slack_us: Option<i64>,
    /// Fattest admissible slack seen (µs).
    pub max_slack_us: Option<i64>,
    /// Highest run score admitted.
    pub best_score: u64,
    /// Replay tokens of admissible violating runs (deduped, capped).
    pub violations: Vec<String>,
}

impl FuzzOutcome {
    /// Render the full `FUZZ_btr.json` contents. Contains no wall-clock
    /// data — the whole file is byte-identical at any thread count.
    pub fn to_json(&self) -> String {
        json::document(Layout::Block, |o| {
            o.field("fuzz", "btr-schedule-fuzz");
            o.row(|o| {
                o.field("seed", self.config.seed);
                o.field("budget", self.config.budget);
                o.field("batch", BATCH);
                o.field("corpus_max", CORPUS_MAX);
            });
            o.array("cells", Layout::Inline, |a| a.items(&self.cells));
            o.row(|o| {
                o.field("runs", self.runs);
                o.field("coverage", self.coverage);
            });
            o.array("coverage_curve", Layout::Inline, |a| {
                for &(runs, cov) in &self.curve {
                    a.array(Layout::Inline, |a| a.items([runs, cov]));
                }
            });
            o.object("slack", Layout::Inline, |o| {
                o.field("min_us", self.min_slack_us);
                o.field("max_us", self.max_slack_us);
            });
            o.field("best_score", self.best_score);
            o.object("corpus", Layout::Block, |o| {
                o.row(|o| {
                    o.field("size", self.corpus.len());
                    o.field("digest", format!("{:#018x}", self.corpus.digest()));
                });
                o.array("entries", Layout::Block, |a| {
                    for e in self.corpus.entries() {
                        a.object(Layout::Inline, |o| {
                            let cell = &self.cells[e.cell_idx as usize];
                            o.field("key", canonical_key(cell, &e.schedule));
                            o.field("score", e.score);
                            o.field("faults", e.schedule.scenario.faults.len());
                            o.field("new_signatures", e.new_signatures);
                        });
                    }
                });
            });
            o.field("violations_admissible", self.violations.len());
            o.array("violations", Layout::Inline, |a| a.items(&self.violations));
        })
    }

    /// The replay tokens `harness fuzz --cross-check` runs on the live
    /// fleet: every corpus resident on the cell and simulator seed it was
    /// searched with, then one single-fault schedule per [`FaultVariant`]
    /// on each cell of the default campaign grid (the first schedule of
    /// that variant the campaign draws, at seed slot 0). Panics if the
    /// campaign draws no such schedule for some cell and variant.
    pub fn cross_check_tokens(&self) -> Result<Vec<String>, CellError> {
        let fuzz_cells = plan(&self.config)?;
        let mut tokens: Vec<String> = self
            .corpus
            .entries()
            .map(|e| {
                let cell = &fuzz_cells[e.cell_idx as usize];
                let seed = runner::sim_seed(self.config.seed, e.cell_idx as u32);
                let scenario = &e.schedule.scenario;
                replay::token(&cell.spec, seed, cell.horizon, MAX_EVENTS, scenario)
            })
            .collect();
        // `generate` spends the first half of its count on the boundary
        // set spread over the variants, so two schedules per variant
        // draw one of each first; a variant missing is a generator bug,
        // never a smaller check.
        let mut grid = CampaignConfig::new(self.config.seed, 0, self.config.threads);
        grid.sim_seeds = 1;
        grid.runs = grid.cells.len() * 2 * FaultVariant::ALL.len();
        let seed = runner::sim_seed(grid.seed, 0);
        for cell in runner::plan_cells(&grid)? {
            for v in FaultVariant::ALL {
                let drawn = cell.schedules.iter().find(|s| {
                    let faults = &s.scenario.faults;
                    faults.len() == 1 && FaultVariant::of(&faults[0]) == v
                });
                let Some(s) = drawn else {
                    panic!(
                        "{}: no single {} schedule drawn",
                        cell.spec.name(),
                        v.label()
                    );
                };
                let scenario = &s.scenario;
                tokens.push(replay::token(
                    &cell.spec,
                    seed,
                    cell.horizon,
                    MAX_EVENTS,
                    scenario,
                ));
            }
        }
        Ok(tokens)
    }
}

/// One executed-and-fingerprinted fuzz run.
struct FuzzRun {
    record: RunRecord,
    signature: BTreeSet<u64>,
    token: String,
}

/// Execute one job with the recorder installed: the record is the
/// campaign's fold over the observed report; the coverage signature off
/// the recorder's marks and the replay token are the fuzzer's own.
fn execute_observed(
    cfg: &FuzzConfig,
    cell: &PlannedCell,
    cell_idx: u16,
    sched: &FaultSchedule,
    run_idx: u32,
) -> FuzzRun {
    let seed = runner::sim_seed(cfg.seed, cell_idx as u32);
    let (report, rec) = cell
        .system
        .run_observed(&sched.scenario, cell.horizon, seed);
    FuzzRun {
        record: RunRecord {
            run_idx,
            cell_idx,
            ..RunRecord::judge(&cell.system, sched, seed, (&report).into(), Duration::ZERO)
        },
        signature: signature(sched, &report, rec.marks(), cell.spec.r_bound),
        token: replay::token(&cell.spec, seed, cell.horizon, MAX_EVENTS, &sched.scenario),
    }
}

/// Plan the cells and draw the seed generation with the campaign
/// machinery: combos on, so seed schedules already span 1..=f chains.
fn plan(cfg: &FuzzConfig) -> Result<Vec<PlannedCell>, CellError> {
    runner::plan_cells(&CampaignConfig {
        seed: cfg.seed,
        runs: SEED_SCHEDULES_PER_CELL * cfg.cells.len().max(1),
        threads: cfg.threads,
        sim_seeds: 1,
        combos: true,
        over_budget: false,
        slack: Duration::ZERO,
        cells: cfg.cells.clone(),
    })
}

/// Run the coverage-guided search. Pure in `(cfg.seed, cfg.budget)`:
/// thread count changes wall time only.
pub fn run_fuzz(cfg: &FuzzConfig) -> Result<FuzzOutcome, CellError> {
    let cells = plan(cfg)?;
    let cell_names: Vec<String> = cells.iter().map(|c| c.spec.name()).collect();

    // Generation 0: the seed schedules, interleaved across cells so a
    // small budget still touches every cell.
    let mut jobs: Vec<(u16, FaultSchedule)> = Vec::new();
    let max_seed_schedules = cells.iter().map(|c| c.schedules.len()).max().unwrap_or(0);
    for s in 0..max_seed_schedules {
        for (c, cell) in cells.iter().enumerate() {
            if let Some(sched) = cell.schedules.get(s) {
                jobs.push((c as u16, sched.clone()));
            }
        }
    }

    let mut corpus = Corpus::new(CORPUS_MAX);
    let mut coverage: BTreeSet<u64> = BTreeSet::new();
    let mut curve = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    let mut min_slack: Option<i64> = None;
    let mut max_slack: Option<i64> = None;
    let mut best_score = 0u64;
    let mut executed = 0usize;
    let mut generation = 0usize;

    while executed < cfg.budget {
        if jobs.is_empty() {
            // Breed the next generation from the corpus: parents rotate
            // in key order, mutation seeds advance with the global run
            // counter. Both depend only on state sealed at the end of
            // the previous generation.
            if corpus.is_empty() {
                break;
            }
            let n = BATCH.min(cfg.budget - executed);
            for j in 0..n {
                let parent = corpus
                    .nth(generation.wrapping_mul(BATCH).wrapping_add(j))
                    .expect("non-empty corpus");
                let cell = &cells[parent.cell_idx as usize];
                let mseed = runner::sim_seed(cfg.seed ^ 0x6675_7a7a, (executed + j) as u32);
                let mutant = mutate(&cell.params, &parent.schedule, mseed);
                jobs.push((parent.cell_idx, mutant));
            }
        }
        jobs.truncate(cfg.budget - executed);

        let results = run_indexed(jobs.len(), cfg.threads, |i| {
            let (cell_idx, sched) = &jobs[i];
            execute_observed(
                cfg,
                &cells[*cell_idx as usize],
                *cell_idx,
                sched,
                (executed + i) as u32,
            )
        });

        // Sequential fold, in index order: this is the only place global
        // state changes, so the search trajectory is merge-order-stable.
        for (i, r) in results.iter().enumerate() {
            let new_sigs = r.signature.difference(&coverage).count();
            coverage.extend(r.signature.iter().copied());
            let score = base_score(&r.record) + new_sigs as u64 * NEW_COVERAGE_PTS;
            best_score = best_score.max(score);
            if r.record.admissible {
                min_slack = Some(min_slack.map_or(r.record.slack_us, |m| m.min(r.record.slack_us)));
                max_slack = Some(max_slack.map_or(r.record.slack_us, |m| m.max(r.record.slack_us)));
                if !r.record.violations.is_empty()
                    && violations.len() < MAX_VIOLATION_TOKENS
                    && !violations.contains(&r.token)
                {
                    violations.push(r.token.clone());
                }
            }
            let (cell_idx, sched) = &jobs[i];
            corpus.offer(
                *cell_idx,
                &cell_names[*cell_idx as usize],
                sched,
                score,
                new_sigs,
            );
        }
        executed += results.len();
        curve.push((executed, coverage.len()));
        jobs.clear();
        generation += 1;
    }

    Ok(FuzzOutcome {
        config: cfg.clone(),
        cells: cell_names,
        runs: executed,
        coverage: coverage.len(),
        curve,
        corpus,
        min_slack_us: min_slack,
        max_slack_us: max_slack,
        best_score,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::TopoSpec;

    /// A one-cell fuzz config small enough for unit tests: f=2 chains on
    /// the avionics bus.
    fn tiny_fuzz(budget: usize, threads: usize) -> FuzzConfig {
        FuzzConfig {
            cells: vec![CellSpec {
                workload: "avionics".into(),
                topo: TopoSpec::Bus {
                    n: 9,
                    bytes_per_ms: 100_000,
                    latency_us: 5,
                },
                f: 2,
                r_bound: Duration::from_millis(150),
            }],
            ..FuzzConfig::new(41, budget, threads)
        }
    }

    #[test]
    fn fuzz_json_is_byte_identical_at_any_thread_count() {
        let a = run_fuzz(&tiny_fuzz(10, 1)).expect("fuzzes");
        let b = run_fuzz(&tiny_fuzz(10, 3)).expect("fuzzes");
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.runs, 10);
        assert_eq!(a.corpus.digest(), b.corpus.digest());
        assert!(a.coverage > 0);
        assert!(!a.curve.is_empty());
        // The curve is monotone in both coordinates.
        for w in a.curve.windows(2) {
            assert!(w[1].0 > w[0].0 && w[1].1 >= w[0].1, "{:?}", a.curve);
        }
        // Ten runs are the first ten seed schedules, and each one's
        // record survives its own token: replayed, it is the same but
        // for the run index, which a token does not carry.
        let cfg = tiny_fuzz(10, 1);
        let cell = &plan(&cfg).expect("plans")[0];
        for (i, sched) in cell.schedules.iter().take(10).enumerate() {
            let run = execute_observed(&cfg, cell, 0, sched, i as u32);
            let replayed = replay::run(&replay::parse(&run.token).expect("parses"));
            let replayed = RunRecord {
                run_idx: i as u32,
                ..replayed.expect("replays")
            };
            assert_eq!(replayed, run.record, "{}", run.token);
        }
    }

    #[test]
    fn violating_cells_surface_replay_tokens() {
        // R = 1 ms is unmeetable, so every crash run violates (the
        // first seed schedule is a crash): the violation path must emit
        // parseable, admissible tokens.
        let mut cfg = tiny_fuzz(6, 2);
        cfg.cells[0].r_bound = Duration::from_millis(1);
        let out = run_fuzz(&cfg).expect("fuzzes");
        assert!(!out.violations.is_empty());
        assert!(out.min_slack_us.unwrap() < 0, "{:?}", out.min_slack_us);
        for tok in &out.violations {
            let spec = replay::parse(tok).expect("fuzz tokens parse");
            assert!(spec.scenario.faults.len() <= cfg.cells[0].f as usize + 1);
        }
        let json = out.to_json();
        assert!(json.contains("\"violations_admissible\""));
    }

    #[test]
    fn to_json_pins_violation_tokens() {
        use btr_core::FaultScenario;
        use btr_model::{NodeId, Time};
        let cells = vec!["avionics9-bus-f3".to_string(), "scada6-bus-f2".to_string()];
        let mut corpus = Corpus::new(4);
        for (cell_idx, score, faults) in [
            (
                0u16,
                1814,
                vec![FaultVariant::CRASH.inject(NodeId(4), Time(49_999))],
            ),
            (
                1,
                1490,
                vec![
                    FaultVariant::TIMING.inject(NodeId(0), Time(367_641)),
                    FaultVariant::OMISSION_STEALTH.inject(NodeId(2), Time(901_829)),
                ],
            ),
        ] {
            let schedule = FaultSchedule {
                id: 0,
                scenario: FaultScenario { faults },
            };
            corpus.offer(cell_idx, &cells[cell_idx as usize], &schedule, score, 2);
        }
        let out = FuzzOutcome {
            config: FuzzConfig::new(41, 3, 2),
            cells,
            runs: 3,
            coverage: 17,
            curve: vec![(2, 11), (3, 17)],
            corpus,
            min_slack_us: Some(-1_500),
            max_slack_us: Some(915_001),
            best_score: 2856,
            violations: vec![
                "w=avionics;t=bus9x100000x5;f=3;r=150000;h=700000;me=20000000;s=1;fl=crash@49999@n4"
                    .into(),
                "w=scada;t=bus6x100000x10;f=2;r=400000;h=1500000;me=20000000;s=2;fl=timing@367641@n0"
                    .into(),
            ],
        };
        assert_eq!(out.to_json(), VIOLATING_FUZZ);
    }

    /// The `to_json` of the outcome above, as the hand-laid writer of
    /// PR 24 produced it.
    const VIOLATING_FUZZ: &str = r#"{
  "fuzz": "btr-schedule-fuzz",
  "seed": 41, "budget": 3, "batch": 16, "corpus_max": 64,
  "cells": ["avionics9-bus-f3", "scada6-bus-f2"],
  "runs": 3, "coverage": 17,
  "coverage_curve": [[2, 11], [3, 17]],
  "slack": {"min_us": -1500, "max_us": 915001},
  "best_score": 2856,
  "corpus": {
    "size": 2, "digest": "0xc852fc39f7dc10ae",
    "entries": [
      {"key": "avionics9-bus-f3:crash@49999@n4", "score": 1814, "faults": 1, "new_signatures": 2},
      {"key": "scada6-bus-f2:timing@367641@n0+omission-stealth@901829@n2", "score": 1490, "faults": 2, "new_signatures": 2}
    ]
  },
  "violations_admissible": 2,
  "violations": ["w=avionics;t=bus9x100000x5;f=3;r=150000;h=700000;me=20000000;s=1;fl=crash@49999@n4", "w=scada;t=bus6x100000x10;f=2;r=400000;h=1500000;me=20000000;s=2;fl=timing@367641@n0"]
}
"#;

    #[test]
    fn cross_check_tokens_are_the_residents_then_every_variant_per_default_cell() {
        let out = run_fuzz(&tiny_fuzz(8, 2)).expect("fuzz runs");
        let tokens = out.cross_check_tokens().expect("cells plan");
        let cells = crate::grid::default_grid();
        let per_cell = FaultVariant::ALL.len();
        assert_eq!(tokens.len(), out.corpus.len() + cells.len() * per_cell);
        let specs: Vec<_> = tokens
            .iter()
            .map(|t| replay::parse(t).expect("a token parses"))
            .collect();
        let (residents, grid) = specs.split_at(out.corpus.len());
        for (spec, entry) in residents.iter().zip(out.corpus.entries()) {
            assert_eq!(spec.scenario, entry.schedule.scenario);
        }
        for (cell, specs) in cells.iter().zip(grid.chunks(per_cell)) {
            for (spec, v) in specs.iter().zip(FaultVariant::ALL) {
                assert_eq!(spec.cell, *cell);
                assert_eq!(spec.scenario.faults.len(), 1);
                assert_eq!(FaultVariant::of(&spec.scenario.faults[0]), v);
            }
        }
    }
}
