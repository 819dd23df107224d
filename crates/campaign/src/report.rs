//! Aggregation and the `CAMPAIGN_btr.json` writer.
//!
//! The JSON has two top-level regions: everything before the `"timing"`
//! key is **deterministic** — a pure function of the campaign config and
//! seed, byte-identical at any thread count (pinned by the determinism
//! tests and summarized by `runs_digest`) — while `"timing"` carries
//! wall-clock measurements, including the 1-thread vs N-thread scaling
//! trajectory future PRs track.
//!
//! The layout is [`btr_obs::json`]'s: the one writer every report in
//! the workspace goes through.

use crate::runner::RunRecord;
use crate::schedule::FaultVariant;
use crate::CampaignOutcome;
use btr_crypto::digest64;
use btr_obs::json::{self, Layout};
use std::collections::BTreeMap;

/// Recovery-time percentiles over a set of runs (µs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Percentiles {
    /// Median.
    pub(crate) p50: u64,
    /// 90th percentile.
    pub(crate) p90: u64,
    /// 99th percentile.
    pub(crate) p99: u64,
    /// Maximum.
    pub(crate) max: u64,
}

/// Nearest-rank percentiles of a sample (empty sample = all zeros).
pub(crate) fn percentiles(values: &mut [u64]) -> Percentiles {
    if values.is_empty() {
        return Percentiles {
            p50: 0,
            p90: 0,
            p99: 0,
            max: 0,
        };
    }
    values.sort_unstable();
    let at = |pct: u64| -> u64 {
        let idx = (pct * (values.len() as u64 - 1) + 50) / 100;
        values[idx as usize]
    };
    Percentiles {
        p50: at(50),
        p90: at(90),
        p99: at(99),
        max: *values.last().expect("non-empty"),
    }
}

/// Per-group aggregate (fault-kind signature or cell).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GroupAgg {
    /// Runs in the group.
    pub(crate) runs: usize,
    /// Runs with at least one violation.
    pub(crate) violations: usize,
    /// Recovery-time percentiles (µs).
    pub(crate) recovery: Percentiles,
}

fn aggregate_by<K: Ord, F: Fn(&RunRecord) -> K>(
    records: &[RunRecord],
    key: F,
) -> BTreeMap<K, GroupAgg> {
    let mut samples: BTreeMap<K, (usize, usize, Vec<u64>)> = BTreeMap::new();
    for r in records {
        let e = samples.entry(key(r)).or_insert((0, 0, Vec::new()));
        e.0 += 1;
        e.1 += usize::from(!r.violations.is_empty());
        e.2.push(r.recovery_us);
    }
    samples
        .into_iter()
        .map(|(k, (runs, violations, mut recs))| {
            (
                k,
                GroupAgg {
                    runs,
                    violations,
                    recovery: percentiles(&mut recs),
                },
            )
        })
        .collect()
}

/// Chained digest over every record's deterministic content: a compact
/// fingerprint of the whole run set, so two reports can be compared at a
/// glance (and the determinism tests have one number to pin).
pub fn runs_digest(records: &[RunRecord]) -> u64 {
    let mut h: u64 = 0x5eed_ca3b_a16e_0001;
    let mut buf = Vec::with_capacity(96);
    for r in records {
        buf.clear();
        buf.extend_from_slice(&r.run_idx.to_be_bytes());
        buf.extend_from_slice(&(r.cell_idx as u32).to_be_bytes());
        buf.extend_from_slice(&r.schedule_id.to_be_bytes());
        buf.extend_from_slice(&r.sim_seed.to_be_bytes());
        buf.extend_from_slice(r.label.as_bytes());
        buf.push(r.n_faults);
        buf.push(r.admissible as u8);
        buf.extend_from_slice(&r.recovery_us.to_be_bytes());
        buf.extend_from_slice(&r.slack_us.to_be_bytes());
        buf.extend_from_slice(&r.bad_outputs.to_be_bytes());
        buf.extend_from_slice(&r.total_outputs.to_be_bytes());
        buf.push(r.converged as u8);
        for v in &r.violations {
            buf.extend_from_slice(format!("{v}").as_bytes());
        }
        h = digest64(&[&h.to_be_bytes(), &buf]);
    }
    h
}

/// Fold every admissible run's slack into one mergeable histogram
/// (negative slack — a blown bound — clamps into the zero bucket; the
/// signed minimum is reported alongside).
pub(crate) fn slack_histogram(records: &[RunRecord]) -> btr_obs::Histogram {
    let mut h = btr_obs::Histogram::new();
    for r in records.iter().filter(|r| r.admissible) {
        h.record(r.slack_us.max(0) as u64);
    }
    h
}

/// The smallest slack over admissible runs (`None` when there are
/// none): the campaign's scariest schedule.
pub fn min_slack_us(records: &[RunRecord]) -> Option<i64> {
    records
        .iter()
        .filter(|r| r.admissible)
        .map(|r| r.slack_us)
        .min()
}

/// The deterministic members of the report: everything but `"timing"`.
fn deterministic(o: &mut json::Object<'_>, out: &CampaignOutcome) {
    let cfg = &out.config;
    o.field("campaign", "btr-fault-injection");
    o.object("config", Layout::Block, |o| {
        o.field("seed", cfg.seed);
        o.field("requested_runs", cfg.runs);
        o.field("sim_seeds_per_schedule", cfg.sim_seeds);
        o.field("combos", cfg.combos);
        o.field("over_budget", cfg.over_budget);
        o.field("max_events", crate::runner::MAX_EVENTS);
        o.field("slack_us", cfg.slack.as_micros());
        o.array("cells", Layout::Block, |a| {
            for c in &out.cells {
                a.object(Layout::Inline, |o| {
                    o.field("name", &c.name);
                    o.field("workload", &c.workload);
                    o.field("topology", &c.topology);
                    o.field("nodes", c.nodes);
                    o.field("f", c.f);
                    o.field("r_bound_us", c.r_bound_us);
                    o.field("horizon_us", c.horizon_us);
                    o.field("schedules", c.schedules);
                    o.array("variants", Layout::Inline, |a| {
                        a.items(FaultVariant::ALL.iter().map(|v| v.label()))
                    });
                    o.newline();
                    o.field("delivered", c.delivered);
                    // The reference-run count profile is deterministic
                    // (sequential, seed-pinned, counts not wall), so it
                    // renders here rather than in the timing region.
                    o.object("profile", Layout::Inline, |o| {
                        for (label, n) in &c.profile {
                            o.field(label, n);
                        }
                    });
                });
            }
        });
    });

    let records = &out.records;
    let count = |keep: fn(&RunRecord) -> bool| records.iter().filter(|r| keep(r)).count();
    let violating = || records.iter().filter(|r| !r.violations.is_empty());
    o.object("results", Layout::Block, |o| {
        o.field("total_runs", records.len());
        o.field("admissible_runs", count(|r| r.admissible));
        o.field(
            "violations_admissible",
            violating().filter(|r| r.admissible).count(),
        );
        o.field(
            "violations_over_budget",
            violating().filter(|r| !r.admissible).count(),
        );
        let truncated = |r: &RunRecord| r.violations.iter().any(|v| v.kind() == "truncated");
        o.field("truncated_runs", count(truncated));
        o.field("diverged_runs", count(|r| !r.converged));
        o.field("runs_digest", format!("{:016x}", runs_digest(records)));

        // Slack to R over admissible runs: the minimum scores the
        // campaign's scariest schedule; the log-bucketed histogram gives
        // the distribution without storing per-run samples.
        o.field("min_slack_us", min_slack_us(records));
        let slack = slack_histogram(records);
        o.object("slack_us", Layout::Inline, |o| {
            o.field("p50", slack.quantile(0.5));
            o.field("p90", slack.quantile(0.9));
            o.field("p99", slack.quantile(0.99));
            o.field("max", slack.max());
            o.array("buckets", Layout::Inline, |a| {
                for (ceil, n) in slack.nonzero() {
                    a.array(Layout::Inline, |a| a.items([ceil, n]));
                }
            });
        });

        o.object("by_variant", Layout::Block, |o| {
            for (label, agg) in aggregate_by(records, |r| r.label.clone()) {
                o.object(&label, Layout::Block, |o| group(o, &agg));
            }
        });
        o.object("by_cell", Layout::Block, |o| {
            for (cell_idx, agg) in aggregate_by(records, |r| r.cell_idx) {
                let name = &out.cells[cell_idx as usize].name;
                o.object(name, Layout::Block, |o| group(o, &agg));
            }
        });

        // Violating runs, in run order.
        o.array("violations", Layout::Block, |a| {
            for r in violating() {
                a.object(Layout::Inline, |o| {
                    o.field("run", r.run_idx);
                    o.field("cell", &out.cells[r.cell_idx as usize].name);
                    o.field("schedule", r.schedule_id);
                    o.field("sim_seed", r.sim_seed);
                    o.field("label", &r.label);
                    o.field("admissible", r.admissible);
                    o.field("window_us", r.recovery_us);
                    o.array("kinds", Layout::Inline, |a| {
                        a.items(r.violations.iter().map(|v| v.kind()));
                    });
                    o.array("details", Layout::Inline, |a| {
                        a.items(r.violations.iter().map(|v| v.to_string()));
                    });
                });
            }
        });

        // Shrunk reproducers.
        o.array("reproducers", Layout::Block, |a| {
            for sh in &out.shrunk {
                a.object(Layout::Inline, |o| {
                    o.field("run", sh.run_idx);
                    o.field("faults_before", sh.faults_before);
                    o.field("faults_after", sh.faults_after);
                    o.field("probes", sh.probes);
                    o.array("minimal", Layout::Inline, |a| {
                        for f in &sh.minimal.faults {
                            a.object(Layout::Inline, |o| {
                                o.field("node", f.node.0);
                                o.field("variant", FaultVariant::of(f).label());
                                o.field("at_us", f.at.as_micros());
                            });
                        }
                    });
                    o.newline();
                    o.field("replay", &sh.replay);
                });
            }
        });
    });
}

/// One `by_variant` / `by_cell` group.
fn group(o: &mut json::Object<'_>, agg: &GroupAgg) {
    o.row(|o| {
        o.field("runs", agg.runs);
        o.field("violations", agg.violations);
    });
    o.object("recovery_us", Layout::Inline, |o| {
        o.field("p50", agg.recovery.p50);
        o.field("p90", agg.recovery.p90);
        o.field("p99", agg.recovery.p99);
        o.field("max", agg.recovery.max);
    });
}

/// The deterministic region of the report as a document of its own:
/// every member but `"timing"`. Byte-identical at any thread count for
/// the same campaign config and seed.
pub fn render_deterministic(out: &CampaignOutcome) -> String {
    json::document(Layout::Block, |o| deterministic(o, out))
}

/// Render the full report: the deterministic region plus `"timing"`.
pub(crate) fn render(out: &CampaignOutcome) -> String {
    json::document(Layout::Block, |o| {
        deterministic(o, out);
        o.object("timing", Layout::Block, |o| {
            o.array("scaling", Layout::Block, |a| {
                for t in &out.scaling {
                    a.object(Layout::Inline, |o| {
                        o.field("threads", t.threads);
                        o.field("wall_ns", t.wall_ns);
                        o.field("runs_per_sec", json::fixed(t.runs_per_sec(), 1));
                    });
                }
            });
            let speedup = match (out.scaling.first(), out.scaling.last()) {
                (Some(a), Some(b)) if a.threads != b.threads && b.wall_ns > 0 => {
                    json::fixed(a.wall_ns as f64 / b.wall_ns as f64, 2)
                }
                _ => None,
            };
            o.field("parallel_speedup", speedup);
            // From the 1-thread pass (a count: any pass would read the
            // same).
            let macs = out.scaling.first().map(|t| t.macs_per_delivery());
            o.field("macs_per_delivery", macs.and_then(|m| json::fixed(m, 3)));
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        let p = percentiles(&mut v);
        // Nearest rank over indices 0..=99: p50 -> index 50 -> value 51.
        assert_eq!(p.p50, 51);
        assert_eq!(p.p90, 90);
        assert_eq!(p.p99, 99);
        assert_eq!(p.max, 100);
        let mut single = vec![7];
        let p = percentiles(&mut single);
        assert_eq!((p.p50, p.max), (7, 7));
        let p = percentiles(&mut []);
        assert_eq!(p.max, 0);
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let mk = |idx: u32, recovery: u64| RunRecord {
            run_idx: idx,
            cell_idx: 0,
            schedule_id: idx,
            sim_seed: 1,
            label: "crash".into(),
            n_faults: 1,
            admissible: true,
            recovery_us: recovery,
            slack_us: 150_000 - recovery as i64,
            bad_outputs: 0,
            total_outputs: 10,
            converged: true,
            near_misses: 0,
            suppressed: 0,
            convictions: 1,
            violations: Vec::new(),
        };
        let a = vec![mk(0, 100), mk(1, 200)];
        let b = vec![mk(1, 200), mk(0, 100)];
        let c = vec![mk(0, 100), mk(1, 201)];
        assert_eq!(runs_digest(&a), runs_digest(&a));
        assert_ne!(runs_digest(&a), runs_digest(&b));
        assert_ne!(runs_digest(&a), runs_digest(&c));
        // The fuzzer-score counters are deliberately *outside* the
        // digest: pre-existing tokens and pinned digests must not move.
        let mut d = vec![mk(0, 100), mk(1, 200)];
        d[1].near_misses = 7;
        d[1].suppressed = 3;
        d[1].convictions = 9;
        assert_eq!(runs_digest(&a), runs_digest(&d));
    }

    #[test]
    fn slack_aggregation_scores_the_scariest_schedule() {
        let mk = |idx: u32, recovery: u64, admissible: bool| RunRecord {
            run_idx: idx,
            cell_idx: 0,
            schedule_id: idx,
            sim_seed: 1,
            label: "crash".into(),
            n_faults: 1,
            admissible,
            recovery_us: recovery,
            slack_us: 150_000 - recovery as i64,
            bad_outputs: 0,
            total_outputs: 10,
            converged: true,
            near_misses: 0,
            suppressed: 0,
            convictions: 1,
            violations: Vec::new(),
        };
        let records = vec![
            mk(0, 100_000, true),
            mk(1, 20_000, true),
            mk(2, 160_000, true),
        ];
        assert_eq!(min_slack_us(&records), Some(-10_000));
        let h = slack_histogram(&records);
        assert_eq!(h.count(), 3);
        // A blown bound clamps into the zero bucket but keeps its sign
        // in the minimum.
        assert_eq!(h.min(), Some(0));
        // Inadmissible runs never score: over-budget schedules have no
        // slack claim to make.
        let records = vec![mk(0, 100_000, true), mk(2, 160_000, false)];
        assert_eq!(min_slack_us(&records), Some(50_000));
        assert_eq!(slack_histogram(&records).count(), 1);
        assert_eq!(min_slack_us(&[]), None);
    }

    #[test]
    fn json_escaping() {
        let mut out = violating_outcome();
        out.cells[1].name = "q\"q\\".into();
        let s = render(&out);
        // The cell name is a value in `cells` and a key in `by_cell`.
        assert!(s.contains(r#"{"name": "q\"q\\", "#), "{s}");
        assert!(s.contains(r#"      "q\"q\\": {"#), "{s}");
    }

    /// A hand-built outcome with what the committed report never holds:
    /// an over-budget run with two violations, a clean run on a second
    /// cell with an empty profile, and a shrunk reproducer with two
    /// minimal faults.
    fn violating_outcome() -> CampaignOutcome {
        use crate::schedule::FaultVariant;
        use crate::verdict::Violation;
        use crate::{CellSummary, ShrinkOutcome, Timing};
        use btr_core::FaultScenario;
        use btr_model::{NodeId, Time};
        let cell = |name: &str, profile| CellSummary {
            name: name.into(),
            workload: "avionics".into(),
            topology: "bus9x100000x5".into(),
            nodes: 9,
            f: 1,
            r_bound_us: 150_000,
            horizon_us: 490_000,
            schedules: 3,
            profile,
            delivered: 6656,
        };
        let record =
            |run_idx: u32, cell_idx: u16, admissible, recovery_us: u64, violations| RunRecord {
                run_idx,
                cell_idx,
                schedule_id: run_idx,
                sim_seed: 0xfeed,
                label: "crash+omission-stealth".into(),
                n_faults: 2,
                admissible,
                recovery_us,
                slack_us: 150_000 - recovery_us as i64,
                bad_outputs: 3,
                total_outputs: 40,
                converged: true,
                near_misses: 0,
                suppressed: 0,
                convictions: 2,
                violations,
            };
        let timing = |threads, wall_ns| Timing {
            threads,
            wall_ns,
            runs: 2,
            macs: 5,
            delivered: 8,
        };
        CampaignOutcome {
            config: crate::CampaignConfig::new(99, 2, 2),
            cells: vec![
                cell(
                    "avionics9-bus-f1",
                    vec![("routing", 6728), ("dispatch", 10829)],
                ),
                cell("avionics9-bus-f2", Vec::new()),
            ],
            records: vec![
                record(
                    0,
                    0,
                    false,
                    448_000,
                    vec![
                        Violation::RBoundExceeded {
                            window_us: 448_000,
                            budget_us: 350_000,
                        },
                        Violation::Truncated,
                    ],
                ),
                record(1, 1, true, 40_001, Vec::new()),
                record(
                    2,
                    1,
                    true,
                    30_001,
                    vec![Violation::PreFaultBad {
                        first_bad_us: 20_000,
                        fault_at_us: 52_000,
                    }],
                ),
            ],
            shrunk: vec![ShrinkOutcome {
                run_idx: 0,
                faults_before: 3,
                faults_after: 2,
                probes: 17,
                minimal: FaultScenario {
                    faults: vec![
                        FaultVariant::CRASH.inject(NodeId(0), Time(52_000)),
                        FaultVariant::OMISSION_STEALTH.inject(NodeId(1), Time(252_000)),
                    ],
                },
                replay: "w=avionics;t=bus9x100000x5;f=1;r=150000;h=490000;me=20000000;s=65261;\
                         fl=crash@52000@n0+omission-stealth@252000@n1"
                    .into(),
            }],
            scaling: vec![timing(1, 2_000_000_000), timing(2, 800_000_000)],
        }
    }

    #[test]
    fn render_pins_violations_and_reproducers() {
        assert_eq!(render(&violating_outcome()), VIOLATING_REPORT);
    }

    /// `render(&violating_outcome())`, as the hand-laid writer of PR 24
    /// produced it.
    const VIOLATING_REPORT: &str = r#"{
  "campaign": "btr-fault-injection",
  "config": {
    "seed": 99,
    "requested_runs": 2,
    "sim_seeds_per_schedule": 2,
    "combos": false,
    "over_budget": false,
    "max_events": 20000000,
    "slack_us": 0,
    "cells": [
      {"name": "avionics9-bus-f1", "workload": "avionics", "topology": "bus9x100000x5", "nodes": 9, "f": 1, "r_bound_us": 150000, "horizon_us": 490000, "schedules": 3, "variants": ["crash", "omission", "omission-stealth", "commission", "commission-garbled", "timing", "equivocation", "evidence-spam"],
       "delivered": 6656, "profile": {"routing": 6728, "dispatch": 10829}},
      {"name": "avionics9-bus-f2", "workload": "avionics", "topology": "bus9x100000x5", "nodes": 9, "f": 1, "r_bound_us": 150000, "horizon_us": 490000, "schedules": 3, "variants": ["crash", "omission", "omission-stealth", "commission", "commission-garbled", "timing", "equivocation", "evidence-spam"],
       "delivered": 6656, "profile": {}}
    ]
  },
  "results": {
    "total_runs": 3,
    "admissible_runs": 2,
    "violations_admissible": 1,
    "violations_over_budget": 1,
    "truncated_runs": 1,
    "diverged_runs": 0,
    "runs_digest": "380aa50bedd89b07",
    "min_slack_us": 109999,
    "slack_us": {"p50": 119999, "p90": 119999, "p99": 119999, "max": 119999, "buckets": [[119999, 2]]},
    "by_variant": {
      "crash+omission-stealth": {
        "runs": 3, "violations": 2,
        "recovery_us": {"p50": 40001, "p90": 448000, "p99": 448000, "max": 448000}
      }
    },
    "by_cell": {
      "avionics9-bus-f1": {
        "runs": 1, "violations": 1,
        "recovery_us": {"p50": 448000, "p90": 448000, "p99": 448000, "max": 448000}
      },
      "avionics9-bus-f2": {
        "runs": 2, "violations": 1,
        "recovery_us": {"p50": 40001, "p90": 40001, "p99": 40001, "max": 40001}
      }
    },
    "violations": [
      {"run": 0, "cell": "avionics9-bus-f1", "schedule": 0, "sim_seed": 65261, "label": "crash+omission-stealth", "admissible": false, "window_us": 448000, "kinds": ["r-bound", "truncated"], "details": ["R-bound exceeded: bad window 448.0 ms > budget 350.0 ms", "run hit the simulator event cap"]},
      {"run": 2, "cell": "avionics9-bus-f2", "schedule": 2, "sim_seed": 65261, "label": "crash+omission-stealth", "admissible": true, "window_us": 30001, "kinds": ["pre-fault-bad"], "details": ["output bad at 20.0 ms before the fault at 52.0 ms"]}
    ],
    "reproducers": [
      {"run": 0, "faults_before": 3, "faults_after": 2, "probes": 17, "minimal": [{"node": 0, "variant": "crash", "at_us": 52000}, {"node": 1, "variant": "omission-stealth", "at_us": 252000}],
       "replay": "w=avionics;t=bus9x100000x5;f=1;r=150000;h=490000;me=20000000;s=65261;fl=crash@52000@n0+omission-stealth@252000@n1"}
    ]
  },
  "timing": {
    "scaling": [
      {"threads": 1, "wall_ns": 2000000000, "runs_per_sec": 1.0},
      {"threads": 2, "wall_ns": 800000000, "runs_per_sec": 2.5}
    ],
    "parallel_speedup": 2.50,
    "macs_per_delivery": 0.625
  }
}
"#;
}
