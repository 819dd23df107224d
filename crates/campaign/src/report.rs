//! Aggregation and the `CAMPAIGN_btr.json` writer.
//!
//! The JSON has two top-level regions: everything before the `"timing"`
//! key is **deterministic** — a pure function of the campaign config and
//! seed, byte-identical at any thread count (pinned by the determinism
//! tests and summarized by `runs_digest`) — while `"timing"` carries
//! wall-clock measurements, including the 1-thread vs N-thread scaling
//! trajectory future PRs track.
//!
//! Serialization crates are stubbed offline (see vendor/README.md), so
//! the writer is hand-rolled; the format is flat and fully controlled.

use crate::runner::RunRecord;
use crate::CampaignOutcome;
use btr_crypto::digest64;
use std::collections::BTreeMap;

/// Recovery-time percentiles over a set of runs (µs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentiles {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum.
    pub max: u64,
}

/// Nearest-rank percentiles of a sample (empty sample = all zeros).
pub fn percentiles(values: &mut [u64]) -> Percentiles {
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
pub struct GroupAgg {
    /// Runs in the group.
    pub runs: usize,
    /// Runs with at least one violation.
    pub violations: usize,
    /// Recovery-time percentiles (µs).
    pub recovery: Percentiles,
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
pub fn slack_histogram(records: &[RunRecord]) -> btr_obs::Histogram {
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

fn json_str(s: &str) -> String {
    // Labels and tokens are ASCII identifiers/punctuation by
    // construction; escape the two JSON-special characters anyway.
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn fault_json(f: &btr_core::InjectedFault) -> String {
    format!(
        "{{\"node\": {}, \"variant\": {}, \"at_us\": {}}}",
        f.node.0,
        json_str(crate::schedule::FaultVariant::of(f).label()),
        f.at.as_micros()
    )
}

fn group_json(indent: &str, agg: &GroupAgg) -> String {
    format!(
        "{{\n{indent}  \"runs\": {}, \"violations\": {},\n\
         {indent}  \"recovery_us\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}\n\
         {indent}}}",
        agg.runs,
        agg.violations,
        agg.recovery.p50,
        agg.recovery.p90,
        agg.recovery.p99,
        agg.recovery.max
    )
}

/// Render the deterministic region of the report (everything except the
/// closing brace and the `"timing"` object). Byte-identical at any
/// thread count for the same campaign config and seed.
pub fn render_deterministic(out: &CampaignOutcome) -> String {
    let cfg = &out.config;
    let mut s = String::new();
    s.push_str("{\n  \"campaign\": \"btr-fault-injection\",\n");

    // Config.
    s.push_str(&format!(
        "  \"config\": {{\n    \"seed\": {},\n    \"requested_runs\": {},\n    \
         \"sim_seeds_per_schedule\": {},\n    \"combos\": {},\n    \"over_budget\": {},\n    \
         \"max_events\": {},\n    \"slack_us\": {},\n    \"cells\": [\n",
        cfg.seed,
        cfg.runs,
        cfg.sim_seeds,
        cfg.combos,
        cfg.over_budget,
        cfg.max_events,
        cfg.slack.as_micros(),
    ));
    for (i, c) in out.cells.iter().enumerate() {
        let variants: Vec<String> = c.variants.iter().map(|v| json_str(v)).collect();
        // The reference-run count profile is deterministic (sequential,
        // seed-pinned, counts not wall), so it renders here rather than
        // in the timing region.
        let profile: Vec<String> = c
            .profile
            .iter()
            .map(|(label, n)| format!("{}: {}", json_str(label), n))
            .collect();
        s.push_str(&format!(
            "      {{\"name\": {}, \"workload\": {}, \"topology\": {}, \"nodes\": {}, \
             \"f\": {}, \"r_bound_us\": {}, \"horizon_us\": {}, \"schedules\": {}, \
             \"variants\": [{}],\n       \"delivered\": {}, \"profile\": {{{}}}}}{}\n",
            json_str(&c.name),
            json_str(&c.workload),
            json_str(&c.topology),
            c.nodes,
            c.f,
            c.r_bound_us,
            c.horizon_us,
            c.schedules,
            variants.join(", "),
            c.delivered,
            profile.join(", "),
            if i + 1 < out.cells.len() { "," } else { "" },
        ));
    }
    s.push_str("    ]\n  },\n");

    // Results.
    let records = &out.records;
    let admissible = records.iter().filter(|r| r.admissible).count();
    let viol_admissible = records
        .iter()
        .filter(|r| r.admissible && !r.violations.is_empty())
        .count();
    let viol_over = records
        .iter()
        .filter(|r| !r.admissible && !r.violations.is_empty())
        .count();
    let truncated = records
        .iter()
        .filter(|r| r.violations.iter().any(|v| v.kind() == "truncated"))
        .count();
    let diverged = records.iter().filter(|r| !r.converged).count();
    s.push_str(&format!(
        "  \"results\": {{\n    \"total_runs\": {},\n    \"admissible_runs\": {},\n    \
         \"violations_admissible\": {},\n    \"violations_over_budget\": {},\n    \
         \"truncated_runs\": {},\n    \"diverged_runs\": {},\n    \"runs_digest\": {},\n",
        records.len(),
        admissible,
        viol_admissible,
        viol_over,
        truncated,
        diverged,
        json_str(&format!("{:016x}", runs_digest(records))),
    ));

    // Slack to R over admissible runs: the minimum scores the
    // campaign's scariest schedule; the log-bucketed histogram gives
    // the distribution without storing per-run samples.
    let slack = slack_histogram(records);
    let q = |p: f64| slack.quantile(p).map_or("null".into(), |v| v.to_string());
    let buckets: Vec<String> = slack
        .nonzero()
        .iter()
        .map(|(ceil, n)| format!("[{ceil}, {n}]"))
        .collect();
    s.push_str(&format!(
        "    \"min_slack_us\": {},\n    \"slack_us\": {{\"p50\": {}, \"p90\": {}, \
         \"p99\": {}, \"max\": {}, \"buckets\": [{}]}},\n",
        min_slack_us(records).map_or("null".to_string(), |v| v.to_string()),
        q(0.5),
        q(0.9),
        q(0.99),
        slack.max().map_or("null".to_string(), |v| v.to_string()),
        buckets.join(", "),
    ));

    let by_variant = aggregate_by(records, |r| r.label.clone());
    s.push_str("    \"by_variant\": {\n");
    let n = by_variant.len();
    for (i, (label, agg)) in by_variant.iter().enumerate() {
        s.push_str(&format!(
            "      {}: {}{}\n",
            json_str(label),
            group_json("      ", agg),
            if i + 1 < n { "," } else { "" }
        ));
    }
    s.push_str("    },\n");

    let by_cell = aggregate_by(records, |r| r.cell_idx);
    s.push_str("    \"by_cell\": {\n");
    let n = by_cell.len();
    for (i, (cell_idx, agg)) in by_cell.iter().enumerate() {
        let name = &out.cells[*cell_idx as usize].name;
        s.push_str(&format!(
            "      {}: {}{}\n",
            json_str(name),
            group_json("      ", agg),
            if i + 1 < n { "," } else { "" }
        ));
    }
    s.push_str("    },\n");

    // Violating runs, in run order.
    s.push_str("    \"violations\": [\n");
    let violating: Vec<&RunRecord> = records
        .iter()
        .filter(|r| !r.violations.is_empty())
        .collect();
    for (i, r) in violating.iter().enumerate() {
        let kinds: Vec<String> = r.violations.iter().map(|v| json_str(v.kind())).collect();
        let details: Vec<String> = r
            .violations
            .iter()
            .map(|v| json_str(&format!("{v}")))
            .collect();
        s.push_str(&format!(
            "      {{\"run\": {}, \"cell\": {}, \"schedule\": {}, \"sim_seed\": {}, \
             \"label\": {}, \"admissible\": {}, \"window_us\": {}, \"kinds\": [{}], \
             \"details\": [{}]}}{}\n",
            r.run_idx,
            json_str(&out.cells[r.cell_idx as usize].name),
            r.schedule_id,
            r.sim_seed,
            json_str(&r.label),
            r.admissible,
            r.recovery_us,
            kinds.join(", "),
            details.join(", "),
            if i + 1 < violating.len() { "," } else { "" },
        ));
    }
    s.push_str("    ],\n");

    // Shrunk reproducers.
    s.push_str("    \"reproducers\": [\n");
    for (i, sh) in out.shrunk.iter().enumerate() {
        let faults: Vec<String> = sh.minimal.faults.iter().map(fault_json).collect();
        s.push_str(&format!(
            "      {{\"run\": {}, \"faults_before\": {}, \"faults_after\": {}, \
             \"probes\": {}, \"minimal\": [{}],\n       \"replay\": {}}}{}\n",
            sh.run_idx,
            sh.faults_before,
            sh.faults_after,
            sh.probes,
            faults.join(", "),
            json_str(&sh.replay),
            if i + 1 < out.shrunk.len() { "," } else { "" },
        ));
    }
    s.push_str("    ]\n  },\n");
    s
}

/// Render the full report: the deterministic region plus `"timing"`.
pub fn render(out: &CampaignOutcome) -> String {
    let mut s = render_deterministic(out);
    s.push_str("  \"timing\": {\n    \"scaling\": [\n");
    for (i, t) in out.scaling.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"threads\": {}, \"wall_ns\": {}, \"runs_per_sec\": {:.1}}}{}\n",
            t.threads,
            t.wall_ns,
            t.runs_per_sec(),
            if i + 1 < out.scaling.len() { "," } else { "" },
        ));
    }
    let speedup = match (out.scaling.first(), out.scaling.last()) {
        (Some(a), Some(b)) if a.threads != b.threads && b.wall_ns > 0 => {
            format!("{:.2}", a.wall_ns as f64 / b.wall_ns as f64)
        }
        _ => "null".to_string(),
    };
    // From the 1-thread pass (a count: any pass would read the same).
    let macs = out
        .scaling
        .first()
        .map_or(f64::NAN, |t| t.macs_per_delivery());
    s.push_str(&format!(
        "    ],\n    \"parallel_speedup\": {speedup},\n    \"macs_per_delivery\": {macs:.3}\n  }}\n}}\n"
    ));
    s
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
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("q\"q"), "\"q\\\"q\"");
    }
}
