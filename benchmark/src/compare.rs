//! `compare A B`: hold two sets of recorded runs against each other.
//!
//! A set is a file of run records, one JSON object per line, as
//! `--record` appends them. For every workload and end-to-end metric
//! the table shows both medians and quartiles, the bound, and a
//! verdict:
//!
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `unresolved` — the spread of either side is wider than the bound,
//!   so the medians cannot settle it (unless every run of B beats every
//!   run of A, which is `better`);
//! * `better` — B's median is better by more than A's own spread;
//! * `same` — anything else.
//!
//! Per-layer metrics that are counts or simulated times repeat exactly
//! for a seed; for those, any difference between the two sets on a
//! seed they share is reported as `differs`.
//!
//! Exit 1 on any `worse`, any `differs`, or a higher failure rate.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats;
use std::collections::BTreeMap;

fn is_exact(name: &str) -> bool {
    PER_LAYER.iter().any(|l| l.name == name && l.exact)
}

#[derive(Debug, Default)]
struct RunSet {
    /// (workload, metric) -> one value per untraced run.
    end_to_end: BTreeMap<(String, String), Vec<f64>>,
    /// (workload, seed, metric) -> value, traced runs.
    exact: BTreeMap<(String, u64, String), f64>,
    /// workload -> (attempted, failed) over all its runs.
    checked: BTreeMap<String, (f64, f64)>,
}

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = RunSet::default();
    for (at, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", at + 1);
        let rec = json::parse(line).map_err(|e| bad(&e))?;
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let seed = rec
            .get("seed")
            .and_then(Value::as_f64)
            .ok_or_else(|| bad("no seed"))? as u64;
        let traced = rec.get("trace").and_then(Value::as_f64) == Some(1.0);
        let metrics = rec
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| bad("no metrics"))?;
        let checked = set.checked.entry(workload.to_string()).or_default();
        checked.0 += rec.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
        checked.1 += rec.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        for (name, m) in metrics {
            let Some(value) = m.get("value").and_then(Value::as_f64) else {
                return Err(bad(&format!("metric {name} has no value")));
            };
            if traced {
                if is_exact(name) {
                    set.exact
                        .insert((workload.to_string(), seed, name.clone()), value);
                }
            } else {
                set.end_to_end
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    // Positive = B is worse, as a share of A's median.
    let worse_by = match better {
        Better::Lower => (med_b - med_a) / med_a.abs(),
        Better::Higher => (med_a - med_b) / med_a.abs(),
    };
    let spread_a = stats::spread(a).unwrap_or(0.0);
    let spread_b = stats::spread(b).unwrap_or(0.0);
    if spread_a.max(spread_b) > bound {
        let b_always_wins = match better {
            Better::Lower => stats::worst(b) < stats::best(a),
            Better::Higher => stats::best(b) > stats::worst(a),
        };
        return if b_always_wins {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread_a && worse_by != 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn quartile_text(v: &[f64]) -> String {
    match stats::quartiles(v) {
        Some([q1, q2, q3]) => format!("{q2:.4} [{q1:.4} {q3:.4}] n={}", v.len()),
        None => format!("{:.4} n={}", stats::median(v), v.len()),
    }
}

/// Compare two result sets; `Ok(true)` when B is no worse than A.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut ok = true;
    println!(
        "{:<24} {:<18} {:>34} {:>34} {:>6}  verdict",
        "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "bound"
    );
    for ((workload, metric), va) in &a.end_to_end {
        let Some(def) = END_TO_END.iter().find(|e| e.name == metric) else {
            continue;
        };
        let Some(vb) = b.end_to_end.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let verdict = judge(va, vb, def.better, def.bound);
        ok &= verdict != Verdict::Worse;
        println!(
            "{workload:<24} {metric:<18} {:>34} {:>34} {:>5.0}%  {}",
            quartile_text(va),
            quartile_text(vb),
            def.bound * 100.0,
            verdict.label()
        );
    }
    let mut exact_same = 0;
    for (key, va) in &a.exact {
        let Some(vb) = b.exact.get(key) else { continue };
        if va == vb {
            exact_same += 1;
        } else {
            ok = false;
            let (workload, seed, metric) = key;
            println!(
                "{workload:<24} {metric:<18} seed {seed}: {va} vs {vb}  DIFFERS (exact metric)"
            );
        }
    }
    println!(
        "{exact_same} exact per-layer values (of {} declared per-layer metrics) identical on shared seeds",
        PER_LAYER.len()
    );
    for (workload, &(attempted_a, failed_a)) in &a.checked {
        let Some(&(attempted_b, failed_b)) = b.checked.get(workload) else {
            continue;
        };
        let (rate_a, rate_b) = (
            failed_a / attempted_a.max(1.0),
            failed_b / attempted_b.max(1.0),
        );
        if rate_b > rate_a {
            ok = false;
            println!("{workload:<24} failure_rate {rate_a} -> {rate_b}  WORSE");
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let faster = [90.0, 91.0, 89.0, 90.5, 89.5];
        assert_eq!(judge(&a, &slower, Better::Lower, 0.15), Verdict::Worse);
        assert_eq!(judge(&a, &slower, Better::Higher, 0.15), Verdict::Better);
        assert_eq!(judge(&a, &faster, Better::Lower, 0.15), Verdict::Better);
        assert_eq!(judge(&a, &a, Better::Lower, 0.15), Verdict::Same);
        // Within the bound is not a regression.
        let a_bit = [105.0, 106.0, 104.0, 105.5, 104.5];
        assert_eq!(judge(&a, &a_bit, Better::Lower, 0.15), Verdict::Same);
        // A spread wider than the bound cannot resolve a shift...
        let noisy = [80.0, 130.0, 100.0, 145.0, 70.0];
        assert_eq!(judge(&noisy, &a, Better::Lower, 0.15), Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        let far = [10.0, 11.0, 9.0, 10.5, 9.5];
        assert_eq!(judge(&noisy, &far, Better::Lower, 0.15), Verdict::Better);
    }

    #[test]
    fn exact_metrics_are_the_counts_and_simulated_times() {
        assert!(is_exact("sim.count.queue"));
        assert!(is_exact("detector.detect_ms_p50"));
        assert!(is_exact("recovery_ms_p95"));
        assert!(!is_exact("sim.share_pct.queue"));
        assert!(!is_exact("run_ms_p50"));
        assert!(!is_exact("recovery_wall_ms_p50"));
        for name in PER_LAYER.iter().map(|l| l.name).filter(|n| is_exact(n)) {
            assert!(
                !name.contains("_us") && !name.ends_with("_s"),
                "{name} is host time"
            );
        }
    }
}
