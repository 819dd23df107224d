//! The output-correctness oracle (Definition 3.1).
//!
//! "We say that the outputs of the system as a whole (e.g., its commands
//! to the actuators) are correct in an interval [t1, t2] if they are
//! consistent with the outputs of a system in which all nodes are
//! correct. Then ... a system offers recovery with a time bound R if its
//! outputs are correct in any interval [t1, t2] such that no fault has
//! manifested in [t1−R, t2)."
//!
//! Because every task is a deterministic digest, the all-correct
//! reference is a pure function — no reference simulation run is needed.
//! The oracle additionally understands the paper's mixed-criticality
//! extension ("allowing a certain set of outputs to fail permanently if
//! the number of faults rises above a certain level"): outputs matching
//! the *degraded* plan the strategy prescribes for the injected fault
//! pattern are classified [`Verdict::Degraded`], and sinks that plan
//! sheds are [`Verdict::Shed`] rather than missing.

use btr_model::workload::{TaskKind, TaskSpec, Workload};
use btr_model::{
    sensor_value, task_value, Criticality, Duration, NodeId, PeriodIdx, TaskId, Time, Value,
};
use btr_sim::Actuation;
use std::collections::{BTreeMap, BTreeSet};

/// The all-correct reference value of any task instance.
pub fn reference_value(w: &Workload, t: TaskId, p: PeriodIdx) -> Value {
    let spec = w.task(t);
    if matches!(spec.kind, TaskKind::Source { .. }) {
        return sensor_value(t, p, w.seed);
    }
    let vals: Vec<(TaskId, Value)> = spec
        .inputs
        .iter()
        .map(|&u| (u, reference_value(w, u, p)))
        .collect();
    task_value(t, p, &vals)
}

/// The expected value of a task instance under a shed set (degraded
/// modes drop inputs). `None` if the task itself cannot run.
pub(crate) fn shed_aware_value(
    w: &Workload,
    shed: &BTreeSet<TaskId>,
    t: TaskId,
    p: PeriodIdx,
) -> Option<Value> {
    if shed.contains(&t) {
        return None;
    }
    let spec = w.task(t);
    if matches!(spec.kind, TaskKind::Source { .. }) {
        return Some(sensor_value(t, p, w.seed));
    }
    let vals: Vec<(TaskId, Value)> = spec
        .inputs
        .iter()
        .filter_map(|&u| shed_aware_value(w, shed, u, p).map(|v| (u, v)))
        .collect();
    if vals.is_empty() {
        return None;
    }
    Some(task_value(t, p, &vals))
}

/// Classification of one (sink, period) output slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Matches the all-correct reference, on time.
    Correct,
    /// Matches the degraded plan the strategy prescribes for the injected
    /// fault pattern (legitimate mixed-criticality degradation).
    Degraded,
    /// The degraded plan sheds this sink (permanent, planned loss).
    Shed,
    /// Arrived with the right value but after the deadline.
    Late,
    /// A value inconsistent with any legitimate mode.
    Wrong,
    /// No output at all, though the plan says there should be one.
    Missing,
}

impl Verdict {
    /// True if this verdict counts as "correct" under Definition 3.1
    /// (with the paper's mixed-criticality extension).
    pub(crate) fn acceptable(self) -> bool {
        matches!(self, Verdict::Correct | Verdict::Degraded | Verdict::Shed)
    }
}

/// One judged output slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkVerdict {
    /// The sink task.
    pub sink: TaskId,
    /// Its criticality.
    pub(crate) criticality: Criticality,
    /// The release period.
    pub period: PeriodIdx,
    /// The classification.
    pub(crate) verdict: Verdict,
    /// When the output arrived (if it did).
    pub at: Option<Time>,
}

/// Judge every (sink, period) slot over `periods` full periods.
///
/// `degraded_shed` is the shed set of the plan the strategy prescribes
/// for the injected fault pattern (empty when no faults are injected);
/// `compromised` the adversary-controlled nodes — an actuation a
/// compromised node performs at a sink the prescribed plan has shed is
/// judged [`Verdict::Shed`], not [`Verdict::Wrong`]: the plan already
/// gave that actuator up because its node is in the fault set, and no
/// protocol can stop an adversary from driving hardware it owns;
/// `deadline_slack` tolerates bounded clock skew in the on-time check.
pub(crate) fn judge(
    w: &Workload,
    actuations: &[Actuation],
    periods: PeriodIdx,
    degraded_shed: &BTreeSet<TaskId>,
    compromised: &BTreeSet<NodeId>,
    fault_at: Option<Time>,
    deadline_slack: Duration,
) -> Vec<SinkVerdict> {
    let sinks: Vec<&TaskSpec> = w.sinks().collect();
    let n = periods as usize;
    // Per (sink, period), at `sink * n + period`: its reference value,
    // filled a period at a time, and the first actuation, the one judged.
    let mut expected = vec![0; sinks.len() * n];
    let mut reference = ReferenceTable::new(w);
    for p in 0..periods {
        reference.fill(w, p);
        for (s, sink) in sinks.iter().enumerate() {
            expected[s * n + p as usize] = reference.value(sink.id);
        }
    }
    let mut seen: Vec<Option<&Actuation>> = vec![None; sinks.len() * n];
    for a in actuations {
        if let Some(s) = sinks.iter().position(|s| s.id == a.task) {
            if a.period < periods {
                seen[s * n + a.period as usize].get_or_insert(a);
            }
        }
    }
    let period_us = w.period.as_micros();
    let mut out = Vec::with_capacity(sinks.len() * n);
    for (s, sink) in sinks.iter().enumerate() {
        for p in 0..periods {
            let period_start = Time(p * period_us);
            let deadline = period_start + sink.deadline + deadline_slack;
            let expected = expected[s * n + p as usize];
            let fault_active = fault_at.is_some_and(|t| {
                // Degradation is only legitimate once a fault manifested.
                period_start + w.period > t
            });
            let first = seen[s * n + p as usize];
            let verdict = match first {
                None => {
                    if fault_active && degraded_shed.contains(&sink.id) {
                        Verdict::Shed
                    } else {
                        Verdict::Missing
                    }
                }
                Some(a)
                    if fault_active
                        && degraded_shed.contains(&sink.id)
                        && compromised.contains(&a.node) =>
                {
                    Verdict::Shed
                }
                Some(a) => {
                    let on_time = a.at <= deadline;
                    if a.value == expected {
                        if on_time {
                            Verdict::Correct
                        } else {
                            Verdict::Late
                        }
                    } else if fault_active
                        && shed_aware_value(w, degraded_shed, sink.id, p) == Some(a.value)
                    {
                        if on_time {
                            Verdict::Degraded
                        } else {
                            Verdict::Late
                        }
                    } else {
                        Verdict::Wrong
                    }
                }
            };
            out.push(SinkVerdict {
                sink: sink.id,
                criticality: sink.criticality,
                period: p,
                verdict,
                at: first.map(|a| a.at),
            });
        }
    }
    out
}

/// The all-correct reference value of every task in one period, each
/// computed once from its inputs' (upstream first, in the workload's
/// topological order) and refilled for the next period, where
/// [`reference_value`] walks a sink's whole upstream tree again for
/// every (sink, period) it is asked.
struct ReferenceTable {
    /// By task index.
    values: Vec<Value>,
    /// Reusable (input, value) list of the task being computed.
    inputs: Vec<(TaskId, Value)>,
}

impl ReferenceTable {
    fn new(w: &Workload) -> Self {
        ReferenceTable {
            values: vec![0; w.len()],
            inputs: Vec::new(),
        }
    }

    /// Compute every task's reference value in period `p`.
    fn fill(&mut self, w: &Workload, p: PeriodIdx) {
        for &t in w.topo_order() {
            let spec = w.task(t);
            self.values[t.index()] = if matches!(spec.kind, TaskKind::Source { .. }) {
                sensor_value(t, p, w.seed)
            } else {
                self.inputs.clear();
                let values = &self.values;
                self.inputs
                    .extend(spec.inputs.iter().map(|&u| (u, values[u.index()])));
                task_value(t, p, &self.inputs)
            };
        }
    }

    /// The reference value of `t` in the period last filled.
    fn value(&self, t: TaskId) -> Value {
        self.values[t.index()]
    }
}

/// Recovery measurement for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryStats {
    /// When the first injected fault manifested (None = fault-free run).
    pub(crate) fault_at: Option<Time>,
    /// First unacceptable output slot's period end.
    pub first_bad: Option<Time>,
    /// Last unacceptable output slot's period end.
    pub last_bad: Option<Time>,
    /// Number of unacceptable output slots.
    pub bad_outputs: usize,
    /// Total judged output slots.
    pub total_outputs: usize,
    /// Recovery time: last bad instant minus fault manifestation.
    /// `Some(ZERO)` when a fault was injected but no output ever went bad
    /// (fault masked or harmless).
    pub(crate) recovery_time: Option<Duration>,
}

impl RecoveryStats {
    /// Compute from verdicts. Bad slots *before* the fault manifested
    /// (startup noise would show here; there should be none) also count —
    /// correctness is unconditional pre-fault.
    pub(crate) fn from_verdicts(
        w: &Workload,
        verdicts: &[SinkVerdict],
        fault_at: Option<Time>,
    ) -> Self {
        let period_us = w.period.as_micros();
        let mut first_bad = None;
        let mut last_bad = None;
        let mut bad = 0;
        for v in verdicts {
            if !v.verdict.acceptable() {
                bad += 1;
                let end = Time((v.period + 1) * period_us);
                if first_bad.is_none_or(|t| end < t) {
                    first_bad = Some(end);
                }
                if last_bad.is_none_or(|t| end > t) {
                    last_bad = Some(end);
                }
            }
        }
        let recovery_time = match (fault_at, last_bad) {
            (Some(f), Some(l)) => Some(l.saturating_since(f)),
            (Some(_), None) => Some(Duration::ZERO),
            (None, _) => None,
        };
        RecoveryStats {
            fault_at,
            first_bad,
            last_bad,
            bad_outputs: bad,
            total_outputs: verdicts.len(),
            recovery_time,
        }
    }

    /// True if the system produced correct outputs again by the end of
    /// the judged window (i.e., the bad window closed).
    pub fn recovered(&self) -> bool {
        self.recovery_time.is_some()
    }

    /// The measured bad-output window, zero if none.
    pub fn bad_window(&self) -> Duration {
        self.recovery_time.unwrap_or(Duration::ZERO)
    }
}

/// Fraction of acceptable slots per criticality level (E5).
pub(crate) fn survival_by_criticality(verdicts: &[SinkVerdict]) -> BTreeMap<Criticality, f64> {
    let mut tally: BTreeMap<Criticality, (usize, usize)> = BTreeMap::new();
    for v in verdicts {
        let e = tally.entry(v.criticality).or_insert((0, 0));
        e.1 += 1;
        if v.verdict.acceptable() && v.verdict != Verdict::Shed {
            e.0 += 1;
        }
    }
    tally
        .into_iter()
        .map(|(c, (ok, total))| (c, ok as f64 / total.max(1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_model::workload::WorkloadBuilder;
    use btr_model::NodeId;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    fn wl() -> Workload {
        let mut b = WorkloadBuilder::new(ms(10), 3);
        let s = b.source("s", NodeId(0), Duration(100), Criticality::Safety, ms(10));
        let c = b.compute("c", &[s], Duration(100), Criticality::Safety, ms(10), 0);
        b.sink(
            "k",
            NodeId(1),
            &[c],
            Duration(50),
            Criticality::Safety,
            ms(9),
        );
        b.build().unwrap()
    }

    fn act(w: &Workload, p: PeriodIdx, value_delta: u64, at_us: u64) -> Actuation {
        Actuation {
            at: Time(at_us),
            node: NodeId(1),
            task: TaskId(2),
            period: p,
            value: reference_value(w, TaskId(2), p) ^ value_delta,
        }
    }

    #[test]
    fn reference_is_deterministic_and_plan_aware() {
        let w = wl();
        assert_eq!(
            reference_value(&w, TaskId(2), 4),
            reference_value(&w, TaskId(2), 4)
        );
        // Shedding the source kills the whole chain.
        let shed = BTreeSet::from([TaskId(0)]);
        assert_eq!(shed_aware_value(&w, &shed, TaskId(2), 0), None);
        // Empty shed set matches the reference.
        assert_eq!(
            shed_aware_value(&w, &BTreeSet::new(), TaskId(2), 3),
            Some(reference_value(&w, TaskId(2), 3))
        );
    }

    #[test]
    fn reference_table_is_reference_value_on_every_grid_workload() {
        // Every workload family of the default campaign grid, at every
        // node count a grid cell gives one (6 to 36), periods 0-7: the
        // judge's table holds what the recursive walk computes.
        for name in ["avionics", "automotive", "scada", "fusion-chain"] {
            let gen = btr_model::workload::generators::by_name(name).expect("a catalog workload");
            for nodes in [6, 8, 9, 36] {
                let w = gen(nodes);
                let mut table = ReferenceTable::new(&w);
                for p in 0..8 {
                    table.fill(&w, p);
                    for task in w.tasks() {
                        assert_eq!(
                            table.value(task.id),
                            reference_value(&w, task.id, p),
                            "{name} on {nodes} nodes: task {} period {p}",
                            task.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn judge_classifies_correct_wrong_missing_late() {
        let w = wl();
        let acts = vec![
            act(&w, 0, 0, 5_000),     // Correct, on time.
            act(&w, 1, 0xff, 15_000), // Wrong value.
            act(&w, 3, 0, 39_999),    // Right value but past 9 ms + slack.
        ];
        let v = judge(
            &w,
            &acts,
            4,
            &BTreeSet::new(),
            &BTreeSet::new(),
            None,
            Duration(100),
        );
        assert_eq!(v[0].verdict, Verdict::Correct);
        assert_eq!(v[1].verdict, Verdict::Wrong);
        assert_eq!(v[2].verdict, Verdict::Missing); // Period 2 absent.
        assert_eq!(v[3].verdict, Verdict::Late);
    }

    #[test]
    fn shed_only_counts_after_fault() {
        let w = wl();
        let shed = BTreeSet::from([TaskId(2)]);
        // Missing before the fault -> Missing; after -> Shed.
        let v = judge(
            &w,
            &[],
            4,
            &shed,
            &BTreeSet::new(),
            Some(Time(25_000)),
            Duration(100),
        );
        assert_eq!(v[0].verdict, Verdict::Missing);
        assert_eq!(v[1].verdict, Verdict::Missing);
        assert_eq!(v[2].verdict, Verdict::Shed); // Period 2 overlaps fault.
        assert_eq!(v[3].verdict, Verdict::Shed);
    }

    #[test]
    fn recovery_stats_window() {
        let w = wl();
        let acts = vec![
            act(&w, 0, 0, 5_000),
            act(&w, 1, 1, 15_000), // Bad.
            act(&w, 2, 1, 25_000), // Bad.
            act(&w, 3, 0, 35_000), // Recovered.
        ];
        let v = judge(
            &w,
            &acts,
            4,
            &BTreeSet::new(),
            &BTreeSet::new(),
            Some(Time(12_000)),
            Duration(100),
        );
        let r = RecoveryStats::from_verdicts(&w, &v, Some(Time(12_000)));
        assert_eq!(r.bad_outputs, 2);
        assert_eq!(r.first_bad, Some(Time(20_000)));
        assert_eq!(r.last_bad, Some(Time(30_000)));
        assert_eq!(r.recovery_time, Some(Duration(18_000)));
        assert!(r.recovered());
    }

    #[test]
    fn fault_free_recovery_is_none() {
        let w = wl();
        let acts = vec![act(&w, 0, 0, 5_000)];
        let v = judge(
            &w,
            &acts,
            1,
            &BTreeSet::new(),
            &BTreeSet::new(),
            None,
            Duration(100),
        );
        let r = RecoveryStats::from_verdicts(&w, &v, None);
        assert_eq!(r.recovery_time, None);
        assert_eq!(r.bad_window(), Duration::ZERO);
    }

    #[test]
    fn compromised_actuation_at_shed_sink_is_shed_not_wrong() {
        // A compromised node driving its own (plan-shed) actuator with
        // garbage is a planned loss, not a protocol failure: no protocol
        // can stop an adversary from actuating hardware it owns. The
        // same garbage at a *kept* sink, or from a correct node, stays
        // Wrong.
        let w = wl();
        let garbage = btr_sim::Actuation {
            at: Time(15_000),
            node: NodeId(1),
            task: btr_model::TaskId(2),
            period: 1,
            value: 0xBAD,
        };
        let shed = BTreeSet::from([btr_model::TaskId(2)]);
        let comp = BTreeSet::from([NodeId(1)]);
        let fault = Some(Time(5_000));
        let v = judge(&w, &[garbage], 2, &shed, &comp, fault, Duration(100));
        assert_eq!(v[1].verdict, Verdict::Shed);
        // Kept sink: still Wrong.
        let v = judge(
            &w,
            &[garbage],
            2,
            &BTreeSet::new(),
            &comp,
            fault,
            Duration(100),
        );
        assert_eq!(v[1].verdict, Verdict::Wrong);
        // Correct node actuating garbage at a shed sink: still Wrong.
        let v = judge(
            &w,
            &[garbage],
            2,
            &shed,
            &BTreeSet::new(),
            fault,
            Duration(100),
        );
        assert_eq!(v[1].verdict, Verdict::Wrong);
        // Before the fault manifests, the exemption must not apply.
        let v = judge(
            &w,
            &[garbage],
            2,
            &shed,
            &comp,
            Some(Time(25_000)),
            Duration(100),
        );
        assert_eq!(v[1].verdict, Verdict::Wrong);
    }

    #[test]
    fn masked_fault_recovers_in_zero() {
        let w = wl();
        let acts = vec![act(&w, 0, 0, 5_000)];
        let v = judge(
            &w,
            &acts,
            1,
            &BTreeSet::new(),
            &BTreeSet::new(),
            Some(Time(1_000)),
            Duration(100),
        );
        let r = RecoveryStats::from_verdicts(&w, &v, Some(Time(1_000)));
        assert_eq!(r.recovery_time, Some(Duration::ZERO));
    }

    #[test]
    fn survival_tally() {
        let w = wl();
        let acts = vec![act(&w, 0, 0, 5_000), act(&w, 1, 7, 15_000)];
        let v = judge(
            &w,
            &acts,
            2,
            &BTreeSet::new(),
            &BTreeSet::new(),
            None,
            Duration(100),
        );
        let s = survival_by_criticality(&v);
        assert!((s[&Criticality::Safety] - 0.5).abs() < 1e-9);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use btr_model::workload::WorkloadBuilder;
    use btr_model::NodeId;
    use proptest::prelude::*;

    fn wl() -> Workload {
        let mut b = WorkloadBuilder::new(Duration::from_millis(10), 3);
        let s = b.source(
            "s",
            NodeId(0),
            Duration(100),
            Criticality::Safety,
            Duration::from_millis(10),
        );
        let c = b.compute(
            "c",
            &[s],
            Duration(100),
            Criticality::Safety,
            Duration::from_millis(10),
            0,
        );
        b.sink(
            "k",
            NodeId(1),
            &[c],
            Duration(50),
            Criticality::Safety,
            Duration::from_millis(9),
        );
        b.build().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The recovery window always spans exactly the unacceptable
        /// slots: empty iff no bad slot, and first_bad <= last_bad.
        #[test]
        fn prop_recovery_window_consistent(
            bad_periods in proptest::collection::btree_set(0u64..20, 0..8),
            fault_at in 0u64..200_000,
        ) {
            let w = wl();
            let acts: Vec<btr_sim::Actuation> = (0..20u64)
                .map(|p| btr_sim::Actuation {
                    at: Time(p * 10_000 + 5_000),
                    node: NodeId(1),
                    task: btr_model::TaskId(2),
                    period: p,
                    value: reference_value(&w, btr_model::TaskId(2), p)
                        ^ u64::from(bad_periods.contains(&p)),
                })
                .collect();
            let v = judge(&w, &acts, 20, &std::collections::BTreeSet::new(),
                          &std::collections::BTreeSet::new(), Some(Time(fault_at)), Duration(100));
            let r = RecoveryStats::from_verdicts(&w, &v, Some(Time(fault_at)));
            prop_assert_eq!(r.bad_outputs, bad_periods.len());
            match (r.first_bad, r.last_bad) {
                (Some(f), Some(l)) => {
                    prop_assert!(f <= l);
                    prop_assert_eq!(
                        f,
                        Time((bad_periods.iter().min().unwrap() + 1) * 10_000)
                    );
                    prop_assert_eq!(
                        l,
                        Time((bad_periods.iter().max().unwrap() + 1) * 10_000)
                    );
                }
                (None, None) => prop_assert!(bad_periods.is_empty()),
                _ => prop_assert!(false, "inconsistent window"),
            }
        }

        /// Judged verdict counts always equal sinks x periods, and the
        /// acceptable set is monotone in the actuation set: adding a
        /// correct actuation never worsens a verdict.
        #[test]
        fn prop_verdict_count_and_monotonicity(present in proptest::collection::btree_set(0u64..12, 0..12)) {
            let w = wl();
            let acts: Vec<btr_sim::Actuation> = present
                .iter()
                .map(|&p| btr_sim::Actuation {
                    at: Time(p * 10_000 + 5_000),
                    node: NodeId(1),
                    task: btr_model::TaskId(2),
                    period: p,
                    value: reference_value(&w, btr_model::TaskId(2), p),
                })
                .collect();
            let v = judge(&w, &acts, 12, &std::collections::BTreeSet::new(), &std::collections::BTreeSet::new(), None, Duration(100));
            prop_assert_eq!(v.len(), 12); // 1 sink x 12 periods.
            for sv in &v {
                if present.contains(&sv.period) {
                    prop_assert_eq!(sv.verdict, Verdict::Correct);
                } else {
                    prop_assert_eq!(sv.verdict, Verdict::Missing);
                }
            }
        }
    }
}
