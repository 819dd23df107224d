//! Adversarial strategy evaluation.
//!
//! Section 4.1: "computing a strategy is a bit like building a game tree
//! for a game like chess", citing empirical game-theoretic analysis
//! [68, 69]. The planner's strategy fixes the system's move for every
//! fault pattern, so evaluating it amounts to searching the adversary's
//! side of the tree: which sequence of up to `f` node compromises does
//! the most cumulative damage?

use btr_model::workload::Workload;
use btr_model::{Criticality, FaultSet, NodeId, Plan, Strategy};
use std::collections::BTreeMap;

/// Utility of a plan: criticality-weighted fraction of surviving sink
/// outputs. Weights double per level (Low=1 ... Safety=8), so keeping
/// flight control alive dominates keeping the cabin screens on.
pub fn plan_utility(plan: &Plan, workload: &Workload) -> f64 {
    let weight = |c: Criticality| -> f64 { (1u32 << c.rank()) as f64 };
    let mut total = 0.0;
    let mut alive = 0.0;
    for sink in workload.sinks() {
        let w = weight(sink.criticality);
        total += w;
        if !plan.is_shed(sink.id) {
            alive += w;
        }
    }
    if total == 0.0 {
        1.0
    } else {
        alive / total
    }
}

/// Quality report for a strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// For each fault-set size `k` (index), the minimum plan utility.
    pub min_utility_by_level: Vec<f64>,
    /// The adversary's best cumulative damage (sum over the sequence of
    /// `1 - utility` after each fault).
    pub worst_damage: f64,
    /// The fault sequence achieving it.
    pub worst_sequence: Vec<NodeId>,
}

/// Minimum plan utility at each fault level.
pub fn strategy_quality(strategy: &Strategy, workload: &Workload) -> QualityReport {
    let f = strategy.f as usize;
    let mut min_by_level = vec![f64::INFINITY; f + 1];
    for plan in &strategy.plans {
        let k = plan.fault_set.len();
        let u = plan_utility(plan, workload);
        if u < min_by_level[k] {
            min_by_level[k] = u;
        }
    }
    for v in &mut min_by_level {
        if !v.is_finite() {
            *v = 1.0;
        }
    }
    let (worst_damage, worst_sequence) = worst_case_sequence(strategy, workload);
    QualityReport {
        min_utility_by_level: min_by_level,
        worst_damage,
        worst_sequence,
    }
}

/// Exhaustive adversary search with memoisation: the damage-maximising
/// sequence of node compromises up to the strategy's fault budget.
///
/// Damage after each step is `1 - utility(plan(F))`; the adversary's
/// score is the sum over steps (earlier damage also counts, modelling
/// the paper's observation that an adversary "can trigger a new fault
/// every R seconds").
pub(crate) fn worst_case_sequence(strategy: &Strategy, workload: &Workload) -> (f64, Vec<NodeId>) {
    let n = strategy
        .plans
        .iter()
        .flat_map(|p| p.placement.values().map(|v| v.0 + 1))
        .max()
        .unwrap_or(1) as usize;
    let mut memo: BTreeMap<FaultSet, (f64, Vec<NodeId>)> = BTreeMap::new();
    fn damage_of(strategy: &Strategy, workload: &Workload, fs: &FaultSet) -> f64 {
        let pid = strategy.best_plan_for(fs);
        1.0 - plan_utility(strategy.plan(pid), workload)
    }
    fn recurse(
        strategy: &Strategy,
        workload: &Workload,
        fs: &FaultSet,
        n: usize,
        memo: &mut BTreeMap<FaultSet, (f64, Vec<NodeId>)>,
    ) -> (f64, Vec<NodeId>) {
        if fs.len() >= strategy.f as usize {
            return (0.0, vec![]);
        }
        if let Some(hit) = memo.get(fs) {
            return hit.clone();
        }
        let mut best = (0.0, vec![]);
        for x in 0..n as u32 {
            let xid = NodeId(x);
            if fs.contains(xid) {
                continue;
            }
            let mut next = fs.clone();
            next.insert(xid);
            let step = damage_of(strategy, workload, &next);
            let (rest, mut seq) = recurse(strategy, workload, &next, n, memo);
            let total = step + rest;
            if total > best.0 || (total == best.0 && best.1.is_empty() && !seq.is_empty()) {
                let mut s = vec![xid];
                s.append(&mut seq);
                best = (total, s);
            }
        }
        memo.insert(fs.clone(), best.clone());
        best
    }
    recurse(strategy, workload, &FaultSet::empty(), n, &mut memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_strategy, PlannerConfig};
    use btr_model::{Duration, Topology};

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    fn strategy_f1() -> (Strategy, Workload) {
        let w = btr_model::workload::generators::avionics(9);
        let topo = Topology::bus(9, 100_000, Duration(5));
        let cfg = PlannerConfig::new(1, ms(100));
        let (s, _) = build_strategy(&w, &topo, &cfg).unwrap();
        (s, w)
    }

    #[test]
    fn initial_plan_has_full_utility() {
        let (s, w) = strategy_f1();
        assert_eq!(plan_utility(s.initial_plan(), &w), 1.0);
    }

    #[test]
    fn utility_drops_when_sinks_shed() {
        let (s, w) = strategy_f1();
        // Failing an actuator node sheds its sink -> utility < 1.
        let elevator = w.tasks().iter().find(|t| t.name == "elevator").unwrap();
        let pinned = elevator.kind.pinned_node().unwrap();
        let fs = FaultSet::from_nodes(&[pinned]);
        let plan = s.plan(s.plan_for(&fs).unwrap());
        let u = plan_utility(plan, &w);
        assert!(u < 1.0, "utility {u}");
        assert!(u > 0.0);
    }

    #[test]
    fn quality_report_levels() {
        let (s, w) = strategy_f1();
        let q = strategy_quality(&s, &w);
        assert_eq!(q.min_utility_by_level.len(), 2);
        assert_eq!(q.min_utility_by_level[0], 1.0);
        assert!(q.min_utility_by_level[1] <= 1.0);
        assert_eq!(q.worst_sequence.len(), 1);
        assert!(q.worst_damage >= 0.0);
    }

    #[test]
    fn adversary_picks_most_damaging_node() {
        let (s, w) = strategy_f1();
        let (damage, seq) = worst_case_sequence(&s, &w);
        // The adversary's one move must achieve the max single-fault damage.
        let mut best = 0.0f64;
        for i in 0..9u32 {
            let fs = FaultSet::from_nodes(&[NodeId(i)]);
            let plan = s.plan(s.best_plan_for(&fs));
            let d = 1.0 - plan_utility(plan, &w);
            if d > best {
                best = d;
            }
        }
        assert!((damage - best).abs() < 1e-12);
        assert_eq!(seq.len(), 1);
    }
}
