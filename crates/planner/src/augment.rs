//! Graph augmentation: deciding replica lane counts.
//!
//! "BTR can be more efficient than, say, BFT because it provides weaker
//! guarantees; for instance, detection requires fewer replicas than
//! masking" (Section 1, citing the Fault Detection Problem \[36\]).
//! Detection needs f+1 replicas (any two disagreeing outputs reveal a
//! fault); masking needs 2f+1 (majority voting). The planner supports
//! both so the experiments can price the difference.

use btr_model::workload::{TaskKind, Workload};
use btr_model::TaskId;
use std::collections::BTreeMap;

/// How many copies of each task to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// f+1 lanes: enough for *detecting* up to f faults (BTR's choice).
    Detection,
    /// 2f+1 lanes: enough for *masking* up to f faults by majority
    /// (the BFT-style cost point, used for comparisons).
    Masking,
    /// Exactly one lane (unprotected baseline).
    None,
}

impl ReplicationMode {
    /// Lanes for a fault budget `f`.
    pub(crate) fn lanes(self, f: u8) -> u8 {
        match self {
            ReplicationMode::Detection => f + 1,
            ReplicationMode::Masking => 2 * f + 1,
            ReplicationMode::None => 1,
        }
    }
}

/// Compute per-task lane counts for the unshed portion of a workload.
///
/// * Compute tasks get `mode.lanes(f)` copies.
/// * Sources get the same (redundant sensors on distinct sensing nodes),
///   capped by the number of sensing-capable nodes available.
/// * Sinks always get exactly one copy — there is one physical actuator.
///
/// Shed tasks are excluded entirely; a task whose inputs are all shed is
/// shed as well (cascading), since it would compute from nothing.
pub fn lane_counts(
    workload: &Workload,
    mode: ReplicationMode,
    f: u8,
    shed: &std::collections::BTreeSet<TaskId>,
    max_source_lanes: u8,
) -> BTreeMap<TaskId, u8> {
    let mut lanes = BTreeMap::new();
    for &tid in workload.topo_order() {
        if shed.contains(&tid) {
            continue;
        }
        let spec = workload.task(tid);
        // Cascade: non-source with every input shed cannot run.
        if !spec.inputs.is_empty() {
            let alive = spec.inputs.iter().any(|i| lanes.contains_key(i));
            if !alive {
                continue;
            }
        }
        let n = match spec.kind {
            TaskKind::Sink { .. } => 1,
            TaskKind::Source { .. } => mode.lanes(f).min(max_source_lanes.max(1)),
            TaskKind::Compute => mode.lanes(f),
        };
        lanes.insert(tid, n);
    }
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_model::workload::WorkloadBuilder;
    use btr_model::{Criticality, Duration, NodeId};
    use std::collections::BTreeSet;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    fn chain() -> Workload {
        let mut b = WorkloadBuilder::new(ms(10), 0);
        let s = b.source("s", NodeId(0), Duration(100), Criticality::High, ms(10));
        let c = b.compute("c", &[s], Duration(100), Criticality::High, ms(10), 0);
        b.sink(
            "k",
            NodeId(1),
            &[c],
            Duration(50),
            Criticality::High,
            ms(10),
        );
        b.build().unwrap()
    }

    #[test]
    fn detection_vs_masking_lane_math() {
        assert_eq!(ReplicationMode::Detection.lanes(1), 2);
        assert_eq!(ReplicationMode::Detection.lanes(2), 3);
        assert_eq!(ReplicationMode::Masking.lanes(1), 3);
        assert_eq!(ReplicationMode::Masking.lanes(2), 5);
        assert_eq!(ReplicationMode::None.lanes(3), 1);
    }

    #[test]
    fn sinks_single_sources_capped() {
        let w = chain();
        let lanes = lane_counts(&w, ReplicationMode::Masking, 2, &BTreeSet::new(), 3);
        assert_eq!(lanes[&TaskId(0)], 3); // Capped at 3 sensing nodes.
        assert_eq!(lanes[&TaskId(1)], 5); // 2f+1.
        assert_eq!(lanes[&TaskId(2)], 1); // Sink.
    }

    #[test]
    fn shed_cascades_through_dependents() {
        let w = chain();
        let shed = BTreeSet::from([TaskId(0)]);
        let lanes = lane_counts(&w, ReplicationMode::Detection, 1, &shed, 8);
        // Source shed -> compute has no live inputs -> sink has none.
        assert!(lanes.is_empty());
    }

    #[test]
    fn partial_inputs_keep_task_alive() {
        let mut b = WorkloadBuilder::new(ms(10), 0);
        let s1 = b.source("s1", NodeId(0), Duration(100), Criticality::High, ms(10));
        let s2 = b.source("s2", NodeId(1), Duration(100), Criticality::Low, ms(10));
        let c = b.compute("c", &[s1, s2], Duration(100), Criticality::High, ms(10), 0);
        b.sink(
            "k",
            NodeId(2),
            &[c],
            Duration(50),
            Criticality::High,
            ms(10),
        );
        let w = b.build().unwrap();
        let shed = BTreeSet::from([s2]);
        let lanes = lane_counts(&w, ReplicationMode::Detection, 1, &shed, 8);
        assert!(lanes.contains_key(&c), "c still has s1");
        assert!(!lanes.contains_key(&s2));
    }
}
