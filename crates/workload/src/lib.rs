//! Periodic dataflow workloads.
//!
//! The paper's workload model (Section 2.1): "we assume a static,
//! periodic workload that can be described as a dataflow graph ... The
//! system has a period P and releases a set of tasks during each period.
//! Each task requires some inputs from the sources and/or from other
//! tasks, and it sends at least one output to a sink or another task.
//! Each output has a criticality level and a deadline by which it must
//! arrive at the appropriate sink."
//!
//! [`Workload`] is that graph, validated (acyclic, well-formed, deadlines
//! within the period); [`generators`] builds realistic instances — the
//! avionics mix the paper's introduction motivates (flight control next
//! to in-flight entertainment), an automotive brake-by-wire system, a
//! SCADA plant, and parameterised random layered DAGs for sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;

use btr_model::evidence::WorkloadView;
use btr_model::{Criticality, Duration, NodeId, TaskId};
use std::collections::BTreeSet;

/// What role a task plays in the dataflow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Reads a physical sensor; pinned to a sensing-capable node.
    Source {
        /// The node whose sensor this task reads.
        pinned: NodeId,
    },
    /// Pure computation; the planner places it anywhere.
    Compute,
    /// Drives a physical actuator; pinned to an actuating-capable node.
    Sink {
        /// The node whose actuator this task drives.
        pinned: NodeId,
    },
}

impl TaskKind {
    /// The pinned node for sources/sinks.
    pub fn pinned_node(&self) -> Option<NodeId> {
        match self {
            TaskKind::Source { pinned } | TaskKind::Sink { pinned } => Some(*pinned),
            TaskKind::Compute => None,
        }
    }
}

/// Static description of one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Dense 0-based id.
    pub id: TaskId,
    /// Human-readable name.
    pub name: String,
    /// Source / compute / sink.
    pub kind: TaskKind,
    /// Dataflow inputs (producer task ids).
    pub inputs: Vec<TaskId>,
    /// Worst-case execution time at nominal (100%) node speed.
    pub wcet: Duration,
    /// Criticality of this task's output.
    pub criticality: Criticality,
    /// Deadline for this task's output, relative to the period start.
    pub deadline: Duration,
    /// Bytes of internal state that must migrate if the task moves nodes.
    pub state_bytes: u32,
}

/// Why a workload failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// Task ids are not dense 0..n in order.
    NonDenseIds,
    /// An input references a task id that does not exist.
    UnknownInput(TaskId, TaskId),
    /// The dataflow graph has a cycle.
    Cyclic,
    /// A source task declares inputs.
    SourceWithInputs(TaskId),
    /// A non-source task has no inputs.
    NoInputs(TaskId),
    /// A task output is consumed by nobody and the task is not a sink.
    DeadEnd(TaskId),
    /// A sink task is used as an input by another task.
    SinkWithConsumers(TaskId),
    /// A task's deadline exceeds the period.
    DeadlineBeyondPeriod(TaskId),
    /// A task has zero WCET.
    ZeroWcet(TaskId),
    /// The workload has no sink (no externally visible output).
    NoSinks,
    /// A task input is duplicated.
    DuplicateInput(TaskId, TaskId),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::NonDenseIds => write!(f, "task ids must be dense 0..n"),
            WorkloadError::UnknownInput(t, i) => write!(f, "{t} consumes unknown task {i}"),
            WorkloadError::Cyclic => write!(f, "dataflow graph is cyclic"),
            WorkloadError::SourceWithInputs(t) => write!(f, "source {t} declares inputs"),
            WorkloadError::NoInputs(t) => write!(f, "non-source {t} has no inputs"),
            WorkloadError::DeadEnd(t) => write!(f, "non-sink {t} has no consumers"),
            WorkloadError::SinkWithConsumers(t) => write!(f, "sink {t} has consumers"),
            WorkloadError::DeadlineBeyondPeriod(t) => {
                write!(f, "{t} deadline exceeds the period")
            }
            WorkloadError::ZeroWcet(t) => write!(f, "{t} has zero WCET"),
            WorkloadError::NoSinks => write!(f, "workload has no sinks"),
            WorkloadError::DuplicateInput(t, i) => write!(f, "{t} consumes {i} twice"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A validated periodic dataflow workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The system period P.
    pub period: Duration,
    /// Seed determining sensor readings.
    pub seed: u64,
    tasks: Vec<TaskSpec>,
    /// Reverse edges: consumers[t] = tasks that consume t's output.
    consumers: Vec<Vec<TaskId>>,
    /// Topological order (producers before consumers).
    topo_order: Vec<TaskId>,
}

impl Workload {
    /// Validate and build a workload from task specs.
    pub fn new(
        period: Duration,
        seed: u64,
        tasks: Vec<TaskSpec>,
    ) -> Result<Workload, WorkloadError> {
        // Dense ids.
        for (i, t) in tasks.iter().enumerate() {
            if t.id.index() != i {
                return Err(WorkloadError::NonDenseIds);
            }
        }
        let n = tasks.len();
        let mut consumers: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        let mut has_sink = false;
        for t in &tasks {
            match t.kind {
                TaskKind::Source { .. } => {
                    if !t.inputs.is_empty() {
                        return Err(WorkloadError::SourceWithInputs(t.id));
                    }
                }
                _ => {
                    if t.inputs.is_empty() {
                        return Err(WorkloadError::NoInputs(t.id));
                    }
                }
            }
            if matches!(t.kind, TaskKind::Sink { .. }) {
                has_sink = true;
            }
            if t.wcet == Duration::ZERO {
                return Err(WorkloadError::ZeroWcet(t.id));
            }
            if t.deadline > period {
                return Err(WorkloadError::DeadlineBeyondPeriod(t.id));
            }
            let mut seen = BTreeSet::new();
            for &i in &t.inputs {
                if i.index() >= n {
                    return Err(WorkloadError::UnknownInput(t.id, i));
                }
                if !seen.insert(i) {
                    return Err(WorkloadError::DuplicateInput(t.id, i));
                }
                consumers[i.index()].push(t.id);
            }
        }
        if !has_sink {
            return Err(WorkloadError::NoSinks);
        }
        for t in &tasks {
            match t.kind {
                TaskKind::Sink { .. } => {
                    if !consumers[t.id.index()].is_empty() {
                        return Err(WorkloadError::SinkWithConsumers(t.id));
                    }
                }
                _ => {
                    if consumers[t.id.index()].is_empty() {
                        return Err(WorkloadError::DeadEnd(t.id));
                    }
                }
            }
        }
        // Kahn topological sort.
        let mut indeg: Vec<usize> = tasks.iter().map(|t| t.inputs.len()).collect();
        let mut queue: Vec<TaskId> = tasks
            .iter()
            .filter(|t| t.inputs.is_empty())
            .map(|t| t.id)
            .collect();
        let mut topo_order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let t = queue[head];
            head += 1;
            topo_order.push(t);
            for &c in &consumers[t.index()] {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    queue.push(c);
                }
            }
        }
        if topo_order.len() != n {
            return Err(WorkloadError::Cyclic);
        }
        Ok(Workload {
            period,
            seed,
            tasks,
            consumers,
            topo_order,
        })
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if the workload has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Look up a task.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn task(&self, id: TaskId) -> &TaskSpec {
        &self.tasks[id.index()]
    }

    /// All tasks in id order.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// Tasks in a topological order (producers first).
    pub fn topo_order(&self) -> &[TaskId] {
        &self.topo_order
    }

    /// Consumers of a task's output.
    pub fn consumers_of(&self, id: TaskId) -> &[TaskId] {
        &self.consumers[id.index()]
    }

    /// All source tasks (the generator tests count them).
    #[cfg(test)]
    pub(crate) fn sources(&self) -> impl Iterator<Item = &TaskSpec> {
        self.tasks
            .iter()
            .filter(|t| matches!(t.kind, TaskKind::Source { .. }))
    }

    /// All sink tasks.
    pub fn sinks(&self) -> impl Iterator<Item = &TaskSpec> {
        self.tasks
            .iter()
            .filter(|t| matches!(t.kind, TaskKind::Sink { .. }))
    }

    /// Total single-copy utilisation: sum of WCETs over the period.
    /// (A value of 2.0 needs at least two nominal nodes, before replication.)
    pub fn utilization(&self) -> f64 {
        let busy: u64 = self.tasks.iter().map(|t| t.wcet.0).sum();
        busy as f64 / self.period.0 as f64
    }

    /// Tasks at a given criticality level.
    pub fn tasks_at(&self, c: Criticality) -> impl Iterator<Item = &TaskSpec> {
        self.tasks.iter().filter(move |t| t.criticality == c)
    }
}

impl WorkloadView for Workload {
    fn inputs_of_task(&self, task: TaskId) -> Option<Vec<TaskId>> {
        self.tasks.get(task.index()).map(|t| t.inputs.clone())
    }

    fn task_is_source(&self, task: TaskId) -> bool {
        self.tasks
            .get(task.index())
            .is_some_and(|t| matches!(t.kind, TaskKind::Source { .. }))
    }

    fn workload_seed(&self) -> u64 {
        self.seed
    }
}

/// Builder for hand-assembled workloads (used by generators and tests).
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    period: Duration,
    seed: u64,
    tasks: Vec<TaskSpec>,
}

impl WorkloadBuilder {
    /// Start a builder with the system period and sensor seed.
    pub fn new(period: Duration, seed: u64) -> Self {
        WorkloadBuilder {
            period,
            seed,
            tasks: Vec::new(),
        }
    }

    /// Add a source task pinned to `node`.
    pub fn source(
        &mut self,
        name: &str,
        node: NodeId,
        wcet: Duration,
        crit: Criticality,
        deadline: Duration,
    ) -> TaskId {
        self.push(
            name,
            TaskKind::Source { pinned: node },
            vec![],
            wcet,
            crit,
            deadline,
            0,
        )
    }

    /// Add a compute task.
    pub fn compute(
        &mut self,
        name: &str,
        inputs: &[TaskId],
        wcet: Duration,
        crit: Criticality,
        deadline: Duration,
        state_bytes: u32,
    ) -> TaskId {
        self.push(
            name,
            TaskKind::Compute,
            inputs.to_vec(),
            wcet,
            crit,
            deadline,
            state_bytes,
        )
    }

    /// Add a sink task pinned to `node`.
    pub fn sink(
        &mut self,
        name: &str,
        node: NodeId,
        inputs: &[TaskId],
        wcet: Duration,
        crit: Criticality,
        deadline: Duration,
    ) -> TaskId {
        self.push(
            name,
            TaskKind::Sink { pinned: node },
            inputs.to_vec(),
            wcet,
            crit,
            deadline,
            0,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        name: &str,
        kind: TaskKind,
        inputs: Vec<TaskId>,
        wcet: Duration,
        crit: Criticality,
        deadline: Duration,
        state_bytes: u32,
    ) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(TaskSpec {
            id,
            name: name.to_string(),
            kind,
            inputs,
            wcet,
            criticality: crit,
            deadline,
            state_bytes,
        });
        id
    }

    /// Validate and build.
    pub fn build(self) -> Result<Workload, WorkloadError> {
        Workload::new(self.period, self.seed, self.tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_model::Time;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    fn tiny() -> Workload {
        let mut b = WorkloadBuilder::new(ms(10), 1);
        let s = b.source(
            "sensor",
            NodeId(0),
            Duration(200),
            Criticality::Safety,
            ms(10),
        );
        let c = b.compute("ctl", &[s], Duration(500), Criticality::Safety, ms(10), 64);
        b.sink(
            "act",
            NodeId(1),
            &[c],
            Duration(100),
            Criticality::Safety,
            ms(8),
        );
        b.build().unwrap()
    }

    #[test]
    fn builds_and_queries() {
        let w = tiny();
        assert_eq!(w.len(), 3);
        assert_eq!(w.sources().count(), 1);
        assert_eq!(w.sinks().count(), 1);
        assert_eq!(w.consumers_of(TaskId(0)), &[TaskId(1)]);
        assert_eq!(w.topo_order(), &[TaskId(0), TaskId(1), TaskId(2)]);
        assert!((w.utilization() - 0.08).abs() < 1e-9);
        assert!(!w.is_empty());
    }

    #[test]
    fn workload_view_impl() {
        let w = tiny();
        assert!(w.task_is_source(TaskId(0)));
        assert!(!w.task_is_source(TaskId(1)));
        assert_eq!(w.inputs_of_task(TaskId(1)), Some(vec![TaskId(0)]));
        assert_eq!(w.inputs_of_task(TaskId(9)), None);
        assert_eq!(w.workload_seed(), 1);
    }

    #[test]
    fn rejects_cycles() {
        let t0 = TaskSpec {
            id: TaskId(0),
            name: "a".into(),
            kind: TaskKind::Compute,
            inputs: vec![TaskId(1)],
            wcet: Duration(10),
            criticality: Criticality::Low,
            deadline: ms(1),
            state_bytes: 0,
        };
        let t1 = TaskSpec {
            id: TaskId(1),
            name: "b".into(),
            kind: TaskKind::Compute,
            inputs: vec![TaskId(0)],
            wcet: Duration(10),
            criticality: Criticality::Low,
            deadline: ms(1),
            state_bytes: 0,
        };
        let t2 = TaskSpec {
            id: TaskId(2),
            name: "s".into(),
            kind: TaskKind::Sink { pinned: NodeId(0) },
            inputs: vec![TaskId(0)],
            wcet: Duration(10),
            criticality: Criticality::Low,
            deadline: ms(1),
            state_bytes: 0,
        };
        assert_eq!(
            Workload::new(ms(10), 0, vec![t0, t1, t2]).err(),
            Some(WorkloadError::Cyclic)
        );
    }

    #[test]
    fn rejects_malformed_graphs() {
        // Dead-end compute.
        let mut b = WorkloadBuilder::new(ms(10), 0);
        let s = b.source("s", NodeId(0), Duration(10), Criticality::Low, ms(10));
        let _dead = b.compute("dead", &[s], Duration(10), Criticality::Low, ms(10), 0);
        b.sink("k", NodeId(0), &[s], Duration(10), Criticality::Low, ms(10));
        assert!(matches!(b.build(), Err(WorkloadError::DeadEnd(_))));

        // No sinks.
        let mut b = WorkloadBuilder::new(ms(10), 0);
        let s = b.source("s", NodeId(0), Duration(10), Criticality::Low, ms(10));
        let _c = b.compute("c", &[s], Duration(10), Criticality::Low, ms(10), 0);
        assert!(matches!(
            b.build(),
            Err(WorkloadError::NoSinks) | Err(WorkloadError::DeadEnd(_))
        ));

        // Deadline beyond period.
        let mut b = WorkloadBuilder::new(ms(10), 0);
        let s = b.source("s", NodeId(0), Duration(10), Criticality::Low, ms(11));
        b.sink("k", NodeId(0), &[s], Duration(10), Criticality::Low, ms(10));
        assert!(matches!(
            b.build(),
            Err(WorkloadError::DeadlineBeyondPeriod(_))
        ));

        // Zero wcet.
        let mut b = WorkloadBuilder::new(ms(10), 0);
        let s = b.source("s", NodeId(0), Duration(0), Criticality::Low, ms(10));
        b.sink("k", NodeId(0), &[s], Duration(10), Criticality::Low, ms(10));
        assert!(matches!(b.build(), Err(WorkloadError::ZeroWcet(_))));

        // Duplicate input.
        let mut b = WorkloadBuilder::new(ms(10), 0);
        let s = b.source("s", NodeId(0), Duration(5), Criticality::Low, ms(10));
        b.sink(
            "k",
            NodeId(0),
            &[s, s],
            Duration(10),
            Criticality::Low,
            ms(10),
        );
        assert!(matches!(
            b.build(),
            Err(WorkloadError::DuplicateInput(_, _))
        ));

        // Unknown input.
        let bad = vec![TaskSpec {
            id: TaskId(0),
            name: "k".into(),
            kind: TaskKind::Sink { pinned: NodeId(0) },
            inputs: vec![TaskId(7)],
            wcet: Duration(10),
            criticality: Criticality::Low,
            deadline: ms(1),
            state_bytes: 0,
        }];
        assert!(matches!(
            Workload::new(ms(10), 0, bad),
            Err(WorkloadError::UnknownInput(_, _))
        ));

        // Non-dense ids.
        let bad = vec![TaskSpec {
            id: TaskId(3),
            name: "k".into(),
            kind: TaskKind::Sink { pinned: NodeId(0) },
            inputs: vec![],
            wcet: Duration(10),
            criticality: Criticality::Low,
            deadline: ms(1),
            state_bytes: 0,
        }];
        assert!(matches!(
            Workload::new(ms(10), 0, bad),
            Err(WorkloadError::NonDenseIds)
        ));
    }

    #[test]
    fn value_semantics_round_trip() {
        // Serialization proper is stubbed offline (see vendor/README.md);
        // evidence verification relies on equal construction inputs giving
        // structurally equal workloads on every node.
        let w = tiny();
        assert_eq!(w, tiny());
        assert_eq!(w, w.clone());
    }

    #[test]
    fn period_time_helpers_integrate() {
        let w = tiny();
        assert_eq!(Time(25_000).period_index(w.period), 2);
    }
}
