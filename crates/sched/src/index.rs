//! A dense numbering of one mode's augmented tasks.

use btr_model::{ATask, NodeId, TaskId};
use std::collections::BTreeMap;

/// [`AtaskIndex`] slot value of a task the placement does not hold.
pub const UNPLACED: u32 = u32::MAX;

/// A dense numbering of one mode's work and check tasks.
///
/// Lane `r` of task `t` is slot `t · stride + r`, where `stride` is the
/// mode's largest lane count; the checker of `t` is slot `tasks · stride
/// + t`. Ascending slots are ascending [`ATask`] order, so an array over
/// the index read front to back is a placement map's rows, already
/// sorted. The planner's placer and [`crate::synthesize`] keep their per-task
/// state in such arrays instead of maps keyed by `ATask`.
#[derive(Debug, Default)]
pub struct AtaskIndex {
    stride: usize,
    /// Lane count per workload task (`None`: shed).
    lanes: Vec<Option<u8>>,
}

impl AtaskIndex {
    /// Re-index for a mode: `tasks` workload tasks, `lanes` of them alive.
    pub fn set(&mut self, tasks: usize, lanes: &BTreeMap<TaskId, u8>) {
        self.lanes.clear();
        self.lanes.resize(tasks, None);
        self.stride = 1;
        for (&task, &n) in lanes {
            if let Some(slot) = self.lanes.get_mut(task.index()) {
                *slot = Some(n);
                self.stride = self.stride.max(n as usize);
            }
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.lanes.len() * (self.stride + 1)
    }

    /// The lane count of `task`; `None` if it is shed.
    #[inline]
    pub fn lanes(&self, task: TaskId) -> Option<u8> {
        self.lanes[task.index()]
    }

    /// Slot of `ATask::Work { task, replica }`, `replica` below the
    /// mode's largest lane count.
    #[inline]
    pub fn work(&self, task: TaskId, replica: u8) -> usize {
        debug_assert!((replica as usize) < self.stride);
        task.index() * self.stride + replica as usize
    }

    /// Slot of `ATask::Check { task }`.
    #[inline]
    pub fn check(&self, task: TaskId) -> usize {
        self.lanes.len() * self.stride + task.index()
    }

    /// The work and check task at each slot, ascending: the inverse of
    /// [`AtaskIndex::work`] and [`AtaskIndex::check`].
    pub fn atasks(&self) -> impl Iterator<Item = ATask> + '_ {
        let tasks = self.lanes.len() as u32;
        let work = (0..tasks).flat_map(move |t| {
            (0..self.stride as u8).map(move |replica| ATask::Work {
                task: TaskId(t),
                replica,
            })
        });
        work.chain((0..tasks).map(|t| ATask::Check { task: TaskId(t) }))
    }

    /// Read a placement's work and check rows into `node_of`, one node
    /// id per slot and [`UNPLACED`] where the map has none. Rows outside
    /// the index (a lane past the stride, an unknown task) are skipped:
    /// no slot stands for them.
    pub fn read_placement(&self, placement: &BTreeMap<ATask, NodeId>, node_of: &mut Vec<u32>) {
        node_of.clear();
        node_of.resize(self.slots(), UNPLACED);
        let tasks = self.lanes.len();
        for (&atask, &node) in placement {
            match atask {
                ATask::Work { task, replica } => {
                    if task.index() < tasks && (replica as usize) < self.stride {
                        node_of[self.work(task, replica)] = node.0;
                    }
                }
                ATask::Check { task } => {
                    if task.index() < tasks {
                        node_of[self.check(task)] = node.0;
                    }
                }
                ATask::Verify { .. } => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_ascend_in_atask_order_and_round_trip() {
        let lanes = BTreeMap::from([(TaskId(0), 3), (TaskId(2), 1), (TaskId(9), 7)]);
        let mut index = AtaskIndex::default();
        index.set(4, &lanes); // Task 9 is not the workload's: ignored.
        assert_eq!(index.lanes(TaskId(0)), Some(3));
        assert_eq!(index.lanes(TaskId(1)), None);
        assert_eq!(index.slots(), 4 * (3 + 1));
        let atasks: Vec<ATask> = index.atasks().collect();
        assert!(atasks.is_sorted());
        assert_eq!(atasks.len(), index.slots());
        for (slot, atask) in atasks.into_iter().enumerate() {
            match atask {
                ATask::Work { task, replica } => assert_eq!(index.work(task, replica), slot),
                ATask::Check { task } => assert_eq!(index.check(task), slot),
                ATask::Verify { .. } => unreachable!("reserves have no slot"),
            }
        }

        // A placement's rows land on their slots; rows without one (a
        // fourth lane, a foreign task, the reserves) are skipped.
        let work = |task, replica| ATask::Work {
            task: TaskId(task),
            replica,
        };
        let placement = BTreeMap::from([
            (work(0, 2), NodeId(5)),
            (work(0, 3), NodeId(6)),
            (work(9, 0), NodeId(7)),
            (ATask::Check { task: TaskId(2) }, NodeId(8)),
            (ATask::Verify { node: NodeId(1) }, NodeId(1)),
        ]);
        let mut node_of = vec![77; 3];
        index.read_placement(&placement, &mut node_of);
        let placed: Vec<(usize, u32)> = node_of
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, node)| node != UNPLACED)
            .collect();
        assert_eq!(
            placed,
            [(index.work(TaskId(0), 2), 5), (index.check(TaskId(2)), 8)]
        );
    }
}
