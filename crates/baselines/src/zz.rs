//! ZZ-style reactive replication (Wood et al., EuroSys'11).
//!
//! "ZZ reduces the normal-case overhead of BFT by running only f+1
//! replicas by default, and by changing to agreement only if these
//! replicas disagree" (Section 5 of the paper). Here: each task has
//! 2f+1 placed lanes, of which only the first f+1 execute by default.
//! Any consumer that sees its input lanes *disagree* (or cannot assemble
//! an f+1 matching quorum) broadcasts `Wake` for that input; dormant
//! lanes boot after a configurable delay and the 2f+1 votes mask the
//! fault from then on. Wakes cascade up the dataflow so dormant lanes
//! have inputs to consume.

use btr_model::Plan;
use btr_model::{
    inputs_digest, sensor_value, task_value, ATask, Envelope, NodeId, Payload, PeriodIdx,
    ReplicaIdx, TaskId, Time, Value,
};
use btr_runtime::timers::{self, Timer};
use btr_runtime::Attack;
use btr_sim::{NodeBehavior, NodeCtx, TimerId};
use btr_workload::{TaskKind, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Configuration for [`ZzNode`].
#[derive(Debug, Clone, Copy)]
pub struct ZzConfig {
    /// Lanes active from the start (f+1).
    pub active: u8,
    /// Total placed lanes (2f+1).
    pub total: u8,
    /// Periods a woken lane needs before it produces (boot/state-fetch).
    pub wake_boot_periods: u64,
}

/// A node running the ZZ baseline.
pub struct ZzNode {
    id: NodeId,
    workload: Arc<Workload>,
    plan: Arc<Plan>,
    cfg: ZzConfig,
    attack: Option<Attack>,
    inputs: BTreeMap<(PeriodIdx, TaskId, ReplicaIdx), Value>,
    pending: BTreeMap<(PeriodIdx, u16), (TaskId, ReplicaIdx, Value, bool)>,
    /// Task -> period from which its dormant lanes run.
    woken: BTreeMap<TaskId, PeriodIdx>,
    /// Wakes already broadcast (dedup).
    wake_sent: BTreeSet<TaskId>,
}

impl ZzNode {
    /// Create a ZZ baseline node.
    pub fn new(
        id: NodeId,
        workload: Arc<Workload>,
        plan: Arc<Plan>,
        cfg: ZzConfig,
        attack: Option<Attack>,
    ) -> ZzNode {
        ZzNode {
            id,
            workload,
            plan,
            cfg,
            attack,
            inputs: BTreeMap::new(),
            pending: BTreeMap::new(),
            woken: BTreeMap::new(),
            wake_sent: BTreeSet::new(),
        }
    }

    fn lane_active(&self, t: TaskId, r: ReplicaIdx, p: PeriodIdx) -> bool {
        if r < self.cfg.active {
            return true;
        }
        self.woken.get(&t).is_some_and(|&from| p >= from)
    }

    /// Vote over arrived lanes; `Err(true)` signals disagreement that
    /// warrants waking dormant lanes.
    fn vote(&self, p: PeriodIdx, u: TaskId) -> Result<Value, bool> {
        let lanes = self.plan.replicas_of(u).len().min(self.cfg.total as usize) as u8;
        let mut counts: BTreeMap<Value, usize> = BTreeMap::new();
        let mut arrived = 0usize;
        for lane in 0..lanes {
            if let Some(&v) = self.inputs.get(&(p, u, lane)) {
                *counts.entry(v).or_insert(0) += 1;
                arrived += 1;
            }
        }
        if arrived == 0 {
            return Err(false);
        }
        let quorum = self.cfg.active as usize; // f+1 matching = safe.
        if let Some((&v, _)) = counts.iter().find(|&(_, &c)| c >= quorum) {
            return Ok(v);
        }
        // Lanes disagree (or not enough agreement): wake-worthy.
        Err(true)
    }

    fn wake(&mut self, u: TaskId, ctx: &mut NodeCtx<'_>) {
        if !self.wake_sent.insert(u) {
            return;
        }
        // Wake the dormant lane hosts of `u`, and cascade to its inputs
        // so the dormant lanes have data to consume.
        let p = ctx.now().period_index(self.workload.period);
        for (r, node) in self.plan.replicas_of(u) {
            if r >= self.cfg.active {
                ctx.send(node, Payload::Wake { task: u, period: p });
            }
        }
        let inputs = self.workload.task(u).inputs.clone();
        for i in inputs {
            self.wake(i, ctx);
        }
    }

    fn targets(&self, t: TaskId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for &c in self.workload.consumers_of(t) {
            for (_, node) in self.plan.replicas_of(c) {
                out.push(node);
            }
        }
        out.sort_unstable();
        out.dedup();
        out.retain(|&n| n != self.id);
        out
    }

    fn handle_slot_start(&mut self, idx: u16, p: PeriodIdx, ctx: &mut NodeCtx<'_>) {
        let entries = self
            .plan
            .schedules
            .get(&self.id)
            .map(|s| s.entries.clone())
            .unwrap_or_default();
        let Some(entry) = entries.get(idx as usize).copied() else {
            return;
        };
        let ATask::Work { task, replica } = entry.atask else {
            return;
        };
        if !self.lane_active(task, replica, p) {
            return; // Dormant.
        }
        let spec = self.workload.task(task);
        let is_sink = matches!(spec.kind, TaskKind::Sink { .. });
        let mut vals = Vec::with_capacity(spec.inputs.len());
        if !matches!(spec.kind, TaskKind::Source { .. }) {
            let input_list = spec.inputs.clone();
            for u in input_list {
                match self.vote(p, u) {
                    Ok(v) => vals.push((u, v)),
                    Err(wake_worthy) => {
                        if wake_worthy {
                            self.wake(u, ctx);
                        }
                        return; // Cannot decide this period.
                    }
                }
            }
        }
        let mut value = if matches!(spec.kind, TaskKind::Source { .. }) {
            sensor_value(task, p, self.workload.seed)
        } else {
            task_value(task, p, &vals)
        };
        if let Some(a) = &self.attack {
            if a.corrupts(ctx.now(), task) {
                value ^= 0xDEAD_BEEF;
            }
        }
        self.pending
            .insert((p, idx), (task, replica, value, is_sink));
        ctx.set_timer(
            entry.wcet,
            timers::encode(Timer::SlotEmit {
                version: 0,
                idx,
                period: p,
            }),
        );
    }

    fn handle_slot_emit(&mut self, idx: u16, p: PeriodIdx, ctx: &mut NodeCtx<'_>) {
        let Some((task, replica, value, is_sink)) = self.pending.remove(&(p, idx)) else {
            return;
        };
        if is_sink {
            ctx.actuate(task, p, value);
            return;
        }
        if let Some(Attack::Omission {
            from,
            drop_outputs: true,
            ..
        }) = &self.attack
        {
            if ctx.now() >= *from {
                return;
            }
        }
        self.inputs.entry((p, task, replica)).or_insert(value);
        for dst in self.targets(task) {
            let out = ctx.sign_output(task, replica, p, value, inputs_digest(&[]), self.id);
            ctx.send(
                dst,
                Payload::Output {
                    output: out,
                    witnesses: vec![],
                },
            );
        }
    }

    fn handle_boundary(&mut self, p: PeriodIdx, ctx: &mut NodeCtx<'_>) {
        let entries = self
            .plan
            .schedules
            .get(&self.id)
            .map(|s| s.entries.clone())
            .unwrap_or_default();
        for (idx, e) in entries.iter().enumerate() {
            ctx.set_timer_at(
                Time(p * self.workload.period.as_micros()) + e.start,
                timers::encode(Timer::SlotStart {
                    version: 0,
                    idx: idx as u16,
                    period: p,
                }),
            );
        }
        let keep = p.saturating_sub(3);
        self.inputs.retain(|&(ip, _, _), _| ip >= keep);
        ctx.set_timer_at(
            Time((p + 1) * self.workload.period.as_micros()),
            timers::encode(Timer::PeriodBoundary { period: p + 1 }),
        );
    }
}

impl NodeBehavior for ZzNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(
            btr_model::Duration::ZERO,
            timers::encode(Timer::PeriodBoundary { period: 0 }),
        );
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
        if ctx.verify_env(&env).is_err() {
            return;
        }
        match env.payload {
            Payload::Output { output, .. } if ctx.verify_output(&output).is_ok() => {
                self.inputs
                    .entry((output.period, output.task, output.replica))
                    .or_insert(output.value);
            }
            Payload::Wake { task, period } => {
                // Boot delay before the dormant lane produces.
                let from = period + self.cfg.wake_boot_periods;
                let e = self.woken.entry(task).or_insert(from);
                if *e > from {
                    *e = from;
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: TimerId) {
        match timers::decode(timer) {
            Some(Timer::PeriodBoundary { period }) => self.handle_boundary(period, ctx),
            Some(Timer::SlotStart { idx, period, .. }) => self.handle_slot_start(idx, period, ctx),
            Some(Timer::SlotEmit { idx, period, .. }) => self.handle_slot_emit(idx, period, ctx),
            _ => {}
        }
    }
}
