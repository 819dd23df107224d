//! BFT masking baselines: 2f+1 voting and 3f+1 "PBFT-lite" agreement.
//!
//! Every replica of every task votes over *all* replica lanes of each
//! input (majority value wins), so up to f corrupted lanes are masked at
//! every stage and sinks never emit a wrong value. With `agreement` on,
//! each replica group additionally runs an all-to-all echo round per
//! output — this prices the *message and bandwidth* cost of
//! agreement-based SMR (the paper's 3f+1 comparison point). The echo
//! round is accounted for but does not gate release: with at most f
//! faults, the 2f+1 consumer-side vote masks exactly as plain voting
//! does, so gating would change timing feasibility without changing
//! outputs. See DESIGN.md ("PBFT-lite").

use btr_model::message::PbftPhase;
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

/// Configuration for [`BftNode`].
#[derive(Debug, Clone, Copy)]
pub struct BftConfig {
    /// Replica lanes per task (2f+1 for masking, 3f+1 for agreement).
    pub lanes: u8,
    /// Run the echo round before releasing outputs.
    pub agreement: bool,
    /// Fault budget (quorum = 2f+1).
    pub f: u8,
}

/// A node running the BFT masking baseline.
pub struct BftNode {
    id: NodeId,
    workload: Arc<Workload>,
    plan: Arc<Plan>,
    cfg: BftConfig,
    attack: Option<Attack>,
    /// Received lane values: (period, task, lane) -> value.
    inputs: BTreeMap<(PeriodIdx, TaskId, ReplicaIdx), Value>,
    /// Computed values awaiting emission.
    pending: BTreeMap<(PeriodIdx, u16), (TaskId, ReplicaIdx, Value, bool)>,
    /// Agreement state: (period, task) -> value -> echoing replicas.
    prepares: BTreeMap<(PeriodIdx, TaskId), BTreeMap<Value, BTreeSet<NodeId>>>,
    /// Outputs already released (agreement dedup).
    released: BTreeSet<(PeriodIdx, TaskId, ReplicaIdx)>,
    equiv_flip: u64,
}

impl BftNode {
    /// Create a BFT baseline node.
    pub fn new(
        id: NodeId,
        workload: Arc<Workload>,
        plan: Arc<Plan>,
        cfg: BftConfig,
        attack: Option<Attack>,
    ) -> BftNode {
        BftNode {
            id,
            workload,
            plan,
            cfg,
            attack,
            inputs: BTreeMap::new(),
            pending: BTreeMap::new(),
            prepares: BTreeMap::new(),
            released: BTreeSet::new(),
            equiv_flip: 0,
        }
    }

    fn lanes_of(&self, t: TaskId) -> u8 {
        self.plan.replicas_of(t).len().max(1).min(u8::MAX as usize) as u8
    }

    fn my_entries(&self) -> Vec<btr_model::ScheduleEntry> {
        self.plan
            .schedules
            .get(&self.id)
            .map(|s| s.entries.clone())
            .unwrap_or_default()
    }

    /// Majority vote over the arrived lane values of one input.
    fn vote(&self, p: PeriodIdx, u: TaskId) -> Option<Value> {
        let lanes = self.lanes_of(u);
        let mut counts: BTreeMap<Value, usize> = BTreeMap::new();
        for lane in 0..lanes {
            if let Some(&v) = self.inputs.get(&(p, u, lane)) {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        // Plurality; ties break toward the smallest value (deterministic).
        counts
            .into_iter()
            .max_by_key(|&(v, c)| (c, std::cmp::Reverse(v)))
            .map(|(v, _)| v)
    }

    /// Destinations for a task output: every lane host of every consumer.
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

    fn release(
        &mut self,
        p: PeriodIdx,
        t: TaskId,
        r: ReplicaIdx,
        value: Value,
        ctx: &mut NodeCtx<'_>,
    ) {
        if !self.released.insert((p, t, r)) {
            return;
        }
        // Local consumption.
        self.inputs.entry((p, t, r)).or_insert(value);
        let equivocate =
            matches!(&self.attack, Some(Attack::Equivocate { from }) if ctx.now() >= *from);
        let targets = self.targets(t);
        for (i, dst) in targets.iter().enumerate() {
            let mut v = value;
            if equivocate && i >= targets.len() / 2 {
                self.equiv_flip += 1;
                v = value ^ (0xE0 + self.equiv_flip);
            }
            let out = ctx.sign_output(t, r, p, v, inputs_digest(&[]), self.id);
            ctx.send(
                *dst,
                Payload::Output {
                    output: out,
                    witnesses: vec![],
                },
            );
        }
    }

    fn handle_slot_start(&mut self, idx: u16, p: PeriodIdx, ctx: &mut NodeCtx<'_>) {
        let entries = self.my_entries();
        let Some(entry) = entries.get(idx as usize).copied() else {
            return;
        };
        let ATask::Work { task, replica } = entry.atask else {
            return;
        };
        let spec = self.workload.task(task);
        let is_sink = matches!(spec.kind, TaskKind::Sink { .. });
        let mut vals = Vec::with_capacity(spec.inputs.len());
        if matches!(spec.kind, TaskKind::Source { .. }) {
            // Sensor read.
        } else {
            for &u in &spec.inputs {
                match self.vote(p, u) {
                    Some(v) => vals.push((u, v)),
                    None => return, // Input missing entirely this period.
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
        let mut delay = entry.wcet;
        if let Some(Attack::Timing { from, delay: d }) = &self.attack {
            if ctx.now() >= *from {
                delay += *d;
            }
        }
        ctx.set_timer(
            delay,
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
        if self.cfg.agreement {
            // Echo round (cost accounting): broadcast my value to the
            // other replicas of the task.
            self.prepares
                .entry((p, task))
                .or_default()
                .entry(value)
                .or_default()
                .insert(self.id);
            for (r, node) in self.plan.replicas_of(task) {
                if node != self.id {
                    let _ = r;
                    ctx.send(
                        node,
                        Payload::Pbft {
                            task,
                            period: p,
                            value,
                            phase: PbftPhase::Prepare,
                            view: 0,
                        },
                    );
                }
            }
        }
        self.release(p, task, replica, value, ctx);
    }

    fn handle_boundary(&mut self, p: PeriodIdx, ctx: &mut NodeCtx<'_>) {
        for (idx, e) in self.my_entries().iter().enumerate() {
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
        self.prepares.retain(|&(ip, _), _| ip >= keep);
        self.released.retain(|&(ip, _, _)| ip >= keep);
        ctx.set_timer_at(
            Time((p + 1) * self.workload.period.as_micros()),
            timers::encode(Timer::PeriodBoundary { period: p + 1 }),
        );
    }
}

impl NodeBehavior for BftNode {
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
            Payload::Pbft {
                task,
                period,
                value,
                phase: PbftPhase::Prepare,
                ..
            } => {
                self.prepares
                    .entry((period, task))
                    .or_default()
                    .entry(value)
                    .or_default()
                    .insert(env.src);
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
