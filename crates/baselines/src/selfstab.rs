//! Self-stabilisation baseline: the R → ∞ strawman.
//!
//! Section 3.1: "without a hard upper bound on R, BTR closely resembles
//! self-stabilization, where the system is simply required to return to
//! correct operation eventually." And Section 5 notes the catch: "much
//! of the early work assumed that faults are benign and cannot handle
//! malicious nodes."
//!
//! The model here: one copy of every task; each period a round-robin
//! auditor checks the outputs it received in the previous period against
//! the invariant (re-execution) and tells a divergent producer to reboot.
//! A *benign* (repairable) fault clears on reboot after a delay; a truly
//! Byzantine node simply ignores the audit — recovery never happens,
//! which is exactly the gap BTR fills.

use btr_core::oracle::reference_value;
use btr_model::Plan;
use btr_model::{
    inputs_digest, sensor_value, task_value, ATask, Envelope, NodeId, Payload, PeriodIdx, TaskId,
    Time, Value,
};
use btr_runtime::timers::{self, Timer};
use btr_runtime::Attack;
use btr_sim::{NodeBehavior, NodeCtx, TimerId};
use btr_workload::{TaskKind, Workload};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration for [`SelfStabNode`].
#[derive(Debug, Clone, Copy)]
pub struct SelfStabConfig {
    /// Periods a reboot takes (node is silent meanwhile).
    pub reboot_periods: u64,
    /// True for benign faults that clear on reboot; false models a
    /// Byzantine node that ignores audits (never recovers).
    pub repairable: bool,
}

/// A node running the self-stabilisation baseline.
pub struct SelfStabNode {
    id: NodeId,
    workload: Arc<Workload>,
    plan: Arc<Plan>,
    cfg: SelfStabConfig,
    attack: Option<Attack>,
    inputs: BTreeMap<(PeriodIdx, TaskId), Value>,
    pending: BTreeMap<(PeriodIdx, u16), (TaskId, Value, bool)>,
    /// Rebooting until this period (exclusive).
    rebooting_until: Option<PeriodIdx>,
    n_nodes: usize,
}

impl SelfStabNode {
    /// Create a self-stabilisation baseline node.
    pub fn new(
        id: NodeId,
        workload: Arc<Workload>,
        plan: Arc<Plan>,
        cfg: SelfStabConfig,
        attack: Option<Attack>,
    ) -> SelfStabNode {
        let n_nodes = plan
            .placement
            .values()
            .map(|n| n.index() + 1)
            .max()
            .unwrap_or(1);
        SelfStabNode {
            id,
            workload,
            plan,
            cfg,
            attack,
            inputs: BTreeMap::new(),
            pending: BTreeMap::new(),
            rebooting_until: None,
            n_nodes,
        }
    }

    fn is_rebooting(&self, p: PeriodIdx) -> bool {
        self.rebooting_until.is_some_and(|until| p < until)
    }

    fn handle_slot_start(&mut self, idx: u16, p: PeriodIdx, ctx: &mut NodeCtx<'_>) {
        if self.is_rebooting(p) {
            return;
        }
        let entries = self
            .plan
            .schedules
            .get(&self.id)
            .map(|s| s.entries.clone())
            .unwrap_or_default();
        let Some(entry) = entries.get(idx as usize).copied() else {
            return;
        };
        let ATask::Work { task, .. } = entry.atask else {
            return;
        };
        let spec = self.workload.task(task);
        let is_sink = matches!(spec.kind, TaskKind::Sink { .. });
        let mut vals = Vec::with_capacity(spec.inputs.len());
        if !matches!(spec.kind, TaskKind::Source { .. }) {
            for &u in &spec.inputs {
                match self.inputs.get(&(p, u)) {
                    Some(&v) => vals.push((u, v)),
                    None => return,
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
        self.pending.insert((p, idx), (task, value, is_sink));
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
        let Some((task, value, is_sink)) = self.pending.remove(&(p, idx)) else {
            return;
        };
        if self.is_rebooting(p) {
            return;
        }
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
        self.inputs.entry((p, task)).or_insert(value);
        let mut targets: Vec<NodeId> = self
            .workload
            .consumers_of(task)
            .iter()
            .filter_map(|&c| {
                self.plan.node_of(ATask::Work {
                    task: c,
                    replica: 0,
                })
            })
            .collect();
        targets.sort_unstable();
        targets.dedup();
        targets.retain(|&n| n != self.id);
        for dst in targets {
            let out = ctx.sign_output(task, 0, p, value, inputs_digest(&[]), self.id);
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
        // Round-robin audit: one auditor per period checks last period's
        // received values against the invariant.
        if p > 0 && self.id.0 as u64 == p % self.n_nodes as u64 && !self.is_rebooting(p) {
            let prev = p - 1;
            let snapshot: Vec<(TaskId, Value)> = self
                .inputs
                .iter()
                .filter(|((ip, _), _)| *ip == prev)
                .map(|(&(_, t), &v)| (t, v))
                .collect();
            for (t, v) in snapshot {
                if v != reference_value(&self.workload, t, prev) {
                    // Tell the producer to reboot.
                    if let Some(producer) = self.plan.node_of(ATask::Work {
                        task: t,
                        replica: 0,
                    }) {
                        ctx.send(
                            producer,
                            Payload::Audit {
                                about: t,
                                period: prev,
                                value: v,
                            },
                        );
                    }
                }
            }
        }
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
        self.inputs.retain(|&(ip, _), _| ip >= keep);
        ctx.set_timer_at(
            Time((p + 1) * self.workload.period.as_micros()),
            timers::encode(Timer::PeriodBoundary { period: p + 1 }),
        );
    }
}

impl NodeBehavior for SelfStabNode {
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
            Payload::Output { output, .. }
                if ctx.verify_output(&output).is_ok() => {
                    self.inputs
                        .entry((output.period, output.task))
                        .or_insert(output.value);
                }
            Payload::Audit { .. }
                // A benign fault accepts the audit and reboots (clearing
                // its corruption); a Byzantine node ignores it.
                if self.cfg.repairable && self.attack.is_some() => {
                    self.attack = None;
                    let p = ctx.now().period_index(self.workload.period);
                    self.rebooting_until = Some(p + self.cfg.reboot_periods);
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
