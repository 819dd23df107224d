//! The one static-plan period engine every baseline scheme runs.
//!
//! A [`BaselineNode`] runs its slice of a single static plan, period
//! after period: the boundary arms the slot starts from the node's
//! schedule entries, a slot start computes a source or task value from
//! its inputs, and a slot emit actuates, or signs the output and sends it
//! to every lane host of every consumer. The [`Baseline`] decides the
//! three places where the schemes differ:
//!
//! * **which lanes run** — ZZ's dormant lanes stay off until woken, and a
//!   self-stabilising node is silent while it reboots;
//! * **how an input is chosen from its lanes** — the plurality (self-stab
//!   has one lane), except that ZZ needs an f+1 quorum and, short of one,
//!   wakes the input's dormant lanes;
//! * **the scheme's own message** — PBFT-lite's `Prepare` echo, ZZ's
//!   `Wake`, self-stabilisation's `Audit`.
//!
//! The injected attack manifests through the same [`Attack`] reads the
//! BTR runtime makes, so every scheme honours every fault kind.

use crate::Baseline;
use btr_core::oracle::reference_value;
use btr_model::message::PbftPhase;
use btr_model::{
    inputs_digest, sensor_value, task_value, ATask, Duration, Envelope, NodeId, Payload, PeriodIdx,
    Plan, ReplicaIdx, ScheduleEntry, TaskId, Time, Value,
};
use btr_runtime::timers::{self, Timer};
use btr_runtime::Attack;
use btr_sim::{NodeBehavior, NodeCtx, TimerId};
use btr_workload::{TaskKind, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Periods a woken ZZ lane needs before it produces (boot, state fetch).
const WAKE_BOOT_PERIODS: PeriodIdx = 2;
/// Periods a self-stabilising node stays silent while it reboots.
const REBOOT_PERIODS: PeriodIdx = 3;

/// A node running one baseline scheme on a static plan.
pub(crate) struct BaselineNode {
    id: NodeId,
    scheme: Baseline,
    f: u8,
    workload: Arc<Workload>,
    plan: Arc<Plan>,
    /// This node's schedule entries, read once.
    entries: Vec<ScheduleEntry>,
    /// Cleared when a self-stabilising node reboots: the fault is benign.
    attack: Option<Attack>,
    /// Received lane values: (period, task, lane) → value.
    inputs: BTreeMap<(PeriodIdx, TaskId, ReplicaIdx), Value>,
    /// Computed values awaiting emission: (period, slot) → (task, lane,
    /// value, is a sink).
    pending: BTreeMap<(PeriodIdx, u16), (TaskId, ReplicaIdx, Value, bool)>,
    equiv_flip: u64,
    /// ZZ: task → period from which its dormant lanes run.
    woken: BTreeMap<TaskId, PeriodIdx>,
    /// ZZ: tasks this node has already sent a wake for.
    wake_sent: BTreeSet<TaskId>,
    /// Self-stab: rebooting until this period (exclusive).
    rebooting_until: Option<PeriodIdx>,
    /// Self-stab: length of the auditor rotation.
    n_nodes: u64,
}

impl BaselineNode {
    /// A node running `scheme`, replicated for fault budget `f`.
    pub(crate) fn new(
        id: NodeId,
        scheme: Baseline,
        f: u8,
        workload: Arc<Workload>,
        plan: Arc<Plan>,
        attack: Option<Attack>,
    ) -> BaselineNode {
        let entries = plan
            .schedules
            .get(&id)
            .map(|s| s.entries.clone())
            .unwrap_or_default();
        let n_nodes = plan
            .placement
            .values()
            .map(|n| n.index() as u64 + 1)
            .max()
            .unwrap_or(1);
        BaselineNode {
            id,
            scheme,
            f,
            workload,
            plan,
            entries,
            attack,
            inputs: BTreeMap::new(),
            pending: BTreeMap::new(),
            equiv_flip: 0,
            woken: BTreeMap::new(),
            wake_sent: BTreeSet::new(),
            rebooting_until: None,
            n_nodes,
        }
    }

    fn rebooting(&self, p: PeriodIdx) -> bool {
        self.rebooting_until.is_some_and(|until| p < until)
    }

    /// Whether lane `replica` of `task` runs in period `p`.
    fn runs(&self, task: TaskId, replica: ReplicaIdx, p: PeriodIdx) -> bool {
        match self.scheme {
            Baseline::Zz => {
                replica <= self.f || self.woken.get(&task).is_some_and(|&from| p >= from)
            }
            Baseline::SelfStab => !self.rebooting(p),
            Baseline::BftMask | Baseline::PbftLite => true,
        }
    }

    /// The value of input `u` in period `p`, chosen from its arrived
    /// lanes: the plurality, ties to the smaller value. ZZ also needs f+1
    /// lanes to agree, and wakes `u`'s dormant lanes when they do not.
    fn choose(&mut self, p: PeriodIdx, u: TaskId, ctx: &mut NodeCtx<'_>) -> Option<Value> {
        let lanes = self.plan.replicas_of(u).len().max(1) as ReplicaIdx;
        let mut counts: BTreeMap<Value, usize> = BTreeMap::new();
        for lane in 0..lanes {
            if let Some(&v) = self.inputs.get(&(p, u, lane)) {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        let (v, c) = counts
            .into_iter()
            .max_by_key(|&(v, c)| (c, std::cmp::Reverse(v)))?;
        if self.scheme == Baseline::Zz && c <= self.f as usize {
            self.wake(u, ctx);
            return None;
        }
        Some(v)
    }

    /// ZZ: send `Wake` to the dormant lane hosts of `u`, once, and
    /// cascade up its inputs so the woken lanes have data to consume.
    fn wake(&mut self, u: TaskId, ctx: &mut NodeCtx<'_>) {
        if !self.wake_sent.insert(u) {
            return;
        }
        let period = ctx.now().period_index(self.workload.period);
        for (r, node) in self.plan.replicas_of(u) {
            if r > self.f {
                ctx.send(node, Payload::Wake { task: u, period });
            }
        }
        let workload = Arc::clone(&self.workload);
        for &i in &workload.task(u).inputs {
            self.wake(i, ctx);
        }
    }

    /// Self-stab: each period one node, in rotation, re-executes what it
    /// received in the previous period and tells each producer whose
    /// value diverges to reboot.
    fn audit(&self, p: PeriodIdx, ctx: &mut NodeCtx<'_>) {
        if p == 0 || u64::from(self.id.0) != p % self.n_nodes || self.rebooting(p) {
            return;
        }
        let prev = p - 1;
        for (&(_, t, _), &v) in self.inputs.iter().filter(|((ip, _, _), _)| *ip == prev) {
            if v == reference_value(&self.workload, t, prev) {
                continue;
            }
            if let Some(producer) = self.plan.node_of(ATask::Work {
                task: t,
                replica: 0,
            }) {
                let audit = Payload::Audit {
                    about: t,
                    period: prev,
                    value: v,
                };
                ctx.send(producer, audit);
            }
        }
    }

    /// Every lane host of every consumer of `t`, this node excepted.
    fn targets(&self, t: TaskId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .workload
            .consumers_of(t)
            .iter()
            .flat_map(|&c| self.plan.replicas_of(c))
            .map(|(_, node)| node)
            .collect();
        out.sort_unstable();
        out.dedup();
        out.retain(|&n| n != self.id);
        out
    }

    fn boundary(&mut self, p: PeriodIdx, ctx: &mut NodeCtx<'_>) {
        if self.scheme == Baseline::SelfStab {
            self.audit(p, ctx);
        }
        let start = Time(p * self.workload.period.as_micros());
        for (idx, e) in self.entries.iter().enumerate() {
            let slot = Timer::SlotStart {
                version: 0,
                idx: idx as u16,
                period: p,
            };
            ctx.set_timer_at(start + e.start, timers::encode(slot));
        }
        let keep = p.saturating_sub(3);
        self.inputs.retain(|&(ip, _, _), _| ip >= keep);
        ctx.set_timer_at(
            start + self.workload.period,
            timers::encode(Timer::PeriodBoundary { period: p + 1 }),
        );
    }

    fn slot_start(&mut self, idx: u16, p: PeriodIdx, ctx: &mut NodeCtx<'_>) {
        let Some(&ScheduleEntry {
            atask: ATask::Work { task, replica },
            wcet,
            ..
        }) = self.entries.get(idx as usize)
        else {
            return;
        };
        if !self.runs(task, replica, p) {
            return;
        }
        let workload = Arc::clone(&self.workload);
        let spec = workload.task(task);
        let mut value = if matches!(spec.kind, TaskKind::Source { .. }) {
            sensor_value(task, p, workload.seed)
        } else {
            let mut vals = Vec::with_capacity(spec.inputs.len());
            for &u in &spec.inputs {
                let Some(v) = self.choose(p, u, ctx) else {
                    return; // No decidable input this period.
                };
                vals.push((u, v));
            }
            task_value(task, p, &vals)
        };
        let now = ctx.now();
        if self.attack.as_ref().is_some_and(|a| a.corrupts(now, task)) {
            value ^= 0xDEAD_BEEF;
        }
        let is_sink = matches!(spec.kind, TaskKind::Sink { .. });
        self.pending
            .insert((p, idx), (task, replica, value, is_sink));
        let delay = self
            .attack
            .as_ref()
            .map_or(Duration::ZERO, |a| a.emit_delay(now));
        let emit = Timer::SlotEmit {
            version: 0,
            idx,
            period: p,
        };
        ctx.set_timer(wcet + delay, timers::encode(emit));
    }

    fn slot_emit(&mut self, idx: u16, p: PeriodIdx, ctx: &mut NodeCtx<'_>) {
        let Some((task, replica, value, is_sink)) = self.pending.remove(&(p, idx)) else {
            return;
        };
        if !self.runs(task, replica, p) {
            return;
        }
        if is_sink {
            ctx.actuate(task, p, value);
            return;
        }
        let now = ctx.now();
        if self.attack.as_ref().is_some_and(|a| a.drops_outputs(now)) {
            return;
        }
        if self.scheme == Baseline::PbftLite {
            // The echo round prices agreement; nothing reads the echoes.
            for (_, node) in self.plan.replicas_of(task) {
                if node != self.id {
                    let echo = Payload::Pbft {
                        task,
                        period: p,
                        value,
                        phase: PbftPhase::Prepare,
                        view: 0,
                    };
                    ctx.send(node, echo);
                }
            }
        }
        // Local consumption.
        self.inputs.entry((p, task, replica)).or_insert(value);
        let equivocate = self.attack.as_ref().is_some_and(|a| a.equivocates(now));
        let targets = self.targets(task);
        for (i, &dst) in targets.iter().enumerate() {
            let mut v = value;
            if equivocate && i >= targets.len() / 2 {
                self.equiv_flip += 1;
                v ^= 0xE0 + self.equiv_flip;
            }
            let output = ctx.sign_output(task, replica, p, v, inputs_digest(&[]), self.id);
            let witnesses = vec![];
            ctx.send(dst, Payload::Output { output, witnesses });
        }
    }
}

impl NodeBehavior for BaselineNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(
            Duration::ZERO,
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
                let from = period + WAKE_BOOT_PERIODS;
                let at = self.woken.entry(task).or_insert(from);
                *at = (*at).min(from);
            }
            // A faulty node accepts the audit and reboots, which clears a
            // benign fault.
            Payload::Audit { .. } if self.attack.is_some() => {
                self.attack = None;
                let p = ctx.now().period_index(self.workload.period);
                self.rebooting_until = Some(p + REBOOT_PERIODS);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: TimerId) {
        match timers::decode(timer) {
            Some(Timer::PeriodBoundary { period }) => self.boundary(period, ctx),
            Some(Timer::SlotStart { idx, period, .. }) => self.slot_start(idx, period, ctx),
            Some(Timer::SlotEmit { idx, period, .. }) => self.slot_emit(idx, period, ctx),
            _ => {}
        }
    }
}
