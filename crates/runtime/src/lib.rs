//! The per-node BTR software stack.
//!
//! [`BtrNode`] is what a correct node runs: the static cyclic executor
//! for its slice of the active plan, the fault detector, the evidence
//! pool and disseminator, and the mode switcher. It implements the
//! simulator's `NodeBehavior`, so a system run is just: plan offline
//! (`btr-planner`), install a `BtrNode` per node, inject faults, observe
//! sink outputs.
//!
//! A compromised node runs the same stack with an [`Attack`] script
//! spliced in (Section 2.1's "complete control", minus other nodes' keys
//! and the hardware MAC).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
mod checker;
mod detector;
mod evidence;
#[cfg(test)]
mod flows;
mod modeswitch;
mod omission;
mod pool;
mod tables;
pub mod timers;
mod timing;
mod window;

pub use attack::Attack;
pub use tables::WorldPlans;

use btr_model::workload::TaskKind;
use btr_model::{
    sensor_value, task_value_and_digest, ATask, Duration, Envelope, EvidenceId, EvidenceRecord,
    NodeId, Payload, PeriodIdx, ReplicaIdx, SignedOutput, TaskId, Time, Value, EMPTY_INPUTS_DIGEST,
};
use btr_obs::Phase;
use btr_sim::{NodeBehavior, NodeCtx, TimerId};
use checker::OutputPool;
use detector::Detector;
use evidence::Disseminator;
use modeswitch::{ModeSwitcher, SwitchAction};
use pool::{AdmitOutcome, EvidencePool};
use std::collections::BTreeSet;
use std::sync::Arc;
use tables::PlanTables;
use timers::Timer;
use window::NODE_PERIODS;

/// A computed output awaiting its emit instant.
#[derive(Debug, Clone, PartialEq)]
struct Pending {
    /// The (period, slot index) its emit timer names.
    slot: (PeriodIdx, u16),
    output: SignedOutput,
    /// The inputs it is sent with; none for a sink, which sends nothing.
    witnesses: Vec<SignedOutput>,
    is_sink: bool,
}

/// Outputs awaiting their emit instants: the few slots of a period or
/// two in a short `Vec`, one entry per slot, which keeps its capacity.
#[derive(Debug, Default)]
struct PendingEmits(Vec<Pending>);

impl PendingEmits {
    /// Hold `pending` for its slot, in place of what the slot held.
    fn insert(&mut self, pending: Pending) {
        match self.0.iter_mut().find(|p| p.slot == pending.slot) {
            Some(held) => *held = pending,
            None => self.0.push(pending),
        }
    }

    /// Take what is held for `slot`.
    fn remove(&mut self, slot: (PeriodIdx, u16)) -> Option<Pending> {
        let i = self.0.iter().position(|p| p.slot == slot)?;
        Some(self.0.swap_remove(i))
    }

    /// Drop what is held for periods before `before`.
    fn gc(&mut self, before: PeriodIdx) {
        self.0.retain(|p| p.slot.0 >= before);
    }
}

/// True if `producer`'s failure to deliver `task` is already explained by
/// the known fault set: some lane of a transitive input of `task` is
/// hosted on a convicted node under the current plan, so the producer is
/// starved, not faulty. Declaring it anyway is how the false-attribution
/// cascade started (see EXPERIMENTS.md campaign findings) — blame stays
/// pinned on the nodes with direct evidence against them.
///
/// Free function so the end-of-period handler can call it while the
/// detector is mutably borrowed.
fn starvation_explained(tables: &PlanTables, faulty: &BTreeSet<NodeId>, task: TaskId) -> bool {
    let hosts = tables.upstream_hosts(task);
    hosts.iter().any(|h| faulty.contains(h))
}

/// Tolerated lateness beyond a lane's scheduled emit instant before an
/// arriving output is declared mistimed. Wide enough to absorb network
/// queueing; far below the delays a timing attack needs to corrupt
/// downstream schedules.
const TIMING_SLACK: Duration = Duration::from_millis(4);

/// Counters exposed for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Task outputs emitted.
    pub(crate) outputs_sent: u64,
    /// Task instances skipped because an input never arrived.
    pub(crate) outputs_missed: u64,
    /// Evidence records generated locally.
    pub(crate) evidence_generated: u64,
    /// Evidence records forwarded (endorsed).
    pub(crate) evidence_forwarded: u64,
    /// Evidence records rejected as bogus.
    pub evidence_rejected: u64,
    /// Heartbeats sent.
    pub(crate) heartbeats_sent: u64,
    /// Bytes of migrated task state received.
    pub(crate) state_bytes_in: u64,
    /// Evidence-pool near misses: suspects left one accuser short of
    /// conviction (snapshot of the detector's omission tracker).
    pub near_miss_accusations: u64,
    /// Path declarations withheld by the cascade gates — the detector's
    /// exoneration/explained-silence skips plus the recipient-side gate
    /// on missing inputs (blackout, already-convicted, explained).
    pub suppressed_declarations: u64,
}

/// The BTR node behaviour.
pub struct BtrNode {
    id: NodeId,
    /// The world's workload, strategy and plan tables.
    plans: Arc<WorldPlans>,
    /// The adversarial script of a compromised node (`None`: correct).
    attack: Option<Attack>,
    detector: Detector,
    pool: EvidencePool,
    dissem: Disseminator,
    switcher: ModeSwitcher,
    /// The active plan's tables, shared by every node of the world.
    tables: Arc<PlanTables>,
    /// Bumped on every plan install; stale slot timers are dropped.
    version: u8,
    /// Received input values by (task, lane, period), first wins: the
    /// detector's pool layout (a row per period), holding what this
    /// node's tasks consume and what they produced.
    inputs: OutputPool<NODE_PERIODS>,
    /// Computed outputs awaiting their emit instant.
    pending_emit: PendingEmits,
    /// Node count.
    n_nodes: usize,
    /// Every other node, in id order: who a heartbeat round and a
    /// locally raised evidence flood go to.
    peers: Vec<NodeId>,
    /// Reusable destination list for the multicasts that are not all of
    /// `peers` (a forwarded flood, a babble burst).
    targets: Vec<NodeId>,
    /// Exposed counters.
    stats: NodeStats,
    /// Alternation flip used by the equivocation attack.
    equiv_flip: u64,
}

impl BtrNode {
    /// Create a node runtime in the world whose workload, strategy and
    /// plan tables `plans` holds; `attack` makes it a compromised node
    /// running that script.
    pub fn new(
        id: NodeId,
        plans: Arc<WorldPlans>,
        n_nodes: usize,
        attack: Option<Attack>,
    ) -> BtrNode {
        let switcher = ModeSwitcher::new(id, &plans.strategy);
        let tables = plans.initial();
        let detector = Detector::new(
            id,
            Arc::clone(&plans.workload),
            Arc::clone(&tables),
            n_nodes,
        );
        BtrNode {
            id,
            plans,
            attack,
            detector,
            pool: EvidencePool::default(),
            dissem: Disseminator::default(),
            switcher,
            tables,
            version: 0,
            inputs: OutputPool::default(),
            pending_emit: PendingEmits::default(),
            n_nodes,
            peers: Disseminator::targets(id, n_nodes, None).collect(),
            targets: Vec::new(),
            stats: NodeStats::default(),
            equiv_flip: 0,
        }
    }

    /// Current counters. Detector-side tallies (near misses, gate
    /// suppressions) are folded in at read time so the hot path never
    /// touches them.
    pub fn stats(&self) -> NodeStats {
        let mut s = self.stats;
        s.near_miss_accusations = self.detector.near_miss_suspects() as u64;
        s.suppressed_declarations += self.detector.suppressed_declarations();
        s
    }

    /// The node's current plan.
    pub fn current_plan(&self) -> btr_model::PlanId {
        self.switcher.current_plan()
    }

    /// The node's local fault set.
    pub fn fault_set(&self) -> &btr_model::FaultSet {
        self.switcher.fault_set()
    }

    /// Completed mode switches.
    pub fn switch_count(&self) -> u64 {
        self.switcher.switch_count()
    }

    /// The world's plan handle this node reads its tables from.
    pub fn plans(&self) -> &Arc<WorldPlans> {
        &self.plans
    }

    /// When period `p` starts; `None` past the clock's range, where only
    /// a forged period lies.
    fn period_start(&self, p: PeriodIdx) -> Option<Time> {
        p.checked_mul(self.plans.workload.period.as_micros())
            .map(Time)
    }

    /// True while a mode transition is pending or freshly completed:
    /// missing messages in this window are expected confusion (charged
    /// against R), not new faults.
    fn in_blackout(&self, now: Time) -> bool {
        self.switcher
            .in_blackout(now, Duration(2 * self.plans.workload.period.as_micros()))
    }

    /// See [`starvation_explained`].
    fn silence_explained(&self, task: TaskId) -> bool {
        starvation_explained(&self.tables, self.switcher.fault_set().as_set(), task)
    }

    fn install_plan(&mut self, plan_id: btr_model::PlanId, ctx: &mut NodeCtx<'_>) {
        self.tables = self.plans.tables(plan_id);
        self.version = self.version.wrapping_add(1);
        self.detector.set_plan(Arc::clone(&self.tables));
        // Schedule the remaining slots of the current period under the
        // new version (the boundary handler for this period ran before
        // activation and its slots are now stale).
        let now = ctx.now();
        let p = now.period_index(self.plans.workload.period);
        let p_start = self
            .period_start(p)
            .expect("the current period starts in range");
        for (idx, e) in self.tables.entries(self.id).iter().enumerate() {
            let at = p_start + e.start;
            if at >= now {
                ctx.set_timer_at(
                    at,
                    timers::encode(Timer::SlotStart {
                        version: self.version,
                        idx: idx as u16,
                        period: p,
                    }),
                );
            }
        }
    }

    fn report_fault(&mut self, faulty: NodeId, reference: Time, ctx: &mut NodeCtx<'_>) {
        match self
            .switcher
            .add_fault(&self.plans.strategy, ctx.now(), reference, faulty)
        {
            SwitchAction::None => {}
            SwitchAction::Begin {
                to: _,
                activate_at,
                transfers,
            } => {
                // Phase boundary: this node has convicted `faulty` and
                // is starting the mode switch. Out-of-band telemetry —
                // a no-op unless the substrate carries a recorder.
                ctx.observe(Phase::Attributed, faulty);
                for t in transfers {
                    if let ATask::Work { task, .. } = t.atask {
                        ctx.send(
                            t.to,
                            Payload::StateTransfer {
                                task,
                                to_plan: self
                                    .switcher
                                    .pending()
                                    .map(|(p, _)| p)
                                    .unwrap_or(self.switcher.current_plan()),
                                seq: 0,
                                total: 1,
                                bytes: t.bytes,
                            },
                        );
                    }
                }
                ctx.set_timer_at(activate_at, timers::encode(Timer::Activate));
            }
        }
    }

    /// The instant a record's consequences are dated from: the end of
    /// the period it refers to, identical on every node holding the
    /// record, so mode switches align cluster-wide. `None` when that end
    /// lies past the clock's range: only a forged record names such a
    /// period, and it is dropped before admission.
    fn reference_instant(&self, record: &EvidenceRecord) -> Option<Time> {
        record
            .period()
            .checked_add(1)
            .and_then(|p| self.period_start(p))
    }

    fn act_on_verified(&mut self, record: &EvidenceRecord, reference: Time, ctx: &mut NodeCtx<'_>) {
        // Phase boundary: verified evidence implicating a node exists
        // at this correct node (the earliest such mark across nodes is
        // the detection instant).
        ctx.observe(Phase::EvidenceObserved, record.accuses());
        if let Some(x) = record.convicts() {
            self.report_fault(x, reference, ctx);
        } else {
            let newly = self.detector.record_declaration(record);
            for x in newly.into_iter().flatten() {
                self.report_fault(x, reference, ctx);
            }
        }
    }

    /// Forward a record the pool has just verified to everyone but its
    /// sender — even suspected nodes, see [`Disseminator::targets`]: one
    /// signature for the round, and every copy shares the record. The
    /// pool verifies an id once, so a record is flooded once.
    fn flood(&mut self, record: &Arc<EvidenceRecord>, from: Option<NodeId>, ctx: &mut NodeCtx<'_>) {
        let targets = match from {
            None => &self.peers,
            Some(_) => {
                self.targets.clear();
                self.targets
                    .extend(Disseminator::targets(self.id, self.n_nodes, from));
                &self.targets
            }
        };
        ctx.send_many(targets, Payload::Evidence(Arc::clone(record)));
        self.stats.evidence_forwarded += targets.len() as u64;
    }

    /// Admit locally generated evidence, each record under the id it was
    /// raised with, act on it, and flood it.
    fn handle_local_evidence(
        &mut self,
        records: impl IntoIterator<Item = (EvidenceId, EvidenceRecord)>,
        ctx: &mut NodeCtx<'_>,
    ) {
        let period = ctx.now().period_index(self.plans.workload.period);
        for (id, record) in records {
            let Some(reference) = self.reference_instant(&record) else {
                continue;
            };
            let outcome = self.pool.admit(
                ctx.keystore(),
                self.plans.workload.as_ref(),
                self.id,
                id,
                &record,
                period,
            );
            if let AdmitOutcome::Verified = outcome {
                self.stats.evidence_generated += 1;
                let record = Arc::new(record);
                self.act_on_verified(&record, reference, ctx);
                self.flood(&record, None, ctx);
            }
        }
    }

    fn handle_boundary(&mut self, p: PeriodIdx, ctx: &mut NodeCtx<'_>) {
        let p_start = self
            .period_start(p)
            .expect("a boundary timer's period starts in range");
        // Heartbeats.
        let drop_hb = self
            .attack
            .as_ref()
            .is_some_and(|a| a.drops_heartbeats(ctx.now()));
        if !drop_hb {
            // Heartbeats go to *everyone*, including suspected nodes: a
            // wrongly suspected peer must keep hearing us, or suspicion
            // becomes self-fulfilling. One signature covers the round.
            ctx.send_many(&self.peers, Payload::Heartbeat { period: p });
            self.stats.heartbeats_sent += self.peers.len() as u64;
        }
        // Attack side-channels that fire per period.
        match self.attack {
            Some(Attack::EvidenceSpam { from, per_period }) if ctx.now() >= from => {
                for i in 0..per_period {
                    let victim = NodeId((self.id.0 + 1 + i) % self.n_nodes as u32);
                    // Fabricated "proof" with an invalid inner signature:
                    // cheap for verifiers to reject, counted against us.
                    let forged = ctx.sign_output(
                        TaskId(0),
                        0,
                        p,
                        0xBAD0 + i as u64,
                        0,
                        victim, // Producer mismatch: sig.key != producer.
                    );
                    let bogus = EvidenceRecord::BadComputation {
                        accused: victim,
                        output: forged,
                        inputs: vec![],
                    };
                    ctx.send_many(&self.peers, Payload::Evidence(Arc::new(bogus)));
                }
            }
            Some(Attack::Babble {
                from,
                msgs_per_period,
            }) if ctx.now() >= from => {
                let n = self.n_nodes as u32;
                self.targets.clear();
                self.targets
                    .extend((0..msgs_per_period).map(|i| NodeId(i % n)));
                self.targets.retain(|&dst| dst != self.id);
                ctx.send_many(&self.targets, Payload::Control(0xBB));
            }
            _ => {}
        }
        // Close out the previous period's detection — unless we are in a
        // mode-transition blackout: while a switch is pending or within
        // two periods after activation, missing outputs are expected
        // confusion, not omission faults (Section 4.4: "some brief
        // confusion may even be acceptable"). BTR charges that window
        // against R rather than generating false accusations from it.
        if p > 0 {
            let blackout = self.in_blackout(ctx.now());
            if blackout {
                self.detector.gc(p.saturating_sub(4));
            } else {
                let faulty = self.switcher.fault_set().as_set();
                let tables = &self.tables;
                let explained =
                    |task: TaskId, _producer: NodeId| starvation_explained(tables, faulty, task);
                let evs = self
                    .detector
                    .end_of_period(ctx.signer(), p - 1, faulty, &explained);
                self.handle_local_evidence(evs, ctx);
            }
        }
        // Schedule this period's slots.
        for (idx, e) in self.tables.entries(self.id).iter().enumerate() {
            ctx.set_timer_at(
                p_start + e.start,
                timers::encode(Timer::SlotStart {
                    version: self.version,
                    idx: idx as u16,
                    period: p,
                }),
            );
        }
        // Garbage-collect stale inputs: keep this period and the three
        // before it.
        let keep_from = p.saturating_sub(NODE_PERIODS as u64 - 1);
        self.inputs.gc(keep_from);
        self.pending_emit.gc(keep_from);
        self.dissem.gc_echoes(keep_from);
        // Re-arm.
        ctx.set_timer_at(
            p_start + self.plans.workload.period,
            timers::encode(Timer::PeriodBoundary { period: p + 1 }),
        );
    }

    /// The value of `task`'s instance in period `p` on lane `replica`
    /// and its commitment to the inputs it was computed over, gathered
    /// from the inputs this node holds into its reusable input list; or
    /// the first input it lacks, with that input's producer.
    fn compute(
        &mut self,
        task: TaskId,
        replica: ReplicaIdx,
        is_source: bool,
        p: PeriodIdx,
    ) -> Result<(Value, u64), (TaskId, NodeId)> {
        if is_source {
            return Ok((
                sensor_value(task, p, self.plans.workload.seed),
                EMPTY_INPUTS_DIGEST,
            ));
        }
        let flows = self.tables.in_flows(task, replica);
        let vals = self.detector.input_values();
        for &(u, lane, node) in flows {
            let w = self.inputs.get(u, lane, p).ok_or((u, node))?;
            vals.push((u, w.value));
        }
        Ok(task_value_and_digest(task, p, vals))
    }

    /// A slot could not run in period `p`: input `u` from `producer`
    /// never arrived.
    fn missed_input(&mut self, u: TaskId, producer: NodeId, p: PeriodIdx, ctx: &mut NodeCtx<'_>) {
        self.stats.outputs_missed += 1;
        // Recipient-side path declaration (Section 4.2: "allow both the
        // sender and the recipient to declare ... a problem with the
        // path between them"). If the silent producer already
        // exonerated itself by blaming its own upstream, chain the
        // declaration to that *root* — blame propagates up the dataflow
        // instead of pooling on innocent intermediates.
        let (blame_node, blame_task) = self
            .detector
            .exoneration_of(producer, p)
            .unwrap_or((producer, u));
        if !self.in_blackout(ctx.now())
            && blame_node != self.id
            && !self.switcher.fault_set().contains(blame_node)
            && !self.silence_explained(u)
            && !self.silence_explained(blame_task)
        {
            let decl = EvidenceRecord::declare_path(
                ctx.signer(),
                self.id,
                blame_node,
                self.id,
                blame_task,
                p,
            );
            let id = self.pool.id(&decl);
            self.handle_local_evidence([(id, decl)], ctx);
        } else {
            self.stats.suppressed_declarations += 1;
        }
    }

    fn handle_slot_start(&mut self, version: u8, idx: u16, p: PeriodIdx, ctx: &mut NodeCtx<'_>) {
        if version != self.version {
            return; // Stale plan.
        }
        let Some(entry) = self.tables.entries(self.id).get(idx as usize).copied() else {
            return;
        };
        let ATask::Work { task, replica } = entry.atask else {
            return; // Check/Verify slots are event-driven.
        };
        let spec = self.plans.workload.task(task);
        let is_sink = matches!(spec.kind, TaskKind::Sink { .. });
        let is_source = matches!(spec.kind, TaskKind::Source { .. });

        let (mut value, mut digest) = match self.compute(task, replica, is_source, p) {
            Ok(computed) => computed,
            Err((u, producer)) => {
                self.missed_input(u, producer, p, ctx);
                return; // Cannot compute this period.
            }
        };
        // The witnesses travel with the output: a sink sends nothing.
        let witnesses: Vec<SignedOutput> = if is_sink {
            Vec::new()
        } else {
            let flows = self.tables.in_flows(task, replica);
            flows
                .iter()
                .filter_map(|&(u, lane, _)| self.inputs.get(u, lane, p).cloned())
                .collect()
        };

        // Commission attack: corrupt the value (and maybe the commitment).
        if let Some(attack) = &self.attack {
            if attack.corrupts(ctx.now(), task) {
                value ^= 0xDEAD_BEEF;
                if let Attack::Commission {
                    garble_commitment: true,
                    ..
                } = attack
                {
                    digest ^= 0x1234_5678;
                }
            }
        }

        let output = ctx.sign_output(task, replica, p, value, digest, self.id);
        // Make the value available to same-node consumers immediately:
        // the static schedule already serialises slots on this node, so a
        // local consumer can never be scheduled before this slot ends —
        // except exactly at the end boundary, where event order would
        // otherwise race.
        self.inputs.insert_first(&output);
        self.pending_emit.insert(Pending {
            slot: (p, idx),
            output,
            witnesses,
            is_sink,
        });

        // Emit after the execution budget (plus any timing-attack delay).
        let delay = entry.wcet
            + self
                .attack
                .as_ref()
                .map_or(Duration::ZERO, |a| a.emit_delay(ctx.now()));
        ctx.set_timer(
            delay,
            timers::encode(Timer::SlotEmit {
                version: self.version,
                idx,
                period: p,
            }),
        );
    }

    fn handle_slot_emit(&mut self, version: u8, idx: u16, p: PeriodIdx, ctx: &mut NodeCtx<'_>) {
        if version != self.version {
            return;
        }
        let Some(Pending {
            output,
            witnesses,
            is_sink,
            ..
        }) = self.pending_emit.remove((p, idx))
        else {
            return;
        };
        if is_sink {
            ctx.actuate(output.task, p, output.value);
            return;
        }
        // Omission attack: silently drop outputs.
        if self
            .attack
            .as_ref()
            .is_some_and(|a| a.drops_outputs(ctx.now()))
        {
            return;
        }
        let targets = self.tables.out_routes(output.task, output.replica);
        self.stats.outputs_sent += 1;
        // Equivocation attack: sign a conflicting twin and split targets.
        let equivocate = self
            .attack
            .as_ref()
            .is_some_and(|a| a.equivocates(ctx.now()));
        if equivocate && targets.len() >= 2 {
            self.equiv_flip += 1;
            let twin = ctx.sign_output(
                output.task,
                output.replica,
                p,
                output.value ^ (0x5150 + self.equiv_flip),
                output.inputs_digest,
                self.id,
            );
            let (first, second) = targets.split_at(targets.len() / 2);
            ctx.send_many(
                first,
                Payload::Output {
                    output,
                    witnesses: witnesses.clone(),
                },
            );
            ctx.send_many(
                second,
                Payload::Output {
                    output: twin,
                    witnesses,
                },
            );
            return;
        }
        ctx.send_many(targets, Payload::Output { output, witnesses });
    }

    fn handle_output_msg(
        &mut self,
        env_src: NodeId,
        sent_at: Time,
        env_sig: Option<btr_crypto::Signature>,
        output: SignedOutput,
        witnesses: Vec<SignedOutput>,
        ctx: &mut NodeCtx<'_>,
    ) {
        // Relayed copies (checker echoes) are cross-check material, not
        // fresh observations: they carry no timing signal and are not
        // echoed onward.
        let direct = env_src == output.producer;
        // A period that starts past the clock's range is forged: such an
        // output is neither stored nor given a timing window.
        let p_start = self.period_start(output.period);
        // Store if this is an input one of my tasks expects.
        let verified = (p_start.is_some()
            && self.tables.wants(self.id, output.task, output.replica))
        .then(|| ctx.verify_output(&output).is_ok());
        if verified == Some(true) {
            self.inputs.insert_first(&output);
            // Echo the accepted copy to the task's checker, once per
            // slot: conflicting signed copies then meet in the checker's
            // pool even when each of the producer's tasks has a single
            // consumer (the campaign's avionics equivocation gap).
            if direct {
                if let Some(chk) = self.tables.checker(output.task) {
                    if chk != self.id
                        && chk != output.producer
                        && self
                            .dissem
                            .should_echo(output.task, output.replica, output.period)
                    {
                        ctx.send(
                            chk,
                            Payload::Output {
                                output: output.clone(),
                                witnesses: Vec::new(),
                            },
                        );
                    }
                }
            }
        }
        // Timing window: the lane's scheduled emit instant plus slack
        // (falling back to the task deadline when the plan has no slot
        // for it; a task the workload does not know — a forged id — has
        // none). Only direct arrivals outside a transition blackout are
        // judged — echoes arrive a hop late by design.
        let expected_by = if direct && !self.in_blackout(ctx.now()) {
            let base = match self.tables.emit_offset(output.task, output.replica) {
                Some(emit) => Some(emit + TIMING_SLACK),
                None => self
                    .plans
                    .workload
                    .tasks()
                    .get(output.task.index())
                    .map(|t| t.deadline),
            };
            base.zip(p_start)
                .and_then(|(base, start)| start.0.checked_add(base.as_micros()))
                .map(Time)
        } else {
            None
        };
        let arrived_at = ctx.now();
        let (verify, signer) = ctx.verifier();
        let evs = self.detector.observe_output(
            verify,
            signer,
            output,
            verified,
            &witnesses,
            arrived_at,
            expected_by,
            env_sig.map(|s| (sent_at, s)),
        );
        self.handle_local_evidence(evs, ctx);
    }

    fn handle_evidence_msg(
        &mut self,
        from: NodeId,
        record: Arc<EvidenceRecord>,
        ctx: &mut NodeCtx<'_>,
    ) {
        let Some(reference) = self.reference_instant(&record) else {
            return;
        };
        let period = ctx.now().period_index(self.plans.workload.period);
        let id = self.pool.id(&record);
        let outcome = self.pool.admit(
            ctx.keystore(),
            self.plans.workload.as_ref(),
            from,
            id,
            &record,
            period,
        );
        match outcome {
            AdmitOutcome::Verified => {
                // Proofs update the switcher directly; declarations feed
                // the detector's tracker even when they do not (yet)
                // cross the threshold.
                self.act_on_verified(&record, reference, ctx);
                self.flood(&record, Some(from), ctx);
            }
            AdmitOutcome::Rejected(_) => {
                self.stats.evidence_rejected += 1;
            }
            _ => {}
        }
    }
}

impl NodeBehavior for BtrNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        // A cold boot runs period 0 at time zero. A node started later (a
        // restart) has missed this period's slot starts, even exactly on
        // its boundary, so it joins at the first boundary after now.
        let period = self.plans.workload.period;
        let first = match ctx.now() {
            Time::ZERO => Time::ZERO,
            now => (now + Duration(1)).next_period_start(period),
        };
        ctx.set_timer_at(
            first,
            timers::encode(Timer::PeriodBoundary {
                period: first.period_index(period),
            }),
        );
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
        // Authentication gate: unattributable traffic is dropped.
        if ctx.verify_env(&env).is_err() {
            return;
        }
        let sig = env.sig;
        match env.payload {
            Payload::Output { output, witnesses } => {
                self.handle_output_msg(env.src, env.sent_at, sig, output, witnesses, ctx);
            }
            Payload::Heartbeat { period } => {
                self.detector.observe_heartbeat(env.src, period);
            }
            Payload::Evidence(record) => {
                self.handle_evidence_msg(env.src, record, ctx);
            }
            Payload::StateTransfer { bytes, .. } => {
                self.stats.state_bytes_in += bytes as u64;
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: TimerId) {
        match timers::decode(timer) {
            Some(Timer::PeriodBoundary { period }) => self.handle_boundary(period, ctx),
            Some(Timer::SlotStart {
                version,
                idx,
                period,
            }) => self.handle_slot_start(version, idx, period, ctx),
            Some(Timer::SlotEmit {
                version,
                idx,
                period,
            }) => self.handle_slot_emit(version, idx, period, ctx),
            Some(Timer::Activate) => {
                if let Some(plan) = self.switcher.poll(ctx.now()) {
                    self.install_plan(plan, ctx);
                    // Phase boundary: the recovery plan is live on this
                    // node for every fault it covers.
                    for &s in self.switcher.fault_set().as_set() {
                        ctx.observe(Phase::SwitchCompleted, s);
                    }
                }
            }
            None => {}
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_model::workload::Workload;
    use btr_model::{task_value, Strategy, Topology};
    use btr_planner::{build_strategy, PlannerConfig};
    use btr_sim::{SimConfig, World};
    use std::collections::BTreeMap;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    fn setup(f: u8) -> (Arc<Workload>, Arc<Strategy>, Topology) {
        let w = Arc::new(btr_model::workload::generators::avionics(9));
        let topo = Topology::bus(9, 100_000, Duration(5));
        let mut cfg = PlannerConfig::new(f, ms(150));
        cfg.admit_best_effort = true;
        let (s, _) = build_strategy(&w, &topo, &cfg).unwrap();
        (w, Arc::new(s), topo)
    }

    fn world_with_btr(
        w: &Arc<Workload>,
        s: &Arc<Strategy>,
        topo: &Topology,
        attacks: &[(NodeId, Attack)],
    ) -> World {
        let mut sim_cfg = SimConfig::new(7);
        sim_cfg.period = w.period;
        let mut world = World::new(topo.clone(), sim_cfg);
        let plans = WorldPlans::new(Arc::clone(w), Arc::clone(s));
        for n in 0..topo.node_count() as u32 {
            let attack = attacks.iter().find(|(id, _)| *id == NodeId(n));
            world.set_behavior(
                NodeId(n),
                Box::new(BtrNode::new(
                    NodeId(n),
                    Arc::clone(&plans),
                    topo.node_count(),
                    attack.map(|(_, a)| a.clone()),
                )),
            );
        }
        world
    }

    fn node_ref(world: &World, id: NodeId) -> &BtrNode {
        world
            .behavior(id)
            .and_then(|b| b.as_any())
            .and_then(|a| a.downcast_ref::<BtrNode>())
            .expect("btr node")
    }

    /// A substrate held at one instant that records what a node arms.
    struct Armed {
        now: Time,
        keystore: btr_crypto::KeyStore,
        timers: Vec<(Time, TimerId)>,
    }

    impl btr_sim::CtxBackend for Armed {
        fn now(&self) -> Time {
            self.now
        }
        fn period(&self) -> Duration {
            ms(10)
        }
        fn keystore(&self) -> &btr_crypto::KeyStore {
            &self.keystore
        }
        fn send_env(&mut self, _src: NodeId, _env: Envelope) {}
        fn set_timer_at(&mut self, _node: NodeId, at: Time, timer: TimerId) {
            self.timers.push((at, timer));
        }
        fn actuate(&mut self, _: NodeId, _: TaskId, _: PeriodIdx, _: Value) {}
    }

    #[test]
    fn on_start_arms_the_first_boundary_from_now() {
        // At time zero, period 0; mid-period, the next boundary; exactly
        // on a boundary, the one after it (that period's slots began).
        let (w, s, _) = setup(1);
        assert_eq!(w.period, ms(10));
        for (now, first, period) in [
            (Time::ZERO, Time::ZERO, 0),
            (Time(17_000), Time(20_000), 2),
            (Time(20_000), Time(30_000), 3),
        ] {
            let suite = btr_crypto::AuthSuite::default();
            let mut host = Armed {
                now,
                keystore: btr_crypto::KeyStore::derive_suite(7, 9, suite),
                timers: Vec::new(),
            };
            let mut seat = btr_sim::Seat::derive(7, NodeId(6), suite);
            let mut scratch = btr_sim::Scratch::default();
            let plans = WorldPlans::new(Arc::clone(&w), Arc::clone(&s));
            let mut node = BtrNode::new(NodeId(6), plans, 9, None);
            node.on_start(&mut NodeCtx::new(
                &mut seat,
                &mut scratch,
                &mut host,
                NodeId(6),
            ));
            let boundary = timers::encode(Timer::PeriodBoundary { period });
            assert_eq!(host.timers, [(first, boundary)], "started at {now:?}");
        }
    }

    /// A substrate held at one instant that keeps what a node sends.
    struct Wire {
        now: Time,
        keystore: btr_crypto::KeyStore,
        sent: Vec<Envelope>,
    }

    impl btr_sim::CtxBackend for Wire {
        fn now(&self) -> Time {
            self.now
        }
        fn period(&self) -> Duration {
            ms(10)
        }
        fn keystore(&self) -> &btr_crypto::KeyStore {
            &self.keystore
        }
        fn send_env(&mut self, _src: NodeId, env: Envelope) {
            self.sent.push(env);
        }
        fn set_timer_at(&mut self, _node: NodeId, _at: Time, _timer: TimerId) {}
        fn actuate(&mut self, _: NodeId, _: TaskId, _: PeriodIdx, _: Value) {}
    }

    #[test]
    fn a_re_raised_declaration_is_admitted_once_and_flooded_once() {
        // n6 declares its path from n2 broken, twice, as a recipient whose
        // input went missing twice would: the pool admits the first under
        // the id it was raised with, and the second is a duplicate.
        let (w, s, _) = setup(1);
        let suite = btr_crypto::AuthSuite::default();
        let mut wire = Wire {
            now: Time(200_000),
            keystore: btr_crypto::KeyStore::derive_suite(7, 9, suite),
            sent: Vec::new(),
        };
        let me = NodeId(6);
        let mut seat = btr_sim::Seat::derive(7, me, suite);
        let mut scratch = btr_sim::Scratch::default();
        let mut node = BtrNode::new(me, WorldPlans::new(w, s), 9, None);
        let mut ctx = NodeCtx::new(&mut seat, &mut scratch, &mut wire, me);
        let decl = EvidenceRecord::declare_path(ctx.signer(), me, NodeId(2), me, TaskId(0), 19);
        for _ in 0..2 {
            let id = node.pool.id(&decl);
            assert_eq!(id, decl.id());
            node.handle_local_evidence([(id, decl.clone())], &mut ctx);
        }
        assert_eq!(node.stats().evidence_generated, 1);
        let flooded: Vec<NodeId> = wire.sent.iter().map(|e| e.dst).collect();
        assert_eq!(flooded, node.peers, "one flood round, to every peer");
        assert!(wire
            .sent
            .iter()
            .all(|e| matches!(&e.payload, Payload::Evidence(r) if **r == decl)));
    }

    /// A compromised peer, n1, sends `me` the payload `forge` makes with
    /// n1's keys: its envelope authenticates and what it signs is
    /// validly signed. The receiver must raise nothing and send nothing;
    /// it is returned for the caller's checks.
    fn forged_payload_is_dropped_without_a_panic(
        me: NodeId,
        forge: impl FnOnce(&mut NodeCtx<'_>) -> Payload,
    ) -> BtrNode {
        let (w, s, _) = setup(1);
        let suite = btr_crypto::AuthSuite::default();
        let mut wire = Wire {
            now: Time(200_000),
            keystore: btr_crypto::KeyStore::derive_suite(7, 9, suite),
            sent: Vec::new(),
        };
        let peer = NodeId(1);
        let mut seat = btr_sim::Seat::derive(7, peer, suite);
        let mut scratch = btr_sim::Scratch::default();
        let mut ctx = NodeCtx::new(&mut seat, &mut scratch, &mut wire, peer);
        let payload = forge(&mut ctx);
        ctx.send(me, payload);
        let plans = WorldPlans::new(Arc::clone(&w), Arc::clone(&s));
        let mut node = BtrNode::new(me, plans, 9, None);
        let mut seat = btr_sim::Seat::derive(7, me, suite);
        let mut scratch = btr_sim::Scratch::default();
        let env = wire.sent.pop().expect("sent");
        node.on_message(
            &mut NodeCtx::new(&mut seat, &mut scratch, &mut wire, me),
            env,
        );
        assert_eq!(node.stats().evidence_generated, 0);
        assert!(wire.sent.is_empty(), "{:?}", wire.sent);
        node
    }

    /// An output n1 signs for `task` and `period`, in a message of its own.
    fn forged_output(task: TaskId, period: PeriodIdx) -> impl FnOnce(&mut NodeCtx<'_>) -> Payload {
        move |ctx| Payload::Output {
            output: ctx.sign_output(task, 0, period, 1, 0, NodeId(1)),
            witnesses: Vec::new(),
        }
    }

    #[test]
    fn an_output_of_a_task_the_workload_lacks_is_dropped_without_a_panic() {
        // No timing window: the output arrives 17 periods after its own.
        let (w, _, _) = setup(1);
        let forged = TaskId(w.tasks().len() as u32 + 5);
        let node = forged_payload_is_dropped_without_a_panic(NodeId(6), forged_output(forged, 3));
        assert!(node.inputs.get(forged, 0, 3).is_none());
    }

    #[test]
    fn an_output_of_a_period_past_the_clock_is_dropped_without_a_panic() {
        // Task 0 is known and the receiver consumes its lane 0, but its
        // period starts past the clock's range: no timing window,
        // nothing stored.
        let (w, s, _) = setup(1);
        let period = u64::MAX / 1000;
        assert_eq!(period.checked_mul(w.period.as_micros()), None);
        let plans = WorldPlans::new(w, s);
        let tables = plans.tables(plans.strategy.initial_plan().id);
        let me = (2..9)
            .map(NodeId)
            .find(|&n| tables.wants(n, TaskId(0), 0))
            .expect("some node past n1 consumes task 0");
        let node = forged_payload_is_dropped_without_a_panic(me, forged_output(TaskId(0), period));
        assert!(node.inputs.get(TaskId(0), 0, period).is_none());
    }

    #[test]
    fn evidence_of_a_period_past_the_clock_is_dropped_without_a_panic() {
        // n1 proves its own equivocation in the clock's last period: a
        // valid proof, but dated from that period's end, past the
        // clock's range. The receiver neither acts on it nor floods it.
        let (_, s, _) = setup(1);
        let node = forged_payload_is_dropped_without_a_panic(NodeId(6), |ctx| {
            let [a, b] =
                [1, 2].map(|value| ctx.sign_output(TaskId(0), 0, u64::MAX, value, 0, NodeId(1)));
            Payload::Evidence(Arc::new(EvidenceRecord::Equivocation {
                accused: NodeId(1),
                a,
                b,
            }))
        });
        assert_eq!(node.current_plan(), s.initial_plan().id);
        assert_eq!(node.switch_count(), 0);
    }

    #[test]
    fn one_world_derives_each_installed_plan_once_and_a_restart_shares_it() {
        // Every node of a world, and a restarted incarnation, reads one
        // copy of each plan's tables: the initial plan's, derived when
        // the first node was made, and the recovery plan's, derived by
        // whichever node installed it first.
        let (w, s, topo) = setup(1);
        let plans = WorldPlans::new(Arc::clone(&w), Arc::clone(&s));
        let mut sim_cfg = SimConfig::new(7);
        sim_cfg.period = w.period;
        let mut world = World::new(topo.clone(), sim_cfg);
        let make = |node| Box::new(BtrNode::new(node, Arc::clone(&plans), 9, None));
        for n in (0..9).map(NodeId) {
            world.set_behavior(n, make(n));
        }
        assert_eq!(plans.built(), 1);
        let victim = NodeId(6);
        world.schedule_control(Time::from_millis(42), btr_sim::ControlAction::Crash(victim));
        world.schedule_start(Time::from_millis(160), victim, make(victim));
        world.start();
        world.run_until(Time::from_millis(300));
        let mut installed = BTreeSet::from([s.initial_plan().id]);
        for n in (0..9).map(NodeId) {
            let node = node_ref(&world, n);
            installed.insert(node.current_plan());
            let shared = plans.tables(node.current_plan());
            assert!(Arc::ptr_eq(&node.tables, &shared), "{n}");
            assert!(Arc::ptr_eq(node.plans(), &plans), "{n}");
        }
        // The survivors switched; the restarted node runs the initial
        // plan's tables, the ones the first incarnations started on.
        assert_eq!(installed.len(), 2, "{installed:?}");
        assert_eq!(plans.built(), 2);
        let restarted = node_ref(&world, victim);
        assert_eq!(restarted.current_plan(), s.initial_plan().id);
    }

    #[test]
    fn fault_free_run_produces_correct_sink_outputs() {
        let (w, s, topo) = setup(1);
        let mut world = world_with_btr(&w, &s, &topo, &[]);
        world.start();
        world.run_until(Time::from_millis(100));
        // Every sink actuated in (nearly) every period.
        let sinks = w.sinks().count() as u64;
        let periods = 9; // Periods 0..9 fully complete.
        let acts = world.actuations().len() as u64;
        assert!(
            acts >= sinks * periods,
            "expected >= {} actuations, got {acts}",
            sinks * periods
        );
        // All actuation values match the deterministic reference.
        for a in world.actuations() {
            let spec = w.task(a.task);
            let vals: Vec<(TaskId, Value)> = spec
                .inputs
                .iter()
                .map(|&u| {
                    // Recursively reference values: inputs of sinks are
                    // compute tasks; recompute from the dataflow.
                    (u, reference_value(&w, u, a.period))
                })
                .collect();
            let expect = task_value(a.task, a.period, &vals);
            assert_eq!(a.value, expect, "sink {} period {}", a.task, a.period);
        }
        // No evidence generated in a fault-free run.
        for n in 0..9u32 {
            let node = node_ref(&world, NodeId(n));
            assert_eq!(node.stats().evidence_generated, 0, "node {n}");
            assert_eq!(node.fault_set().len(), 0);
        }
    }

    fn reference_value(w: &Workload, t: TaskId, p: PeriodIdx) -> Value {
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

    /// Reference value under a plan's shed set (degraded modes drop
    /// inputs, so expected sink values change with the plan).
    fn plan_reference_value(
        w: &Workload,
        shed: &std::collections::BTreeSet<TaskId>,
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
            .filter_map(|&u| plan_reference_value(w, shed, u, p).map(|v| (u, v)))
            .collect();
        if vals.is_empty() {
            return None;
        }
        Some(task_value(t, p, &vals))
    }

    #[test]
    fn commission_fault_is_detected_and_recovered() {
        let (w, s, topo) = setup(1);
        // Find a node hosting a lane-0 compute task in the initial plan,
        // so corruption actually reaches a sink.
        let initial = s.initial_plan();
        let ctl = w
            .tasks()
            .iter()
            .find(|t| t.name == "flight-control")
            .unwrap()
            .id;
        let victim = initial
            .node_of(ATask::Work {
                task: ctl,
                replica: 0,
            })
            .unwrap();
        let attack = Attack::Commission {
            from: Time::from_millis(30),
            tasks: None,
            garble_commitment: false,
        };
        let mut world = world_with_btr(&w, &s, &topo, &[(victim, attack)]);
        world.start();
        world.run_until(Time::from_millis(200));
        // Every correct node converged on the fault set {victim}.
        for n in 0..9u32 {
            if NodeId(n) == victim {
                continue;
            }
            let node = node_ref(&world, NodeId(n));
            assert!(
                node.fault_set().contains(victim),
                "node {n} never learned about {victim}"
            );
            assert_eq!(node.current_plan(), s.best_plan_for(node.fault_set()));
        }
        // And sink outputs are correct again at the end of the run,
        // relative to the degraded plan the system converged to.
        let sample = node_ref(
            &world,
            (0..9u32).map(NodeId).find(|&n| n != victim).unwrap(),
        );
        let plan = s.plan(sample.current_plan());
        let last_period = world.actuations().iter().map(|a| a.period).max().unwrap();
        let tail: Vec<_> = world
            .actuations()
            .iter()
            .filter(|a| a.period == last_period)
            .collect();
        assert!(!tail.is_empty());
        for a in &tail {
            let expect = plan_reference_value(&w, &plan.shed, a.task, a.period);
            assert_eq!(Some(a.value), expect, "sink {} period {}", a.task, a.period);
        }
    }

    #[test]
    fn crash_fault_triggers_suspicion_and_switch() {
        let (w, s, topo) = setup(1);
        let initial = s.initial_plan();
        // Crash a node hosting work (not an actuator pin, to keep sinks).
        let fusion = w
            .tasks()
            .iter()
            .find(|t| t.name == "state-fusion")
            .unwrap()
            .id;
        let victim = initial
            .node_of(ATask::Work {
                task: fusion,
                replica: 0,
            })
            .unwrap();
        let mut world = world_with_btr(&w, &s, &topo, &[]);
        world.schedule_control(Time::from_millis(35), btr_sim::ControlAction::Crash(victim));
        world.start();
        world.run_until(Time::from_millis(250));
        let mut converged = 0;
        for n in 0..9u32 {
            if NodeId(n) == victim || world.is_crashed(NodeId(n)) {
                continue;
            }
            let node = node_ref(&world, NodeId(n));
            if node.fault_set().contains(victim) {
                converged += 1;
            }
        }
        assert!(
            converged >= 7,
            "only {converged} nodes converged on the crash"
        );
    }

    #[test]
    fn garbled_commitment_is_convicted_via_bad_witness() {
        let (w, s, topo) = setup(1);
        let initial = s.initial_plan();
        let fusion = w
            .tasks()
            .iter()
            .find(|t| t.name == "state-fusion")
            .unwrap()
            .id;
        let victim = initial
            .node_of(ATask::Work {
                task: fusion,
                replica: 0,
            })
            .unwrap();
        // The smarter commission attacker: lies about its commitment to
        // dodge re-execution proofs. BadWitness catches it instead.
        let attack = Attack::Commission {
            from: Time::from_millis(30),
            tasks: None,
            garble_commitment: true,
        };
        let mut world = world_with_btr(&w, &s, &topo, &[(victim, attack)]);
        world.start();
        world.run_until(Time::from_millis(250));
        let mut converged = 0;
        for n in 0..9u32 {
            if NodeId(n) == victim {
                continue;
            }
            let node = node_ref(&world, NodeId(n));
            if node.fault_set().contains(victim) {
                converged += 1;
            }
        }
        assert_eq!(converged, 8, "garbled commitment must still convict");
    }

    #[test]
    fn timing_attack_is_declared_and_recovered() {
        let (w, s, topo) = setup(1);
        let initial = s.initial_plan();
        let fusion = w
            .tasks()
            .iter()
            .find(|t| t.name == "state-fusion")
            .unwrap()
            .id;
        let victim = initial
            .node_of(ATask::Work {
                task: fusion,
                replica: 0,
            })
            .unwrap();
        let attack = Attack::Timing {
            from: Time::from_millis(30),
            delay: Duration::from_millis(8),
        };
        let mut world = world_with_btr(&w, &s, &topo, &[(victim, attack)]);
        world.start();
        world.run_until(Time::from_millis(400));
        let mut converged = 0;
        for n in 0..9u32 {
            if NodeId(n) == victim {
                continue;
            }
            let node = node_ref(&world, NodeId(n));
            if node.fault_set().contains(victim) {
                converged += 1;
            }
        }
        assert!(converged >= 7, "timing fault not attributed: {converged}");
    }

    #[test]
    fn one_mac_per_heartbeat_round_and_under_one_per_delivery() {
        let (w, s, topo) = setup(1);
        let run = |heartbeats: bool| {
            // Silencing heartbeats on every node leaves everything else
            // the run does as it was.
            let silent = Attack::Omission {
                from: Time::ZERO,
                drop_outputs: false,
                drop_heartbeats: true,
            };
            let attacks: Vec<(NodeId, Attack)> = (0..9u32)
                .filter(|_| !heartbeats)
                .map(|n| (NodeId(n), silent.clone()))
                .collect();
            let mut world = world_with_btr(&w, &s, &topo, &attacks);
            world.start();
            let macs_before = btr_crypto::mac_count();
            world.run_until(Time::from_millis(100));
            let macs = btr_crypto::mac_count() - macs_before;
            let rounds: u64 = (0..9u32)
                .map(|n| node_ref(&world, NodeId(n)).stats().heartbeats_sent / 8)
                .sum();
            for n in 0..9u32 {
                assert_eq!(node_ref(&world, NodeId(n)).stats().evidence_generated, 0);
            }
            (macs, rounds, world.metrics().msgs_delivered)
        };
        let (macs_on, rounds, delivered_on) = run(true);
        let (macs_off, no_rounds, _) = run(false);
        assert_eq!((rounds, no_rounds), (9 * 11, 0));
        // A round costs its sender one MAC however many peers it reaches,
        // and its eight receivers none: the world's memo took the triple
        // as it was signed. (About one, not one: entries move when the
        // memo starts over, which costs or spares the odd MAC.)
        let per_round = (macs_on - macs_off) as f64 / rounds as f64;
        assert!(
            (0.95..=1.1).contains(&per_round),
            "{per_round:.2} MACs per heartbeat round"
        );
        // Over the whole fault-free run that comes to 0.61 MACs per
        // delivered message: a tag is computed where it is signed — an
        // envelope's and, inside it, an output's — and, bar a memo
        // flush, by nobody who receives it (1.38 when each world checked
        // a tag once, two when every receiver checked for itself, three
        // when every copy was signed for itself too).
        let per_delivery = macs_on as f64 / delivered_on as f64;
        assert!(per_delivery < 0.65, "{per_delivery:.2} MACs per delivery");
    }

    proptest::proptest! {
        /// The short `Vec` of pending emits answers as the ordered map
        /// it replaced: over inserts (a slot held again replaces what it
        /// held), removals of held and unheld slots, and collections,
        /// each slot holds what the map holds for its key.
        #[test]
        fn prop_pending_emits_are_the_map_they_replaced(
            ops in proptest::collection::vec((0u8..8, 0u64..12, 0u16..4, 0u64..1000), 1..120)
        ) {
            let mut pending = PendingEmits::default();
            let mut model: BTreeMap<(PeriodIdx, u16), Pending> = BTreeMap::new();
            for (step, &(op, p, idx, v)) in ops.iter().enumerate() {
                let slot = (p, idx);
                match op {
                    0..=3 => {
                        let held = Pending {
                            slot,
                            output: SignedOutput {
                                task: TaskId(u32::from(idx)),
                                replica: 0,
                                period: p,
                                value: v,
                                inputs_digest: 0,
                                producer: NodeId(1),
                                sig: btr_crypto::Signature { key: 1, tag: btr_crypto::Digest([0; 32]) },
                            },
                            witnesses: Vec::new(),
                            is_sink: v % 2 == 0,
                        };
                        pending.insert(held.clone());
                        model.insert(slot, held);
                    }
                    4..=6 => proptest::prop_assert!(
                        pending.remove(slot) == model.remove(&slot), "step {step}"
                    ),
                    _ => {
                        pending.gc(p);
                        model.retain(|&(q, _), _| q >= p);
                    }
                }
                proptest::prop_assert!(pending.0.len() == model.len(), "step {step}");
            }
            for (&slot, held) in &model {
                proptest::prop_assert!(pending.remove(slot).as_ref() == Some(held));
            }
        }
    }

    #[test]
    fn timer_version_prevents_stale_slots() {
        // Covered implicitly by recovery tests; here check decode gating.
        let t = timers::encode(Timer::SlotStart {
            version: 3,
            idx: 1,
            period: 10,
        });
        assert!(matches!(
            timers::decode(t),
            Some(Timer::SlotStart { version: 3, .. })
        ));
    }
}
