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
mod flows;
mod modeswitch;
mod omission;
mod pool;
pub mod timers;
mod timing;

pub use attack::Attack;
pub use flows::{derive_view, PlanView};

use btr_model::{
    inputs_digest, sensor_value, task_value, ATask, Duration, Envelope, EvidenceId, EvidenceRecord,
    NodeId, Payload, PeriodIdx, SignedOutput, Strategy, TaskId, Time, Value,
};
use btr_obs::Phase;
use btr_sim::{NodeBehavior, NodeCtx, TimerId};
use btr_workload::{TaskKind, Workload};
use checker::OutputPool;
use detector::Detector;
use evidence::Disseminator;
use modeswitch::{ModeSwitcher, SwitchAction};
use pool::{AdmitOutcome, EvidencePool};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use timers::Timer;

/// True if `producer`'s failure to deliver `task` is already explained by
/// the known fault set: some lane of a transitive input of `task` is
/// hosted on a convicted node under the current plan, so the producer is
/// starved, not faulty. Declaring it anyway is how the false-attribution
/// cascade started (see EXPERIMENTS.md campaign findings) — blame stays
/// pinned on the nodes with direct evidence against them.
///
/// Free function so the end-of-period handler can call it while the
/// detector is mutably borrowed.
fn starvation_explained(
    upstream_hosts: &BTreeMap<TaskId, BTreeSet<NodeId>>,
    faulty: &BTreeSet<NodeId>,
    task: TaskId,
) -> bool {
    upstream_hosts
        .get(&task)
        .is_some_and(|hosts| hosts.iter().any(|h| faulty.contains(h)))
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
    workload: Arc<Workload>,
    strategy: Arc<Strategy>,
    /// The adversarial script of a compromised node (`None`: correct).
    attack: Option<Attack>,
    detector: Detector,
    pool: EvidencePool,
    dissem: Disseminator,
    switcher: ModeSwitcher,
    view: PlanView,
    /// Bumped on every plan install; stale slot timers are dropped.
    version: u8,
    /// Received input values by (task, lane, period), first wins: the
    /// detector's pool layout (a row per period), holding what this
    /// node's tasks consume and what they produced.
    inputs: OutputPool,
    /// Computed outputs awaiting their emit instant: (period, slot idx).
    pending_emit: BTreeMap<(PeriodIdx, u16), (SignedOutput, Vec<SignedOutput>, bool)>,
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
    /// Create a node runtime over an installed workload and strategy;
    /// `attack` makes it a compromised node running that script.
    pub fn new(
        id: NodeId,
        workload: Arc<Workload>,
        strategy: Arc<Strategy>,
        n_nodes: usize,
        attack: Option<Attack>,
    ) -> BtrNode {
        let mut detector = Detector::new(id);
        let switcher = ModeSwitcher::new(id, &strategy);
        let view = derive_view(id, strategy.initial_plan(), &workload);
        detector.set_plausible_accusers(view.accuser_sets.clone());
        BtrNode {
            id,
            workload,
            strategy,
            attack,
            detector,
            pool: EvidencePool::new(),
            dissem: Disseminator::new(),
            switcher,
            view,
            version: 0,
            inputs: OutputPool::default(),
            pending_emit: BTreeMap::new(),
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

    fn period_start(&self, p: PeriodIdx) -> Time {
        Time(p * self.workload.period.as_micros())
    }

    /// True while a mode transition is pending or freshly completed:
    /// missing messages in this window are expected confusion (charged
    /// against R), not new faults.
    fn in_blackout(&self, now: Time) -> bool {
        self.switcher
            .in_blackout(now, Duration(2 * self.workload.period.as_micros()))
    }

    /// See [`starvation_explained`].
    fn silence_explained(&self, task: TaskId) -> bool {
        starvation_explained(
            &self.view.upstream_hosts,
            self.switcher.fault_set().as_set(),
            task,
        )
    }

    /// Install the checkers for the current view.
    fn sync_checkers(&mut self) {
        for t in self.detector.checked_tasks() {
            self.detector.remove_checker(t);
        }
        for cfg in &self.view.checkers {
            self.detector.install_checker(cfg.clone());
        }
    }

    fn install_plan(&mut self, plan_id: btr_model::PlanId, ctx: &mut NodeCtx<'_>) {
        let plan = self.strategy.plan(plan_id);
        self.view = derive_view(self.id, plan, &self.workload);
        self.version = self.version.wrapping_add(1);
        self.sync_checkers();
        self.detector
            .set_plausible_accusers(self.view.accuser_sets.clone());
        // Schedule the remaining slots of the current period under the
        // new version (the boundary handler for this period ran before
        // activation and its slots are now stale).
        let now = ctx.now();
        let p = now.period_index(self.workload.period);
        let p_start = self.period_start(p);
        for (idx, e) in self.view.entries.iter().enumerate() {
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
            .add_fault(&self.strategy, ctx.now(), reference, faulty)
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

    fn act_on_verified(&mut self, record: &EvidenceRecord, ctx: &mut NodeCtx<'_>) {
        // Reference time = end of the period the evidence refers to:
        // identical on every node holding the record, so mode switches
        // align cluster-wide.
        let reference = self.period_start(record.period() + 1);
        // Phase boundary: verified evidence implicating a node exists
        // at this correct node (the earliest such mark across nodes is
        // the detection instant).
        ctx.observe(Phase::EvidenceObserved, record.accuses());
        if let Some(x) = record.convicts() {
            self.report_fault(x, reference, ctx);
        } else {
            let newly = self.detector.record_declaration(record);
            for x in newly {
                self.report_fault(x, reference, ctx);
            }
        }
    }

    /// Forward a verified record (`id` is the one the pool admitted it
    /// under) to everyone but its sender — even suspected nodes, see
    /// [`Disseminator::targets`] — once: one signature for the round.
    fn flood(
        &mut self,
        id: EvidenceId,
        record: &EvidenceRecord,
        from: Option<NodeId>,
        ctx: &mut NodeCtx<'_>,
    ) {
        if !self.dissem.should_forward(id) {
            return;
        }
        let targets = match from {
            None => &self.peers,
            Some(_) => {
                self.targets.clear();
                self.targets
                    .extend(Disseminator::targets(self.id, self.n_nodes, from));
                &self.targets
            }
        };
        ctx.send_many(targets, Payload::Evidence(record.clone()));
        self.stats.evidence_forwarded += targets.len() as u64;
    }

    /// Admit locally generated evidence, act on it, and flood it.
    fn handle_local_evidence(&mut self, records: Vec<EvidenceRecord>, ctx: &mut NodeCtx<'_>) {
        let period = ctx.now().period_index(self.workload.period);
        for record in records {
            let outcome = self.pool.admit(
                ctx.keystore(),
                self.workload.as_ref(),
                self.id,
                &record,
                period,
            );
            if let AdmitOutcome::Verified { id, .. } = outcome {
                self.stats.evidence_generated += 1;
                self.act_on_verified(&record, ctx);
                self.flood(id, &record, None, ctx);
            }
        }
    }

    fn handle_boundary(&mut self, p: PeriodIdx, ctx: &mut NodeCtx<'_>) {
        let p_start = self.period_start(p);
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
                    ctx.send_many(&self.peers, Payload::Evidence(bogus));
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
                let upstream_hosts = &self.view.upstream_hosts;
                let explained = |task: TaskId, _producer: NodeId| {
                    starvation_explained(upstream_hosts, faulty, task)
                };
                let evs = self
                    .detector
                    .end_of_period(ctx.signer(), p - 1, faulty, &explained);
                self.handle_local_evidence(evs, ctx);
            }
        }
        // Schedule this period's slots.
        for (idx, e) in self.view.entries.iter().enumerate() {
            ctx.set_timer_at(
                p_start + e.start,
                timers::encode(Timer::SlotStart {
                    version: self.version,
                    idx: idx as u16,
                    period: p,
                }),
            );
        }
        // Garbage-collect stale inputs.
        let keep_from = p.saturating_sub(3);
        self.inputs.gc(keep_from);
        self.pending_emit.retain(|&(ip, _), _| ip >= keep_from);
        self.dissem.gc_echoes(keep_from);
        // Re-arm.
        ctx.set_timer_at(
            p_start + self.workload.period,
            timers::encode(Timer::PeriodBoundary { period: p + 1 }),
        );
    }

    fn handle_slot_start(&mut self, version: u8, idx: u16, p: PeriodIdx, ctx: &mut NodeCtx<'_>) {
        if version != self.version {
            return; // Stale plan.
        }
        let Some(entry) = self.view.entries.get(idx as usize).copied() else {
            return;
        };
        let ATask::Work { task, replica } = entry.atask else {
            return; // Check/Verify slots are event-driven.
        };
        let spec = self.workload.task(task);
        let is_sink = matches!(spec.kind, TaskKind::Sink { .. });
        let is_source = matches!(spec.kind, TaskKind::Source { .. });

        // Gather inputs.
        let (vals, witnesses): (Vec<(TaskId, Value)>, Vec<SignedOutput>) = if is_source {
            (Vec::new(), Vec::new())
        } else {
            let flows = self
                .view
                .in_flows
                .get(&entry.atask)
                .map_or(&[][..], Vec::as_slice);
            let mut vals = Vec::with_capacity(flows.len());
            let mut wits = Vec::with_capacity(flows.len());
            let mut missing: Option<(TaskId, NodeId)> = None;
            for &(u, lane, node) in flows {
                match self.inputs.get(u, lane, p) {
                    Some(w) => {
                        vals.push((u, w.value));
                        wits.push(w.clone());
                    }
                    None => {
                        missing = Some((u, node));
                        break;
                    }
                }
            }
            if let Some((u, producer)) = missing {
                self.stats.outputs_missed += 1;
                // Recipient-side path declaration (Section 4.2: "allow
                // both the sender and the recipient to declare ... a
                // problem with the path between them"). If the silent
                // producer already exonerated itself by blaming its own
                // upstream, chain the declaration to that *root* — blame
                // propagates up the dataflow instead of pooling on
                // innocent intermediates.
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
                    self.handle_local_evidence(vec![decl], ctx);
                } else {
                    self.stats.suppressed_declarations += 1;
                }
                return; // Cannot compute this period.
            }
            (vals, wits)
        };

        let mut value = if is_source {
            sensor_value(task, p, self.workload.seed)
        } else {
            task_value(task, p, &vals)
        };
        let mut digest = inputs_digest(&vals);

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
        self.pending_emit
            .insert((p, idx), (output, witnesses, is_sink));

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
        let Some((output, witnesses, is_sink)) = self.pending_emit.remove(&(p, idx)) else {
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
        let targets = self
            .view
            .out_routes
            .get(&ATask::Work {
                task: output.task,
                replica: output.replica,
            })
            .map_or(&[][..], Vec::as_slice);
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
        // Store if this is an input one of my tasks expects.
        let verified = self
            .view
            .wants(output.task, output.replica)
            .then(|| ctx.verify_output(&output).is_ok());
        if verified == Some(true) {
            self.inputs.insert_first(&output);
            // Echo the accepted copy to the task's checker, once per
            // slot: conflicting signed copies then meet in the checker's
            // pool even when each of the producer's tasks has a single
            // consumer (the campaign's avionics equivocation gap).
            if direct {
                if let Some(&chk) = self.view.checker_nodes.get(&output.task) {
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
        // for it). Only direct arrivals outside a transition blackout are
        // judged — echoes arrive a hop late by design.
        let expected_by = if direct && !self.in_blackout(ctx.now()) {
            let base = match self.view.emit_offsets.get(&(output.task, output.replica)) {
                Some(&emit) => emit + TIMING_SLACK,
                None => self.workload.task(output.task).deadline,
            };
            Some(self.period_start(output.period) + base)
        } else {
            None
        };
        let arrived_at = ctx.now();
        let (verify, signer) = ctx.verifier();
        let evs = self.detector.observe_output(
            verify,
            signer,
            self.workload.as_ref(),
            output,
            verified,
            &witnesses,
            arrived_at,
            expected_by,
            env_sig.map(|s| (sent_at, s)),
        );
        self.handle_local_evidence(evs, ctx);
    }

    fn handle_evidence_msg(&mut self, from: NodeId, record: EvidenceRecord, ctx: &mut NodeCtx<'_>) {
        let period = ctx.now().period_index(self.workload.period);
        let outcome = self.pool.admit(
            ctx.keystore(),
            self.workload.as_ref(),
            from,
            &record,
            period,
        );
        match outcome {
            AdmitOutcome::Verified { id, .. } => {
                // Proofs update the switcher directly; declarations feed
                // the detector's tracker even when they do not (yet)
                // cross the threshold.
                self.act_on_verified(&record, ctx);
                self.flood(id, &record, Some(from), ctx);
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
        self.sync_checkers();
        // A cold boot runs period 0 at time zero. A node started later (a
        // restart) has missed this period's slot starts, even exactly on
        // its boundary, so it joins at the first boundary after now.
        let period = self.workload.period;
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
                    let subjects: Vec<NodeId> =
                        self.switcher.fault_set().as_set().iter().copied().collect();
                    for s in subjects {
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
    use btr_model::Topology;
    use btr_planner::{build_strategy, PlannerConfig};
    use btr_sim::{SimConfig, World};

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    fn setup(f: u8) -> (Arc<Workload>, Arc<Strategy>, Topology) {
        let w = Arc::new(btr_workload::generators::avionics(9));
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
        for n in 0..topo.node_count() as u32 {
            let attack = attacks.iter().find(|(id, _)| *id == NodeId(n));
            world.set_behavior(
                NodeId(n),
                Box::new(BtrNode::new(
                    NodeId(n),
                    Arc::clone(w),
                    Arc::clone(s),
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
            let mut scratch = btr_sim::Scratch::for_node();
            let mut node = BtrNode::new(NodeId(6), Arc::clone(&w), Arc::clone(&s), 9, None);
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
