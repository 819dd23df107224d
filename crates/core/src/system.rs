//! The end-to-end BTR system: plan offline, run under attack, judge.

use crate::faults::{FaultScenario, InjectedFault};
use crate::oracle::{judge, survival_by_criticality, RecoveryStats, SinkVerdict};
use btr_model::{
    Criticality, Duration, FaultSet, NodeId, PlanId, Strategy, TaskId, Time, Topology,
};
use btr_net::Network;
use btr_obs::ObsRecorder;
use btr_planner::{build_strategy, PlannerConfig, StrategyError, StrategyStats};
use btr_runtime::{Attack, BtrNode, NodeStats};
use btr_sim::{Actuation, ControlAction, NodeBehavior, SimConfig, SimMetrics, World};
use btr_workload::Workload;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Errors surfaced by the system facade.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemError {
    /// The offline planner could not produce an admissible strategy.
    Planning(StrategyError),
    /// A source/sink is pinned to a node the platform does not have.
    /// Caught up front: the planner and runtime index node tables by
    /// pinned id and would panic on a workload sized for a larger
    /// platform (e.g. a 9-node workload dropped onto a 4-node bus).
    PinnedNodeOutOfRange {
        /// The offending task.
        task: btr_model::TaskId,
        /// The node it is pinned to.
        node: NodeId,
        /// Nodes the platform actually has.
        n_nodes: usize,
    },
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Planning(e) => write!(f, "planning failed: {e}"),
            SystemError::PinnedNodeOutOfRange {
                task,
                node,
                n_nodes,
            } => write!(
                f,
                "{task} is pinned to {node} but the platform has only {n_nodes} node(s)"
            ),
        }
    }
}

impl std::error::Error for SystemError {}

/// A planned BTR deployment, ready to run fault scenarios.
pub struct BtrSystem {
    workload: Arc<Workload>,
    topo: Topology,
    strategy: Arc<Strategy>,
    stats: StrategyStats,
    /// Extra settle time appended after the horizon so in-flight outputs
    /// of the final judged period can land.
    grace: Duration,
    /// Residual message-loss probability (ppm) applied by the simulator.
    loss_ppm: u32,
    /// Link-level FEC (k data, m parity shards per message).
    fec: Option<(u8, u8)>,
    /// Hard cap on simulator events per run (0 = unlimited).
    max_events: u64,
    /// Authenticator suite for every node's signer and the shared
    /// keystore (HMAC-SHA-256 default; SipHash-2-4 for cheap statistical
    /// experiments — see `btr_crypto::AuthSuite`).
    auth_suite: btr_crypto::AuthSuite,
}

/// One correct node at the end of a run: its id, runtime stats, final
/// plan and fault-set size. Both substrates report these rows.
pub type NodeRow = (NodeId, NodeStats, PlanId, usize);

/// Verdicts for an actuation stream, however it was produced — by the
/// simulator ([`BtrSystem::run`]) or by the live thread-per-node runtime
/// (`btr-node`), which uses the simulator as its trace oracle.
#[derive(Debug, Clone)]
pub struct ActuationJudgment {
    /// Judged output slots ((sink, period) classification).
    pub(crate) verdicts: Vec<SinkVerdict>,
    /// Recovery window measurement.
    pub recovery: RecoveryStats,
    /// Fraction of acceptable slots per criticality level.
    pub(crate) survival: BTreeMap<Criticality, f64>,
    /// Number of fully judged periods.
    pub periods: u64,
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Judged output slots ((sink, period) classification).
    pub verdicts: Vec<SinkVerdict>,
    /// Recovery window measurement.
    pub recovery: RecoveryStats,
    /// Fraction of acceptable slots per criticality level.
    pub survival: BTreeMap<Criticality, f64>,
    /// Simulator aggregate counters.
    pub metrics: SimMetrics,
    /// Per-node runtime stats, final plan, and fault-set size (correct
    /// nodes only; compromised/crashed nodes excluded).
    pub node_stats: Vec<NodeRow>,
    /// True if all correct nodes ended on identical fault sets and plans.
    pub converged: bool,
    /// Number of fully judged periods.
    pub periods: u64,
    /// Total bytes refused by link guardians (babbling containment).
    pub guardian_drops: u64,
    /// True if the run hit the configured event cap and was cut short
    /// (see [`BtrSystem::with_max_events`]); verdicts past the cut are
    /// untrustworthy and campaign oracles flag such runs.
    pub truncated: bool,
}

impl RunReport {
    /// Fraction of acceptable output slots overall.
    pub fn acceptable_fraction(&self) -> f64 {
        if self.verdicts.is_empty() {
            return 1.0;
        }
        let ok = self
            .verdicts
            .iter()
            .filter(|v| v.verdict.acceptable())
            .count();
        ok as f64 / self.verdicts.len() as f64
    }

    /// Per-period acceptable fraction (the correctness timeline of E1).
    pub fn timeline(&self) -> Vec<(u64, f64)> {
        let mut per: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
        for v in &self.verdicts {
            let e = per.entry(v.period).or_insert((0, 0));
            e.1 += 1;
            if v.verdict.acceptable() {
                e.0 += 1;
            }
        }
        per.into_iter()
            .map(|(p, (ok, total))| (p, ok as f64 / total.max(1) as f64))
            .collect()
    }
}

impl BtrSystem {
    /// Plan a strategy for a workload on a platform.
    pub fn plan(
        workload: Workload,
        topo: Topology,
        cfg: PlannerConfig,
    ) -> Result<BtrSystem, SystemError> {
        for t in workload.tasks() {
            if let Some(node) = t.kind.pinned_node() {
                if node.index() >= topo.node_count() {
                    return Err(SystemError::PinnedNodeOutOfRange {
                        task: t.id,
                        node,
                        n_nodes: topo.node_count(),
                    });
                }
            }
        }
        let (strategy, stats) =
            build_strategy(&workload, &topo, &cfg).map_err(SystemError::Planning)?;
        Ok(BtrSystem {
            workload: Arc::new(workload),
            topo,
            strategy: Arc::new(strategy),
            stats,
            grace: Duration::from_millis(30),
            loss_ppm: 0,
            fec: None,
            max_events: 0,
            auth_suite: btr_crypto::AuthSuite::default(),
        })
    }

    /// Enable residual link loss (parts per million) — the post-FEC error
    /// rate of Section 2.1's "losses are rare enough to be ignored".
    pub fn with_loss_ppm(mut self, ppm: u32) -> Self {
        self.loss_ppm = ppm;
        self
    }

    /// Enable link-level FEC: each message is sent as `k` data + `m`
    /// parity shards (any ≤ m shard losses are masked; wire overhead
    /// (k+m)/k). With FEC on, `with_loss_ppm` applies per shard — the
    /// "FEC can be used to minimize this risk" mechanism of Section 2.1.
    pub fn with_fec(mut self, k: u8, m: u8) -> Self {
        self.fec = Some((k, m));
        self
    }

    /// Cap the number of simulator events per run (0 = unlimited). Runs
    /// that hit the cap stop early and are reported with
    /// [`RunReport::truncated`] — the safety valve that keeps campaign
    /// workers from stalling on a pathological schedule.
    pub fn with_max_events(mut self, cap: u64) -> Self {
        self.max_events = cap;
        self
    }

    /// Select the authenticator suite the deployment runs with. The
    /// default (HMAC-SHA-256) is the pinned baseline; SipHash-2-4 gives
    /// the same in-simulation unforgeability at a fraction of the CPU.
    /// Wire sizes are suite-independent, so two runs differing only in
    /// suite produce identical verdicts (the cross-suite oracle).
    pub fn with_auth_suite(mut self, suite: btr_crypto::AuthSuite) -> Self {
        self.auth_suite = suite;
        self
    }

    /// The authenticator suite runs are built with.
    pub fn auth_suite(&self) -> btr_crypto::AuthSuite {
        self.auth_suite
    }

    /// The installed workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Shared handle to the workload (the live thread-per-node runtime
    /// spawns its actors off the same `Arc` the simulator uses).
    pub fn workload_arc(&self) -> Arc<Workload> {
        Arc::clone(&self.workload)
    }

    /// Shared handle to the computed strategy.
    pub fn strategy_arc(&self) -> Arc<Strategy> {
        Arc::clone(&self.strategy)
    }

    /// Settle time appended after the horizon before judging.
    pub fn grace(&self) -> Duration {
        self.grace
    }

    /// The channel a live run with `seed` sends through: the one
    /// [`BtrSystem::build_world`]'s world builds from its config.
    pub fn network(&self, seed: u64) -> Network {
        let (topo, period) = (self.topo.clone(), self.workload.period);
        Network::new(topo, period, seed, self.loss_ppm, self.fec)
    }

    /// The platform.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The computed strategy.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// Planner statistics (plan counts, transition bounds, shedding).
    pub fn stats(&self) -> &StrategyStats {
        &self.stats
    }

    /// Build the simulated world for a scenario (exposed so experiments
    /// can instrument runs beyond what [`BtrSystem::run`] reports).
    pub fn build_world(&self, scenario: &FaultScenario, seed: u64) -> World {
        let mut sim_cfg = SimConfig::new(seed);
        sim_cfg.period = self.workload.period;
        sim_cfg.loss_ppm = self.loss_ppm;
        sim_cfg.fec = self.fec;
        sim_cfg.max_events = self.max_events;
        sim_cfg.auth_suite = self.auth_suite;
        let n = self.topo.node_count();
        let mut world = scenario_world(self.topo.clone(), sim_cfg, scenario, |node, attack| {
            Box::new(BtrNode::new(
                node,
                Arc::clone(&self.workload),
                Arc::clone(&self.strategy),
                n,
                attack,
            ))
        });
        // At scale the world selects the demand-driven routing backend;
        // warm it with the plan-derived traffic matrix so the first
        // period's flows don't each pay a BFS (purely a latency
        // optimisation — rows are built deterministically on first use
        // either way).
        if world.routing_kind() == "demand" {
            let plan = self.strategy.initial_plan();
            let mut dsts = BTreeSet::new();
            for i in 0..n as u32 {
                let node = NodeId(i);
                dsts.extend(
                    btr_runtime::derive_view(node, plan, &self.workload).route_demand(node),
                );
            }
            world.warm_routes(dsts);
        }
        world
    }

    /// Judge an externally produced actuation stream (e.g. the live
    /// thread-per-node runtime's) with exactly the pipeline
    /// [`BtrSystem::run`] applies to the simulator's actuations: same
    /// shed-aware reference values, same compromised-node exclusions,
    /// same recovery accounting.
    pub fn judge_actuations(
        &self,
        scenario: &FaultScenario,
        horizon: Duration,
        actuations: &[Actuation],
    ) -> ActuationJudgment {
        judge_stream(
            &self.workload,
            &self.degraded_shed(scenario),
            scenario,
            horizon,
            actuations,
        )
    }

    /// The shed set of the degraded plan the strategy prescribes for the
    /// injected pattern (what "legitimate degradation" means for the
    /// oracle).
    fn degraded_shed(&self, scenario: &FaultScenario) -> BTreeSet<TaskId> {
        let injected: FaultSet = scenario.compromised().into_iter().collect();
        if injected.is_empty() {
            return BTreeSet::new();
        }
        let pid = self.strategy.best_plan_for(&injected);
        self.strategy.plan(pid).shed.iter().copied().collect()
    }

    /// Run a fault scenario for `horizon` and judge the outputs.
    pub fn run(&self, scenario: &FaultScenario, horizon: Duration, seed: u64) -> RunReport {
        let mut world = self.build_world(scenario, seed);
        world.start();
        world.run_until(Time::ZERO + horizon + self.grace);
        let shed = self.degraded_shed(scenario);
        judge_world(&self.workload, &shed, scenario, horizon, &world)
    }

    /// [`BtrSystem::run`] with an [`ObsRecorder`] installed for
    /// the duration: same report, plus the phase marks and counters the
    /// recorder absorbed. The recorder is pure observation — the report
    /// is byte-identical to an unobserved run at the same seed — so
    /// callers (the schedule fuzzer) can use the marks as a coverage
    /// signature without perturbing verdicts.
    pub fn run_observed(
        &self,
        scenario: &FaultScenario,
        horizon: Duration,
        seed: u64,
    ) -> (RunReport, ObsRecorder) {
        let (world, rec) = self.observed_world(scenario, horizon, seed);
        let shed = self.degraded_shed(scenario);
        (
            judge_world(&self.workload, &shed, scenario, horizon, &world),
            rec,
        )
    }

    /// The world of an observed run, finished but not yet judged, beside
    /// what its recorder collected — for callers that read the world
    /// itself (the live differential compares its logical trace).
    pub fn observed_world(
        &self,
        scenario: &FaultScenario,
        horizon: Duration,
        seed: u64,
    ) -> (World, ObsRecorder) {
        let mut world = self.build_world(scenario, seed);
        world.set_recorder(Box::new(ObsRecorder::new()));
        world.start();
        world.run_until(Time::ZERO + horizon + self.grace);
        let rec = world.take_obs();
        (world, rec)
    }
}

/// The world a scenario runs in: one behaviour per node, made by
/// `behavior` from the node's id and the attack the scenario scripts for
/// it, and each node's scripted crash scheduled as a control action
/// (both read from [`FaultScenario::fault_of`], as the live fleet reads
/// them). BTR and the baselines build their worlds here.
pub fn scenario_world(
    topo: Topology,
    sim_cfg: SimConfig,
    scenario: &FaultScenario,
    mut behavior: impl FnMut(NodeId, Option<Attack>) -> Box<dyn NodeBehavior>,
) -> World {
    let n = topo.node_count() as u32;
    let mut world = World::new(topo, sim_cfg);
    for node in (0..n).map(NodeId) {
        let fault = scenario.fault_of(node);
        world.set_behavior(node, behavior(node, fault.and_then(InjectedFault::attack)));
        if let Some(at) = fault.and_then(InjectedFault::crash_at) {
            world.schedule_control(at, ControlAction::Crash(node));
        }
    }
    world
}

/// Judge an actuation stream, however it was produced, against the
/// all-correct reference: `shed` is the shed set of the plan prescribed
/// for the injected faults (empty for a scheme that never degrades by
/// plan), the scenario's compromised nodes are excluded, and recovery is
/// measured from its first manifestation.
fn judge_stream(
    workload: &Workload,
    shed: &BTreeSet<TaskId>,
    scenario: &FaultScenario,
    horizon: Duration,
    actuations: &[Actuation],
) -> ActuationJudgment {
    let periods = horizon.as_micros() / workload.period.as_micros();
    let compromised: BTreeSet<NodeId> = scenario.compromised().into_iter().collect();
    let fault_at = scenario.first_manifestation();
    let verdicts = judge(
        workload,
        actuations,
        periods,
        shed,
        &compromised,
        fault_at,
        Duration(1_000),
    );
    let recovery = RecoveryStats::from_verdicts(workload, &verdicts, fault_at);
    let survival = survival_by_criticality(&verdicts);
    ActuationJudgment {
        verdicts,
        recovery,
        survival,
        periods,
    }
}

/// The correct nodes' rows at the end of a run, and whether they all
/// ended on one fault set and plan. `survivors` are the nodes that ran
/// to the end uncrashed, with their behaviours; compromised nodes are
/// dropped, and so is any behaviour that is not a [`BtrNode`]. Both
/// substrates fold their nodes here.
pub fn node_rows<'a>(
    scenario: &FaultScenario,
    survivors: impl IntoIterator<Item = (NodeId, &'a dyn NodeBehavior)>,
) -> (Vec<NodeRow>, bool) {
    let compromised = scenario.compromised();
    let mut rows = Vec::new();
    let mut sets: BTreeSet<(Vec<NodeId>, PlanId)> = BTreeSet::new();
    for (node, behavior) in survivors {
        if compromised.contains(&node) {
            continue;
        }
        if let Some(b) = behavior.as_any().and_then(|a| a.downcast_ref::<BtrNode>()) {
            rows.push((node, b.stats(), b.current_plan(), b.fault_set().len()));
            sets.insert((b.fault_set().iter().collect(), b.current_plan()));
        }
    }
    (rows, sets.len() <= 1)
}

/// Fold a finished world into its report: the oracle's verdicts over
/// its actuations (the same pipeline as [`BtrSystem::judge_actuations`]),
/// the correct nodes' [`node_rows`], and the simulator's counters.
pub fn judge_world(
    workload: &Workload,
    shed: &BTreeSet<TaskId>,
    scenario: &FaultScenario,
    horizon: Duration,
    world: &World,
) -> RunReport {
    let ActuationJudgment {
        verdicts,
        recovery,
        survival,
        periods,
    } = judge_stream(workload, shed, scenario, horizon, world.actuations());
    let nodes = (0..world.topology().node_count() as u32).map(NodeId);
    let survivors = nodes
        .clone()
        .filter(|&node| !world.is_crashed(node))
        .filter_map(|node| Some((node, world.behavior(node)?)));
    let (node_stats, converged) = node_rows(scenario, survivors);
    RunReport {
        verdicts,
        recovery,
        survival,
        metrics: *world.metrics(),
        node_stats,
        converged,
        periods,
        guardian_drops: nodes.map(|node| world.guardian_drops(node)).sum(),
        truncated: world.truncated(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_model::FaultKind;

    fn system(f: u8) -> BtrSystem {
        let workload = btr_workload::generators::avionics(9);
        let topo = Topology::bus(9, 100_000, Duration(5));
        let mut cfg = PlannerConfig::new(f, Duration::from_millis(150));
        cfg.admit_best_effort = true;
        BtrSystem::plan(workload, topo, cfg).expect("plannable")
    }

    #[test]
    fn observed_runs_match_unobserved_runs_exactly() {
        // The fuzzer scores runs off `run_observed`; the recorder must
        // not perturb a single verdict, stat, or recovery figure
        // relative to the plain `run` the campaign digests are built on.
        let sys = system(1);
        let scenario = FaultScenario::single(NodeId(2), FaultKind::Crash, Time(52_000));
        let horizon = Duration::from_millis(400);
        let plain = sys.run(&scenario, horizon, 7);
        let (observed, rec) = sys.run_observed(&scenario, horizon, 7);
        assert_eq!(format!("{plain:?}"), format!("{observed:?}"));
        assert!(
            !rec.marks().is_empty(),
            "a crashed node must leave phase marks behind"
        );
    }

    #[test]
    fn oversized_workload_is_a_clean_error() {
        // A workload generated for 9 nodes pins sinks up to NodeId(8);
        // dropping it onto a 4-node platform must be a typed error, not
        // an index panic deep in the planner.
        let workload = btr_workload::generators::avionics(9);
        let topo = Topology::bus(4, 100_000, Duration(5));
        let mut cfg = PlannerConfig::new(1, Duration::from_millis(150));
        cfg.admit_best_effort = true;
        match BtrSystem::plan(workload, topo, cfg) {
            Err(SystemError::PinnedNodeOutOfRange { node, n_nodes, .. }) => {
                assert!(node.index() >= n_nodes);
                assert_eq!(n_nodes, 4);
            }
            other => panic!("expected PinnedNodeOutOfRange, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn fault_free_run_is_fully_correct() {
        let sys = system(1);
        let report = sys.run(&FaultScenario::none(), Duration::from_millis(200), 3);
        assert_eq!(report.acceptable_fraction(), 1.0, "{:?}", report.recovery);
        assert!(report.converged);
        assert_eq!(report.recovery.recovery_time, None);
        assert_eq!(report.periods, 20);
    }

    #[test]
    fn crash_recovers_within_r() {
        let sys = system(1);
        let scenario = FaultScenario::single(NodeId(6), FaultKind::Crash, Time::from_millis(42));
        let report = sys.run(&scenario, Duration::from_millis(400), 3);
        assert!(report.converged, "fault sets diverged");
        let window = report.recovery.bad_window();
        assert!(
            window <= sys.strategy().r_bound,
            "recovery {window} exceeded R = {}",
            sys.strategy().r_bound
        );
        // The tail of the run is acceptable again.
        let tl = report.timeline();
        let tail = &tl[tl.len().saturating_sub(3)..];
        assert!(
            tail.iter().all(|(_, f)| *f == 1.0),
            "tail not clean: {tail:?}"
        );
    }

    #[test]
    fn commission_recovers_within_r() {
        let sys = system(1);
        let scenario =
            FaultScenario::single(NodeId(0), FaultKind::Commission, Time::from_millis(35));
        let report = sys.run(&scenario, Duration::from_millis(400), 5);
        assert!(report.converged);
        assert!(report.recovery.bad_window() <= sys.strategy().r_bound);
    }

    #[test]
    fn two_sequential_faults_with_f2() {
        let sys = system(2);
        let scenario = FaultScenario {
            faults: vec![
                InjectedFault::new(NodeId(1), FaultKind::Crash, Time::from_millis(40)),
                InjectedFault::new(NodeId(5), FaultKind::Omission, Time::from_millis(200)),
            ],
        };
        let report = sys.run(&scenario, Duration::from_millis(500), 11);
        assert!(report.converged, "diverged: {:?}", report.node_stats);
        // Both faults recovered: the last periods are acceptable.
        let tl = report.timeline();
        let tail = &tl[tl.len().saturating_sub(3)..];
        assert!(
            tail.iter().all(|(_, f)| *f >= 0.99),
            "tail not clean: {tail:?}"
        );
    }

    #[test]
    fn auth_suites_produce_identical_verdicts() {
        // The cross-suite differential oracle at the system level: the
        // same evidence-heavy scenario (a commission fault exercises
        // signed outputs, witnesses, proofs, and pool admission) must
        // produce bit-identical verdicts, metrics, and node stats under
        // both authenticator suites — tags differ, behaviour must not.
        let scenario =
            FaultScenario::single(NodeId(0), FaultKind::Commission, Time::from_millis(35));
        let run = |suite: btr_crypto::AuthSuite| {
            let workload = btr_workload::generators::avionics(9);
            let topo = Topology::bus(9, 100_000, Duration(5));
            let mut cfg = PlannerConfig::new(1, Duration::from_millis(150));
            cfg.admit_best_effort = true;
            let sys = BtrSystem::plan(workload, topo, cfg)
                .expect("plannable")
                .with_auth_suite(suite);
            assert_eq!(sys.auth_suite(), suite);
            sys.run(&scenario, Duration::from_millis(400), 5)
        };
        let hmac = run(btr_crypto::AuthSuite::HmacSha256);
        let sip = run(btr_crypto::AuthSuite::SipHash24);
        assert_eq!(hmac.verdicts, sip.verdicts, "verdicts diverged");
        assert_eq!(hmac.recovery, sip.recovery);
        assert_eq!(hmac.survival, sip.survival);
        assert_eq!(hmac.metrics, sip.metrics, "simulator counters diverged");
        assert_eq!(hmac.node_stats, sip.node_stats);
        assert_eq!(hmac.converged, sip.converged);
        assert_eq!(hmac.guardian_drops, sip.guardian_drops);
        assert_eq!(hmac.truncated, sip.truncated);
        // The scenario actually exercised the fault path.
        assert!(hmac.recovery.bad_window() > Duration::ZERO);
    }

    #[test]
    fn evidence_spam_does_not_break_timeliness() {
        let sys = system(1);
        let scenario =
            FaultScenario::single(NodeId(3), FaultKind::EvidenceSpam, Time::from_millis(30));
        let report = sys.run(&scenario, Duration::from_millis(300), 9);
        // Spam is contained: outputs stay overwhelmingly acceptable.
        assert!(
            report.acceptable_fraction() > 0.95,
            "fraction = {}",
            report.acceptable_fraction()
        );
    }

    #[test]
    fn babble_is_contained_by_guardians() {
        let sys = system(1);
        let scenario = FaultScenario::single(NodeId(2), FaultKind::Babble, Time::from_millis(30));
        let report = sys.run(&scenario, Duration::from_millis(400), 11);
        assert!(report.guardian_drops > 0, "guardian never engaged");
        // The babbler costs a bounded window (its own lanes go quiet
        // until it is attributed and excluded); the tail must be clean.
        assert!(
            report.acceptable_fraction() > 0.8,
            "fraction = {}",
            report.acceptable_fraction()
        );
        let tl = report.timeline();
        let tail = &tl[tl.len().saturating_sub(3)..];
        assert!(tail.iter().all(|(_, f)| *f >= 0.99), "tail: {tail:?}");
    }
}
