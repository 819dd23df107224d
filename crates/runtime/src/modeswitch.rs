//! The mode-change protocol (Section 4.4 of the paper).
//!
//! "When a node receives evidence of a new fault, it consults the
//! strategy, picks the plan for the new fault pattern, and initiates a
//! mode change to transition to this new plan."
//!
//! Convergence needs no agreement protocol: "since the new plan is a
//! function of the set of faulty nodes, it is sufficient for the nodes to
//! agree on the latter — but ... this set is append-only, and, if a node
//! receives valid evidence of a fault on some other node X, it can safely
//! add X to its local set. Thus, as long as all new evidence reaches each
//! correct node, the system should converge to a single, consistent
//! plan."
//!
//! [`ModeSwitcher`] is that per-node state machine: a grow-only
//! [`FaultSet`], a deterministic fault-set→plan mapping (delegated to the
//! installed [`Strategy`]), and period-aligned activation so all correct
//! nodes flip schedules at the same boundary (the paper's coordination
//! concern: "if different nodes switch modes at different times, some
//! confusion can briefly result").

use btr_model::{ATask, Duration, FaultSet, NodeId, PlanId, Strategy, Time};

/// A state transfer this node must perform as part of a transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TransferOut {
    /// The migrating task (this node hosted it in the old plan).
    pub(crate) atask: ATask,
    /// The new host to send state to.
    pub(crate) to: NodeId,
    /// Bytes of task state.
    pub(crate) bytes: u32,
}

/// What the runtime must do after reporting a fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SwitchAction {
    /// Nothing changed (fault already known, or plan unchanged).
    None,
    /// Begin a transition: send the listed state transfers now and
    /// activate the new plan at `activate_at` (a period boundary).
    Begin {
        /// The plan to activate.
        to: PlanId,
        /// Global activation instant (period-aligned).
        activate_at: Time,
        /// State this node must push to new hosts.
        transfers: Vec<TransferOut>,
    },
}

/// Per-node mode-change state machine.
#[derive(Debug, Clone)]
pub(crate) struct ModeSwitcher {
    node: NodeId,
    fault_set: FaultSet,
    current: PlanId,
    pending: Option<(PlanId, Time)>,
    /// Instant of the most recently completed activation.
    last_activated: Option<Time>,
    /// Count of completed switches (diagnostics).
    switches: u64,
}

impl ModeSwitcher {
    /// Create a switcher starting in the strategy's initial plan.
    pub(crate) fn new(node: NodeId, strategy: &Strategy) -> Self {
        ModeSwitcher {
            node,
            fault_set: FaultSet::empty(),
            current: strategy.initial_plan().id,
            pending: None,
            last_activated: None,
            switches: 0,
        }
    }

    /// The local (grow-only) fault set.
    pub(crate) fn fault_set(&self) -> &FaultSet {
        &self.fault_set
    }

    /// The currently active plan.
    pub(crate) fn current_plan(&self) -> PlanId {
        self.current
    }

    /// The pending transition, if one is scheduled.
    pub(crate) fn pending(&self) -> Option<(PlanId, Time)> {
        self.pending
    }

    /// Completed switch count.
    pub(crate) fn switch_count(&self) -> u64 {
        self.switches
    }

    /// Record a newly convicted/attributed faulty node.
    ///
    /// `reference` is a time derived from the *evidence itself* (the end
    /// of the period the fault manifested in), NOT from local arrival
    /// time. Every correct node holding the same evidence therefore
    /// computes the identical activation boundary — the coordination the
    /// paper calls for in Section 4.4 ("if different nodes switch modes
    /// at different times, some confusion can briefly result").
    pub(crate) fn add_fault(
        &mut self,
        strategy: &Strategy,
        now: Time,
        reference: Time,
        faulty: NodeId,
    ) -> SwitchAction {
        if !self.fault_set.insert(faulty) {
            return SwitchAction::None;
        }
        let target = strategy.best_plan_for(&self.fault_set);
        if target == self.current && self.pending.is_none() {
            return SwitchAction::None;
        }
        // Activation: reference + transition bound, rounded up to a
        // period boundary; never earlier than the next local boundary
        // (stragglers catch up at their next boundary).
        let bound = strategy
            .transition(self.current, target)
            .map(|t| t.bound)
            .unwrap_or_else(|| {
                // No precomputed edge (multi-fault jump): fall back to the
                // strategy-wide worst case.
                strategy.worst_transition_bound() + strategy.period
            });
        let activate_at = (reference + bound)
            .next_period_start(strategy.period)
            .max((now + Duration(1)).next_period_start(strategy.period));

        // Supersede any pending switch: the newest fault set wins.
        self.pending = Some((target, activate_at));

        // State transfers this node owes: tasks it hosts in the current
        // plan that live elsewhere in the target plan.
        let transfers = match strategy.transition(self.current, target) {
            Some(t) => t
                .migrations
                .iter()
                .filter(|m| m.from == Some(self.node))
                .map(|m| TransferOut {
                    atask: m.atask,
                    to: m.to,
                    bytes: m.state_bytes,
                })
                .collect(),
            None => {
                // Derive directly from the plans.
                let from_plan = strategy.plan(self.current);
                let to_plan = strategy.plan(target);
                from_plan
                    .placement
                    .iter()
                    .filter(|(a, n)| {
                        !matches!(a, ATask::Verify { .. })
                            && **n == self.node
                            && to_plan.node_of(**a).is_some_and(|m| m != self.node)
                    })
                    .map(|(&a, _)| TransferOut {
                        atask: a,
                        to: to_plan.node_of(a).expect("checked above"),
                        bytes: 0,
                    })
                    .collect()
            }
        };
        SwitchAction::Begin {
            to: target,
            activate_at,
            transfers,
        }
    }

    /// Poll at (or after) an activation instant: if a pending switch is
    /// due, complete it and return the newly active plan.
    pub(crate) fn poll(&mut self, now: Time) -> Option<PlanId> {
        match self.pending {
            Some((to, at)) if now >= at => {
                self.current = to;
                self.pending = None;
                self.last_activated = Some(now);
                self.switches += 1;
                Some(to)
            }
            _ => None,
        }
    }

    /// True while a mode transition is pending or completed less than
    /// `settle` ago. The paper's Section 4.4 concedes that "some brief
    /// confusion may even be acceptable" around a switch; BTR charges
    /// that window against R instead of letting it generate accusations,
    /// so the detector suppresses declarations while this holds.
    pub(crate) fn in_blackout(&self, now: Time, settle: Duration) -> bool {
        self.pending.is_some()
            || self
                .last_activated
                .is_some_and(|t| now.saturating_since(t) <= settle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_model::{FaultSet, Plan, PlanId, Strategy, Transition};
    use std::collections::BTreeMap;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    /// A minimal 3-node strategy: plans for {}, {n0}, {n1}, {n2}, {n0,n1}.
    fn strategy() -> Strategy {
        let mk = |id: u32, fs: &[u32]| Plan {
            id: PlanId(id),
            fault_set: fs.iter().map(|&i| NodeId(i)).collect(),
            placement: BTreeMap::new(),
            schedules: BTreeMap::new(),
            shed: Default::default(),
        };
        let mut index = BTreeMap::new();
        index.insert(FaultSet::empty(), PlanId(0));
        index.insert(FaultSet::from_nodes(&[NodeId(0)]), PlanId(1));
        index.insert(FaultSet::from_nodes(&[NodeId(1)]), PlanId(2));
        index.insert(FaultSet::from_nodes(&[NodeId(2)]), PlanId(3));
        index.insert(FaultSet::from_nodes(&[NodeId(0), NodeId(1)]), PlanId(4));
        let mut transitions = BTreeMap::new();
        transitions.insert(
            (PlanId(0), PlanId(2)),
            Transition {
                from: PlanId(0),
                to: PlanId(2),
                trigger: NodeId(1),
                migrations: vec![btr_model::Migration {
                    atask: ATask::Work {
                        task: btr_model::TaskId(0),
                        replica: 0,
                    },
                    from: Some(NodeId(1)),
                    to: NodeId(2),
                    state_bytes: 512,
                }],
                bound: ms(25),
            },
        );
        Strategy {
            f: 2,
            r_bound: ms(100),
            period: ms(10),
            plans: vec![
                mk(0, &[]),
                mk(1, &[0]),
                mk(2, &[1]),
                mk(3, &[2]),
                mk(4, &[0, 1]),
            ],
            index,
            transitions,
        }
    }

    #[test]
    fn fault_triggers_aligned_switch() {
        let s = strategy();
        let mut m = ModeSwitcher::new(NodeId(2), &s);
        assert_eq!(m.current_plan(), PlanId(0));
        let action = m.add_fault(&s, Time(3_000), Time(3_000), NodeId(1));
        match action {
            SwitchAction::Begin {
                to, activate_at, ..
            } => {
                assert_eq!(to, PlanId(2));
                // 3 ms + 25 ms bound = 28 ms, aligned up to 30 ms.
                assert_eq!(activate_at, Time::from_millis(30));
            }
            other => panic!("expected Begin, got {other:?}"),
        }
        // Not yet active.
        assert_eq!(m.poll(Time::from_millis(29)), None);
        assert_eq!(m.poll(Time::from_millis(30)), Some(PlanId(2)));
        assert_eq!(m.current_plan(), PlanId(2));
        assert_eq!(m.switch_count(), 1);
    }

    #[test]
    fn duplicate_fault_is_noop() {
        let s = strategy();
        let mut m = ModeSwitcher::new(NodeId(2), &s);
        assert!(matches!(
            m.add_fault(&s, Time(0), Time(0), NodeId(1)),
            SwitchAction::Begin { .. }
        ));
        assert_eq!(
            m.add_fault(&s, Time(100), Time(100), NodeId(1)),
            SwitchAction::None
        );
    }

    #[test]
    fn second_fault_supersedes_pending() {
        let s = strategy();
        let mut m = ModeSwitcher::new(NodeId(2), &s);
        m.add_fault(&s, Time(0), Time(0), NodeId(1));
        let action = m.add_fault(&s, Time(1_000), Time(1_000), NodeId(0));
        match action {
            SwitchAction::Begin { to, .. } => assert_eq!(to, PlanId(4)),
            other => panic!("expected Begin, got {other:?}"),
        }
        // Only the superseding switch fires.
        let activated = m.poll(Time::from_millis(100));
        assert_eq!(activated, Some(PlanId(4)));
        assert_eq!(m.switch_count(), 1);
    }

    #[test]
    fn transfers_only_for_tasks_this_node_loses() {
        let s = strategy();
        // Node 1 hosts the migrating task in the transition metadata.
        let mut m = ModeSwitcher::new(NodeId(1), &s);
        match m.add_fault(&s, Time(0), Time(0), NodeId(1)) {
            SwitchAction::Begin { transfers, .. } => {
                assert_eq!(transfers.len(), 1);
                assert_eq!(transfers[0].to, NodeId(2));
                assert_eq!(transfers[0].bytes, 512);
            }
            other => panic!("{other:?}"),
        }
        // A bystander node owes nothing.
        let mut m = ModeSwitcher::new(NodeId(0), &s);
        match m.add_fault(&s, Time(0), Time(0), NodeId(1)) {
            SwitchAction::Begin { transfers, .. } => assert!(transfers.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn beyond_budget_falls_back_to_subset_plan() {
        let s = strategy();
        let mut m = ModeSwitcher::new(NodeId(3), &s);
        m.add_fault(&s, Time(0), Time(0), NodeId(0));
        m.add_fault(&s, Time(0), Time(0), NodeId(1));
        m.poll(Time::from_millis(1_000));
        assert_eq!(m.current_plan(), PlanId(4));
        // Third fault: {n0,n1,n2} not indexed; falls back to the largest
        // indexed subset {n0,n1}.
        let action = m.add_fault(
            &s,
            Time::from_millis(1_000),
            Time::from_millis(1_000),
            NodeId(2),
        );
        assert_eq!(action, SwitchAction::None);
        assert_eq!(m.current_plan(), PlanId(4));
        assert_eq!(m.fault_set().len(), 3);
    }

    #[test]
    fn blackout_spans_pending_and_settle_window() {
        let s = strategy();
        let mut m = ModeSwitcher::new(NodeId(2), &s);
        let settle = ms(20);
        assert!(!m.in_blackout(Time(0), settle));
        m.add_fault(&s, Time(3_000), Time(3_000), NodeId(1));
        // Pending: blackout regardless of time.
        assert!(m.in_blackout(Time(5_000), settle));
        assert_eq!(m.poll(Time::from_millis(30)), Some(PlanId(2)));
        assert_eq!(m.last_activated, Some(Time::from_millis(30)));
        // Settling: blackout for `settle` after activation, then clear.
        assert!(m.in_blackout(Time::from_millis(49), settle));
        assert!(m.in_blackout(Time::from_millis(50), settle));
        assert!(!m.in_blackout(Time::from_millis(51), settle));
    }

    #[test]
    fn convergence_is_order_independent() {
        let s = strategy();
        let mut a = ModeSwitcher::new(NodeId(3), &s);
        let mut b = ModeSwitcher::new(NodeId(4), &s);
        a.add_fault(&s, Time(100), Time(100), NodeId(0));
        a.add_fault(&s, Time(200), Time(150), NodeId(1));
        b.add_fault(&s, Time(150), Time(150), NodeId(1));
        b.add_fault(&s, Time(250), Time(100), NodeId(0));
        a.poll(Time::from_secs(1));
        b.poll(Time::from_secs(1));
        assert_eq!(a.current_plan(), b.current_plan());
        assert_eq!(a.fault_set(), b.fault_set());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::tests_support::strategy_for_props;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Switchers fed the same faults in any order and at any times
        /// converge to the same plan once all activations fire — the
        /// Section 4.4 convergence argument, mechanically checked.
        #[test]
        fn prop_convergence_order_independent(
            mut faults in proptest::collection::vec(0u32..3, 0..4),
            times in proptest::collection::vec(0u64..50_000, 4),
        ) {
            let s = strategy_for_props();
            let mut a = ModeSwitcher::new(NodeId(7), &s);
            for (i, &f) in faults.iter().enumerate() {
                let t = Time(times[i.min(times.len() - 1)]);
                a.add_fault(&s, t, t, NodeId(f));
            }
            faults.reverse();
            let mut b = ModeSwitcher::new(NodeId(8), &s);
            for (i, &f) in faults.iter().enumerate() {
                let t = Time(times[i.min(times.len() - 1)]);
                b.add_fault(&s, t, t, NodeId(f));
            }
            a.poll(Time::from_secs(10));
            b.poll(Time::from_secs(10));
            prop_assert_eq!(a.current_plan(), b.current_plan());
            prop_assert_eq!(a.fault_set(), b.fault_set());
        }

        /// The fault set is grow-only and the activation instant is always
        /// a period boundary strictly in the future.
        #[test]
        fn prop_activation_aligned_and_future(
            f in 0u32..3,
            now in 0u64..100_000,
            reference in 0u64..100_000,
        ) {
            let s = strategy_for_props();
            let mut m = ModeSwitcher::new(NodeId(9), &s);
            let before = m.fault_set().len();
            match m.add_fault(&s, Time(now), Time(reference), NodeId(f)) {
                SwitchAction::Begin { activate_at, .. } => {
                    prop_assert_eq!(activate_at.as_micros() % s.period.as_micros(), 0);
                    prop_assert!(activate_at > Time(now));
                }
                SwitchAction::None => {}
            }
            prop_assert!(m.fault_set().len() >= before);
        }
    }
}

#[cfg(test)]
mod tests_support {
    //! Shared fixtures for the property tests.
    use btr_model::{FaultSet, NodeId, Plan, PlanId, Strategy};
    use std::collections::BTreeMap;

    /// A strategy over 3 nodes with plans for every fault set of size <= 2.
    pub(crate) fn strategy_for_props() -> Strategy {
        let mut plans = Vec::new();
        let mut index = BTreeMap::new();
        let mut sets: Vec<FaultSet> = vec![FaultSet::empty()];
        for a in 0..3u32 {
            sets.push(FaultSet::from_nodes(&[NodeId(a)]));
        }
        for a in 0..3u32 {
            for b in (a + 1)..3u32 {
                sets.push(FaultSet::from_nodes(&[NodeId(a), NodeId(b)]));
            }
        }
        for (i, fs) in sets.into_iter().enumerate() {
            let id = PlanId(i as u32);
            index.insert(fs.clone(), id);
            plans.push(Plan {
                id,
                fault_set: fs,
                placement: BTreeMap::new(),
                schedules: BTreeMap::new(),
                shed: Default::default(),
            });
        }
        Strategy {
            f: 2,
            r_bound: btr_model::Duration::from_millis(100),
            period: btr_model::Duration::from_millis(10),
            plans,
            index,
            transitions: BTreeMap::new(),
        }
    }
}
