//! Delta-debugging shrinker for violating schedules.
//!
//! Given a run whose oracle verdict is non-empty, reduce the schedule to
//! a minimal reproducer along two axes, re-running the (deterministic)
//! simulation as the predicate:
//!
//! 1. **Fewest faults** — greedily drop any fault whose removal keeps
//!    the violation alive, to a local fixed point (classic ddmin with
//!    single-element granularity; schedules are ≤ f+1 faults, so the
//!    quadratic loop is cheap).
//! 2. **Latest activation** — for each surviving fault, push its
//!    activation as late as possible (1 ms granularity, bisection) while
//!    the violation persists. Late activations make reproducers fast to
//!    eyeball: everything before the activation is known-good.
//!
//! The outcome carries a replay token; `harness campaign --replay`
//! re-executes it bit-for-bit.

use crate::runner::{PlannedCell, RunRecord};
use crate::schedule::FaultSchedule;
use btr_core::FaultScenario;
use btr_model::{Duration, Time};

/// The result of shrinking one violating run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShrinkOutcome {
    /// The run that was shrunk.
    pub run_idx: u32,
    /// Faults before shrinking.
    pub faults_before: usize,
    /// Faults in the minimal reproducer.
    pub faults_after: usize,
    /// Simulation probes spent.
    pub probes: u32,
    /// The minimal violating scenario.
    pub minimal: FaultScenario,
    /// Replay token for `harness campaign --replay`.
    pub replay: String,
}

/// Shrink a violating schedule to a minimal reproducer.
///
/// `max_probes` bounds the simulation budget; when exhausted the current
/// (still-violating) scenario is returned as-is.
pub fn shrink_violation(
    cell: &PlannedCell,
    schedule: &FaultSchedule,
    sim_seed: u64,
    run_idx: u32,
    slack: Duration,
    max_probes: u32,
) -> ShrinkOutcome {
    let probes = std::cell::Cell::new(0u32);
    let violates = |scenario: &FaultScenario| -> bool {
        probes.set(probes.get() + 1);
        let probe = FaultSchedule {
            id: schedule.id,
            scenario: scenario.clone(),
        };
        let report = cell.system.run(scenario, cell.horizon, sim_seed);
        !RunRecord::judge(&cell.system, &probe, sim_seed, (&report).into(), slack)
            .violations
            .is_empty()
    };

    // The initial probe always runs (and counts), so `probes` — which is
    // part of the deterministic report — is identical in debug and
    // release builds.
    let mut current = schedule.scenario.clone();
    assert!(violates(&current), "shrinker fed a non-violating run");

    // Phase 1: fewest faults (greedy single-removal fixed point).
    loop {
        let mut reduced = false;
        let mut i = current.faults.len();
        while i > 0 && current.faults.len() > 1 && probes.get() < max_probes {
            i -= 1;
            let mut candidate = current.clone();
            candidate.faults.remove(i);
            if violates(&candidate) {
                current = candidate;
                reduced = true;
            }
        }
        if !reduced || current.faults.len() == 1 || probes.get() >= max_probes {
            break;
        }
    }

    // Phase 2: latest activation per surviving fault. The violation
    // predicate is monotone enough in practice (later activation leaves
    // less horizon for recovery to be judged); bisection maintains the
    // invariant that `lo` violates, so the result is always a valid
    // reproducer even where monotonicity fails. The fault under
    // bisection is tracked by its node (unique within a scenario —
    // re-sorting candidates by activation time moves indices around),
    // and every probed candidate is kept time-sorted so the scenario
    // that was last verified is exactly the scenario returned.
    let horizon_us = cell.horizon.as_micros();
    let r_us = cell.spec.r_bound.as_micros();
    let latest_probe = horizon_us.saturating_sub(r_us + 20_000);
    let victims: Vec<_> = current.faults.iter().map(|f| f.node).collect();
    let with_at = |base: &FaultScenario, node: btr_model::NodeId, at: u64| -> FaultScenario {
        let mut c = base.clone();
        let i = c
            .faults
            .iter()
            .position(|f| f.node == node)
            .expect("victims never change in phase 2");
        c.faults[i].at = Time(at);
        c.faults.sort_by_key(|f| f.at);
        c
    };
    for node in victims {
        let at_of = |sc: &FaultScenario| {
            sc.faults
                .iter()
                .find(|f| f.node == node)
                .expect("victims never change in phase 2")
                .at
                .as_micros()
        };
        let mut lo = at_of(&current);
        if lo >= latest_probe || probes.get() >= max_probes {
            continue;
        }
        let mut hi = latest_probe;
        {
            // Try the far end first: if it violates, skip the bisection.
            let candidate = with_at(&current, node, hi);
            if violates(&candidate) {
                current = candidate;
                continue;
            }
        }
        while hi - lo > 1_000 && probes.get() < max_probes {
            let mid = lo + (hi - lo) / 2;
            let candidate = with_at(&current, node, mid);
            if violates(&candidate) {
                lo = mid;
                current = candidate;
            } else {
                hi = mid;
            }
        }
    }

    let replay = crate::replay::token(
        &cell.spec,
        sim_seed,
        cell.horizon,
        crate::runner::MAX_EVENTS,
        &current,
    );
    ShrinkOutcome {
        run_idx,
        faults_before: schedule.scenario.faults.len(),
        faults_after: current.faults.len(),
        probes: probes.get(),
        minimal: current,
        replay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{CellSpec, TopoSpec};
    use crate::runner::{plan_cells, CampaignConfig};
    use crate::schedule::FaultVariant;
    use crate::verdict::score;
    use btr_crypto::AuthSuite;
    use btr_model::NodeId;

    /// A cell whose R is deliberately unachievable (1 ms), so any crash
    /// violates the bound — the equivocation gap the original shrink
    /// test leaned on is fixed, and a violating run now has to be
    /// constructed, not found.
    pub(crate) fn tight_r_cell() -> PlannedCell {
        let cfg = CampaignConfig {
            seed: 1,
            runs: 1,
            threads: 1,
            sim_seeds: 1,
            combos: false,
            over_budget: false,
            slack: Duration::ZERO,
            cells: vec![CellSpec {
                workload: "avionics".into(),
                topo: TopoSpec::Bus {
                    n: 9,
                    bytes_per_ms: 100_000,
                    latency_us: 5,
                },
                f: 1,
                r_bound: Duration::from_millis(1),
                auth: AuthSuite::HmacSha256,
                variants: vec![FaultVariant::CRASH],
            }],
        };
        plan_cells(&cfg).expect("plans").remove(0)
    }

    #[test]
    fn shrinks_to_single_fault_and_later_activation() {
        let cell = tight_r_cell();
        // Two faults; the node-6 crash alone already violates the 1 ms
        // bound, so the commission rider must be shed by phase 1 and the
        // crash activation pushed later by phase 2.
        let schedule = FaultSchedule {
            id: 0,
            scenario: FaultScenario {
                faults: vec![
                    FaultVariant::CRASH.inject(NodeId(6), Time::from_millis(52)),
                    FaultVariant::COMMISSION.inject(NodeId(5), Time::from_millis(250)),
                ],
            },
        };
        let seed = 7;
        let out = shrink_violation(&cell, &schedule, seed, 0, Duration::ZERO, 64);
        assert_eq!(out.faults_before, 2);
        assert_eq!(out.faults_after, 1, "minimal: {:?}", out.minimal);
        assert_eq!(out.minimal.faults[0].node, NodeId(6));
        assert!(
            out.minimal.faults[0].at > Time::from_millis(52),
            "activation should move later, got {}",
            out.minimal.faults[0].at
        );
        // The minimal reproducer still violates, deterministically.
        let report = cell.system.run(&out.minimal, cell.horizon, seed);
        let probe = FaultSchedule {
            id: 0,
            scenario: out.minimal.clone(),
        };
        assert!(!score(&cell.system, &probe, &report, Duration::ZERO).is_empty());
        assert!(out.replay.contains("crash"));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::schedule::FaultVariant;
    use crate::verdict::{score, Violation};
    use btr_model::NodeId;
    use proptest::prelude::*;

    fn kinds(cell: &PlannedCell, scenario: &FaultScenario, seed: u64) -> Vec<&'static str> {
        let probe = FaultSchedule {
            id: 0,
            scenario: scenario.clone(),
        };
        let report = cell.system.run(scenario, cell.horizon, seed);
        let mut k: Vec<&'static str> = score(&cell.system, &probe, &report, Duration::ZERO)
            .iter()
            .map(Violation::kind)
            .collect();
        k.sort_unstable();
        k.dedup();
        k
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The shrinker's contract, over random violating crash schedules
        /// on a deliberately unmeetable R: the minimal reproducer (1)
        /// still violates, (2) breaks the same claim kinds as the
        /// original, (3) is no larger, with activations moved only
        /// later, and (4) shrinking the minimal reproducer again is a
        /// fixed point — the reproducers frozen into replay tokens are
        /// stable under re-triage.
        #[test]
        fn prop_shrink_invariants(
            victims in proptest::collection::btree_set(0u32..9, 1..3),
            at_ms in 40u64..180,
            seed in 1u64..5,
        ) {
            let cell = super::tests::tight_r_cell();
            let faults: Vec<_> = victims
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    FaultVariant::CRASH
                        .inject(NodeId(v), btr_model::Time::from_millis(at_ms + 20 * i as u64))
                })
                .collect();
            let scenario = FaultScenario { faults };
            let original_kinds = kinds(&cell, &scenario, seed);
            prop_assume!(!original_kinds.is_empty());

            let schedule = FaultSchedule { id: 0, scenario: scenario.clone() };
            let out = shrink_violation(&cell, &schedule, seed, 0, Duration::ZERO, 48);

            // (1) + (2): still violating, same claim kinds.
            let shrunk_kinds = kinds(&cell, &out.minimal, seed);
            prop_assert!(!shrunk_kinds.is_empty(), "shrunk reproducer stopped violating");
            prop_assert_eq!(&shrunk_kinds, &original_kinds);

            // (3): no larger; every surviving fault only moved later.
            prop_assert!(out.faults_after <= out.faults_before);
            prop_assert_eq!(out.faults_after, out.minimal.faults.len());
            for f in &out.minimal.faults {
                let orig = scenario
                    .faults
                    .iter()
                    .find(|o| o.node == f.node)
                    .expect("shrinker never invents victims");
                prop_assert!(f.at >= orig.at, "activation moved earlier");
                prop_assert_eq!(f.kind, orig.kind);
            }

            // (4): fixed point under re-shrinking.
            let again = shrink_violation(
                &cell,
                &FaultSchedule { id: 0, scenario: out.minimal.clone() },
                seed,
                0,
                Duration::ZERO,
                48,
            );
            prop_assert_eq!(&again.minimal, &out.minimal);
            prop_assert_eq!(again.replay, out.replay);
        }
    }
}
