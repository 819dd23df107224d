//! Deterministic fault-schedule generation.
//!
//! A *schedule* is a concrete adversarial script — which nodes are
//! compromised, when, and with which manifestation — drawn from the full
//! `btr_runtime::Attack` space the fault injector can express.
//! The generator is a **pure function of its parameters and seed**: the
//! same `(params, seed, count)` always yields the same schedule set, on
//! any machine, at any thread count. Campaign reports and replay tokens
//! rely on this.
//!
//! Two phases:
//!
//! 1. **Boundary enumeration** (seed-independent): every fault variant is
//!    activated at instants straddling a period boundary and a sink
//!    deadline (`kP-1, kP, kP+1` and `kP+D-1, kP+D, kP+D+1`), because
//!    off-by-one windows in the detector or the oracle live exactly
//!    there.
//! 2. **Seeded sampling**: random schedules of 1..=f faults (optionally
//!    f+1 when `over_budget` is set) on distinct victims, with
//!    activation gaps in `[gap_min, gap_max]` — the paper's "trigger a
//!    new fault every R" sequential-adversary model.

use btr_core::{FaultMods, FaultScenario, InjectedFault};
use btr_model::{Duration, FaultKind, NodeId, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// One concrete attack variant: a fault kind plus its sub-strategy.
///
/// This is the campaign's unit of fault-space coverage. `Babble` is
/// deliberately absent: the paper's claim for babbling is *containment*
/// by link guardians (a bandwidth argument), not bounded-time recovery,
/// so it is not judged against R.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultVariant {
    /// The fault family.
    pub(crate) kind: FaultKind,
    /// Refinements within the family.
    pub(crate) mods: FaultMods,
}

const NO_MODS: FaultMods = FaultMods {
    garble_commitment: false,
    drop_heartbeats: false,
};

impl FaultVariant {
    /// Crash (fail-stop).
    pub const CRASH: FaultVariant = FaultVariant {
        kind: FaultKind::Crash,
        mods: NO_MODS,
    };
    /// Output omission, heartbeats kept (distinguishable from a crash).
    pub(crate) const OMISSION: FaultVariant = FaultVariant {
        kind: FaultKind::Omission,
        mods: NO_MODS,
    };
    /// Omission of outputs *and* heartbeats (masquerades as a crash).
    pub const OMISSION_STEALTH: FaultVariant = FaultVariant {
        kind: FaultKind::Omission,
        mods: FaultMods {
            garble_commitment: false,
            drop_heartbeats: true,
        },
    };
    /// Wrong values with honest commitments (caught by re-execution).
    pub const COMMISSION: FaultVariant = FaultVariant {
        kind: FaultKind::Commission,
        mods: NO_MODS,
    };
    /// Wrong values with garbled commitments (caught via `BadWitness`).
    pub(crate) const COMMISSION_GARBLED: FaultVariant = FaultVariant {
        kind: FaultKind::Commission,
        mods: FaultMods {
            garble_commitment: true,
            drop_heartbeats: false,
        },
    };
    /// Right values at the wrong time.
    pub(crate) const TIMING: FaultVariant = FaultVariant {
        kind: FaultKind::Timing,
        mods: NO_MODS,
    };
    /// Conflicting signed outputs to different consumers.
    pub const EQUIVOCATION: FaultVariant = FaultVariant {
        kind: FaultKind::Equivocation,
        mods: NO_MODS,
    };
    /// Bogus-evidence flooding of the verifiers.
    pub(crate) const EVIDENCE_SPAM: FaultVariant = FaultVariant {
        kind: FaultKind::EvidenceSpam,
        mods: NO_MODS,
    };

    /// Every variant the campaign can schedule, in stable order.
    pub const ALL: [FaultVariant; 8] = [
        FaultVariant::CRASH,
        FaultVariant::OMISSION,
        FaultVariant::OMISSION_STEALTH,
        FaultVariant::COMMISSION,
        FaultVariant::COMMISSION_GARBLED,
        FaultVariant::TIMING,
        FaultVariant::EQUIVOCATION,
        FaultVariant::EVIDENCE_SPAM,
    ];

    /// Stable label, also the replay-token spelling.
    pub(crate) fn label(&self) -> &'static str {
        match (
            self.kind,
            self.mods.garble_commitment,
            self.mods.drop_heartbeats,
        ) {
            (FaultKind::Crash, ..) => "crash",
            (FaultKind::Omission, _, true) => "omission-stealth",
            (FaultKind::Omission, ..) => "omission",
            (FaultKind::Commission, true, _) => "commission-garbled",
            (FaultKind::Commission, ..) => "commission",
            (FaultKind::Timing, ..) => "timing",
            (FaultKind::Equivocation, ..) => "equivocation",
            (FaultKind::EvidenceSpam, ..) => "evidence-spam",
            (FaultKind::Babble, ..) => "babble",
        }
    }

    /// Parse a replay-token spelling back into a variant.
    pub(crate) fn parse(s: &str) -> Option<FaultVariant> {
        FaultVariant::ALL.into_iter().find(|v| v.label() == s)
    }

    /// The injected fault this variant produces on `node` at `at`.
    pub fn inject(&self, node: NodeId, at: Time) -> InjectedFault {
        InjectedFault::new(node, self.kind, at).with_mods(self.mods)
    }

    /// The variant of an injected fault (labels round-trip through this).
    pub(crate) fn of(fault: &InjectedFault) -> FaultVariant {
        // Normalize mods to the ones the kind actually consumes, so label
        // and equality are canonical.
        let mods = match fault.kind {
            FaultKind::Omission => FaultMods {
                garble_commitment: false,
                drop_heartbeats: fault.mods.drop_heartbeats,
            },
            FaultKind::Commission => FaultMods {
                garble_commitment: fault.mods.garble_commitment,
                drop_heartbeats: false,
            },
            _ => NO_MODS,
        };
        FaultVariant {
            kind: fault.kind,
            mods,
        }
    }
}

impl std::fmt::Display for FaultVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Generator parameters (fixed per campaign cell).
#[derive(Debug, Clone)]
pub struct ScheduleParams {
    /// Number of platform nodes (victims are drawn from 0..n).
    pub n_nodes: u32,
    /// Fault budget f of the cell's strategy.
    pub f: u8,
    /// The system period P.
    pub period: Duration,
    /// A representative sink deadline (boundary enumeration straddles it).
    pub deadline: Duration,
    /// Earliest activation (leave startup transients alone).
    pub first_at: Time,
    /// Latest activation of a schedule's *first* fault.
    pub last_at: Time,
    /// Activation gap range for sequential multi-fault schedules.
    pub gap: (Duration, Duration),
    /// The fault variants this cell schedules.
    pub variants: Vec<FaultVariant>,
    /// Sample sequential multi-fault schedules up to budget f. Off by
    /// default: the sequential space is a hunting ground (the campaign
    /// found false-attribution cascades there — see EXPERIMENTS.md
    /// campaign findings), so CI's zero-violation gate covers singles.
    pub combos: bool,
    /// Also emit schedules with f+1 distinct victims (inadmissible by
    /// construction — they exceed what the strategy covers and are
    /// expected to violate the bound; the shrinker triages them).
    pub over_budget: bool,
}

impl ScheduleParams {
    /// The maximum number of faults a generated schedule can contain.
    pub fn max_faults(&self) -> u32 {
        if self.over_budget {
            self.f as u32 + 1
        } else if self.combos {
            self.f as u32
        } else {
            1
        }
    }
}

/// One generated schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Dense id within the cell's schedule set (stable across runs).
    pub id: u32,
    /// The adversarial script, faults ordered by activation time.
    pub scenario: FaultScenario,
}

impl FaultSchedule {
    /// Kind signature in activation order, e.g. `crash+omission`.
    pub(crate) fn label(&self) -> String {
        let mut s = String::new();
        for (i, f) in self.scenario.faults.iter().enumerate() {
            if i > 0 {
                s.push('+');
            }
            s.push_str(FaultVariant::of(f).label());
        }
        if s.is_empty() {
            s.push_str("fault-free");
        }
        s
    }

    /// Number of distinct compromised nodes.
    pub fn budget(&self) -> usize {
        self.scenario.compromised().len()
    }
}

/// Generate `count` schedules. Pure function of `(params, seed, count)`.
pub fn generate(params: &ScheduleParams, seed: u64, count: usize) -> Vec<FaultSchedule> {
    assert!(params.n_nodes > 0, "need at least one node");
    assert!(!params.variants.is_empty(), "need at least one variant");
    // Grown as filled: `count` comes from a command line.
    let mut out = Vec::new();

    // Phase 1: boundary enumeration, up to half the requested schedules.
    let boundary = boundary_schedules(params);
    let quota = boundary.len().min(count.div_ceil(2));
    for i in 0..quota {
        // Spread evenly over the full boundary set when truncating, so a
        // small campaign still touches every variant.
        let pick = i * boundary.len() / quota.max(1);
        out.push(boundary[pick].clone());
    }

    // Phase 2: seeded sampling for the remainder.
    let mut rng = SmallRng::seed_from_u64(seed);
    while out.len() < count {
        out.push(sample_schedule(params, &mut rng));
    }

    for (i, s) in out.iter_mut().enumerate() {
        s.id = i as u32;
    }
    out
}

/// The full boundary-enumeration set: every variant activated at instants
/// straddling a period boundary and a sink deadline.
fn boundary_schedules(params: &ScheduleParams) -> Vec<FaultSchedule> {
    let p = params.period.as_micros();
    let d = params.deadline.as_micros().min(p.saturating_sub(1));
    // First whole period at or after `first_at`, plus one for margin.
    let k = params.first_at.as_micros().div_ceil(p) + 1;
    let base = k * p;
    let instants = [
        base - 1,
        base,
        base + 1,
        base + d - 1,
        base + d,
        base + d + 1,
    ];
    let mut out = Vec::new();
    for (iv, v) in params.variants.iter().enumerate() {
        for (it, &t) in instants.iter().enumerate() {
            // Rotate victims so one node is not the only one probed.
            let victim = NodeId(((iv + it) % params.n_nodes as usize) as u32);
            out.push(FaultSchedule {
                id: 0, // renumbered by `generate`
                scenario: FaultScenario {
                    faults: vec![v.inject(victim, Time(t))],
                },
            });
        }
    }
    out
}

/// Draw one random schedule: single faults by default, 1..=f sequential
/// faults with `combos`, and f+1 faults on a fixed cadence when
/// over-budget is enabled. Victims are distinct.
fn sample_schedule(params: &ScheduleParams, rng: &mut SmallRng) -> FaultSchedule {
    let budget_cap = (params.f as u32).min(params.n_nodes).max(1);
    let max_admissible = if params.combos { budget_cap } else { 1 };
    let over = params.over_budget && params.n_nodes > budget_cap && rng.gen_range(0u32..4) == 0;
    let n_faults = if over {
        budget_cap + 1
    } else if max_admissible == 1 {
        1
    } else {
        rng.gen_range(1..=max_admissible)
    };

    // Distinct victims via partial Fisher-Yates over the node ids.
    let mut pool: Vec<u32> = (0..params.n_nodes).collect();
    let mut victims = Vec::with_capacity(n_faults as usize);
    for _ in 0..n_faults {
        let j = rng.gen_range(0..pool.len());
        victims.push(pool.swap_remove(j));
    }

    let first_span = params
        .last_at
        .as_micros()
        .saturating_sub(params.first_at.as_micros())
        .max(1);
    let mut at = params.first_at.as_micros() + rng.gen_range(0..first_span);
    let mut faults = Vec::with_capacity(n_faults as usize);
    for (i, &victim) in victims.iter().enumerate() {
        if i > 0 {
            let (lo, hi) = (params.gap.0.as_micros(), params.gap.1.as_micros());
            at += if hi > lo { rng.gen_range(lo..=hi) } else { lo };
        }
        let v = params.variants[rng.gen_range(0..params.variants.len())];
        faults.push(v.inject(NodeId(victim), Time(at)));
    }
    FaultSchedule {
        id: 0,
        scenario: FaultScenario { faults },
    }
}

/// Number of seeded mutation operators `mutate` dispatches over.
pub(crate) const MUTATION_OPS: u32 = 4;

/// Mutate a schedule with one seeded operator. Pure function of
/// `(params, sched, seed)` — the fuzzer's byte-identical-at-any-thread-
/// count contract rests on this purity.
///
/// Operators (dispatched by the seed, with deterministic fallback to the
/// next one when the drawn operator is inapplicable):
///
/// 1. **Shift** one activation onto a nearby period/deadline boundary
///    instant (`kP±1`, `kP+D±1`) — off-by-one windows live there.
/// 2. **Swap** one victim for a node the schedule does not already use.
/// 3. **Toggle** the variant: flip `FaultMods` counterparts
///    (omission↔stealth, commission↔garbled) or rotate within the
///    cell's variant list.
/// 4. **Extend** the chain with one sequential fault after the last
///    (gap drawn from `params.gap`, distinct victim). The new round's
///    behaviour is enumerated round-robin as the mutation seed advances
///    — tofn's per-round malicious-behaviour enumeration style — so
///    successive extensions of one corpus entry sweep every variant.
///    Capped at the admissible budget `f`: mutants never leave the
///    gated space.
///
/// Faults stay sorted by activation instant; the returned schedule has
/// `id == 0` (the corpus renumbers).
pub fn mutate(params: &ScheduleParams, sched: &FaultSchedule, seed: u64) -> FaultSchedule {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut faults = sched.scenario.faults.clone();
    let n = faults.len();
    let used: BTreeSet<u32> = faults.iter().map(|f| f.node.0).collect();
    let chain_cap = (params.f as u32).min(params.n_nodes).max(1) as usize;
    let mut op = rng.gen_range(0..MUTATION_OPS);
    for _ in 0..MUTATION_OPS {
        match op {
            0 if n > 0 => {
                let i = rng.gen_range(0..n);
                let instants = boundary_instants(params, faults[i].at);
                faults[i].at = Time(instants[rng.gen_range(0..instants.len())]);
                break;
            }
            1 if n > 0 && (params.n_nodes as usize) > used.len() => {
                let i = rng.gen_range(0..n);
                let free: Vec<u32> = (0..params.n_nodes).filter(|v| !used.contains(v)).collect();
                faults[i].node = NodeId(free[rng.gen_range(0..free.len())]);
                break;
            }
            2 if n > 0 => {
                let i = rng.gen_range(0..n);
                let next = toggle_variant(FaultVariant::of(&faults[i]), &params.variants);
                faults[i] = next.inject(faults[i].node, faults[i].at);
                break;
            }
            3 if used.len() < chain_cap && (params.n_nodes as usize) > used.len() => {
                let at = match faults.last() {
                    Some(last) => {
                        let (lo, hi) = (params.gap.0.as_micros(), params.gap.1.as_micros());
                        last.at.as_micros() + if hi > lo { rng.gen_range(lo..=hi) } else { lo }
                    }
                    None => {
                        let span = params
                            .last_at
                            .as_micros()
                            .saturating_sub(params.first_at.as_micros())
                            .max(1);
                        params.first_at.as_micros() + rng.gen_range(0..span)
                    }
                };
                let free: Vec<u32> = (0..params.n_nodes).filter(|v| !used.contains(v)).collect();
                let victim = free[rng.gen_range(0..free.len())];
                let vi = (seed as usize).wrapping_add(faults.len()) % params.variants.len();
                faults.push(params.variants[vi].inject(NodeId(victim), Time(at)));
                break;
            }
            _ => op = (op + 1) % MUTATION_OPS,
        }
    }
    faults.sort_by_key(|f| (f.at, f.node.0));
    FaultSchedule {
        id: 0,
        scenario: FaultScenario { faults },
    }
}

/// Period/deadline boundary instants near `at` (the enclosing and next
/// period), clipped to the cell's earliest admissible activation.
fn boundary_instants(params: &ScheduleParams, at: Time) -> Vec<u64> {
    let p = params.period.as_micros();
    let d = params.deadline.as_micros().min(p.saturating_sub(1));
    let k = (at.as_micros() / p).max(1);
    let mut out = Vec::with_capacity(12);
    for base in [k * p, (k + 1) * p] {
        for t in [
            base - 1,
            base,
            base + 1,
            base + d - 1,
            base + d,
            base + d + 1,
        ] {
            if t >= params.first_at.as_micros() {
                out.push(t);
            }
        }
    }
    if out.is_empty() {
        out.push(at.as_micros().max(params.first_at.as_micros()));
    }
    out
}

/// The toggled counterpart of a variant: its `FaultMods` flip when the
/// kind has one and the cell schedules it, else the next variant in the
/// cell's list.
fn toggle_variant(v: FaultVariant, variants: &[FaultVariant]) -> FaultVariant {
    let flipped = if v == FaultVariant::OMISSION {
        FaultVariant::OMISSION_STEALTH
    } else if v == FaultVariant::OMISSION_STEALTH {
        FaultVariant::OMISSION
    } else if v == FaultVariant::COMMISSION {
        FaultVariant::COMMISSION_GARBLED
    } else if v == FaultVariant::COMMISSION_GARBLED {
        FaultVariant::COMMISSION
    } else {
        v
    };
    if flipped != v && variants.contains(&flipped) {
        return flipped;
    }
    let i = variants.iter().position(|&x| x == v).unwrap_or(0);
    variants[(i + 1) % variants.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ScheduleParams {
        ScheduleParams {
            n_nodes: 9,
            f: 2,
            period: Duration::from_millis(10),
            deadline: Duration::from_millis(8),
            first_at: Time::from_millis(40),
            last_at: Time::from_millis(240),
            gap: (Duration::from_millis(150), Duration::from_millis(250)),
            variants: FaultVariant::ALL.to_vec(),
            combos: true,
            over_budget: false,
        }
    }

    #[test]
    fn variant_labels_round_trip() {
        for v in FaultVariant::ALL {
            assert_eq!(FaultVariant::parse(v.label()), Some(v), "{v}");
            let f = v.inject(NodeId(3), Time(100));
            assert_eq!(FaultVariant::of(&f), v, "{v}");
        }
        assert!(FaultVariant::parse("no-such-variant").is_none());
    }

    #[test]
    fn boundary_straddles_period_and_deadline() {
        let p = params();
        let set = boundary_schedules(&p);
        assert_eq!(set.len(), 6 * FaultVariant::ALL.len());
        let period_us = p.period.as_micros();
        // Every variant probes one microsecond on each side of a period
        // boundary and of a deadline.
        for v in FaultVariant::ALL {
            let times: Vec<u64> = set
                .iter()
                .filter(|s| FaultVariant::of(&s.scenario.faults[0]) == v)
                .map(|s| s.scenario.faults[0].at.as_micros())
                .collect();
            assert_eq!(times.len(), 6, "{v}");
            assert!(
                times.iter().any(|t| (t + 1) % period_us == 0),
                "{v} pre-boundary"
            );
            assert!(times.iter().any(|t| t % period_us == 0), "{v} on-boundary");
            assert!(
                times.iter().all(|&t| t >= p.first_at.as_micros()),
                "{v} too early"
            );
        }
    }

    #[test]
    fn generate_is_deterministic_and_renumbered() {
        let p = params();
        let a = generate(&p, 42, 64);
        let b = generate(&p, 42, 64);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        for (i, s) in a.iter().enumerate() {
            assert_eq!(s.id, i as u32);
        }
        let c = generate(&p, 43, 64);
        assert_ne!(a, c, "different seed must change the sampled phase");
        // The boundary phase is seed-independent.
        assert_eq!(a[..24], c[..24]);
    }

    #[test]
    fn sampled_schedules_respect_budget_and_ordering() {
        let p = params();
        for s in generate(&p, 7, 200) {
            assert!((1..=2).contains(&s.scenario.faults.len()), "budget");
            assert_eq!(s.budget(), s.scenario.faults.len(), "distinct victims");
            for w in s.scenario.faults.windows(2) {
                assert!(w[0].at <= w[1].at, "activation order");
                let gap = w[1].at.as_micros() - w[0].at.as_micros();
                assert!(gap >= p.gap.0.as_micros(), "gap too small: {gap}");
            }
            for f in &s.scenario.faults {
                assert!(f.node.0 < p.n_nodes);
                assert!(f.at >= p.first_at);
            }
        }
    }

    #[test]
    fn over_budget_emits_f_plus_one() {
        let mut p = params();
        p.over_budget = true;
        let set = generate(&p, 11, 200);
        let max = set.iter().map(|s| s.scenario.faults.len()).max().unwrap();
        assert_eq!(max, 3, "over-budget schedules carry f+1 faults");
        assert_eq!(set.iter().map(FaultSchedule::budget).max().unwrap(), 3);
        // Over-budget sampling does not require combos.
        p.combos = false;
        let set = generate(&p, 11, 200);
        let counts: std::collections::BTreeSet<usize> =
            set.iter().map(|s| s.scenario.faults.len()).collect();
        assert!(counts.contains(&1) && counts.contains(&3), "{counts:?}");
        assert!(!counts.contains(&2), "combos off: no admissible pairs");
    }

    #[test]
    fn combos_off_caps_schedules_at_one_fault() {
        let mut p = params();
        p.combos = false;
        assert_eq!(p.max_faults(), 1);
        for s in generate(&p, 5, 100) {
            assert_eq!(s.scenario.faults.len(), 1);
        }
    }

    #[test]
    fn restricted_variant_set_is_honored() {
        let mut p = params();
        p.variants = vec![FaultVariant::CRASH, FaultVariant::TIMING];
        for s in generate(&p, 3, 100) {
            for f in &s.scenario.faults {
                let v = FaultVariant::of(f);
                assert!(p.variants.contains(&v), "unexpected variant {v}");
            }
        }
    }

    #[test]
    fn mutation_is_deterministic_and_stays_admissible() {
        let p = params();
        let seeds = generate(&p, 21, 16);
        for (i, s) in seeds.iter().enumerate() {
            for k in 0..12u64 {
                let seed = (i as u64) << 8 | k;
                let a = mutate(&p, s, seed);
                let b = mutate(&p, s, seed);
                assert_eq!(a, b, "same seed must yield the same mutant");
                assert!(a.budget() <= p.f as usize, "mutant exceeded f");
                for w in a.scenario.faults.windows(2) {
                    assert!(w[0].at <= w[1].at, "activation order");
                }
                for f in &a.scenario.faults {
                    assert!(f.node.0 < p.n_nodes);
                    assert!(f.at >= p.first_at, "{:?}", f.at);
                }
            }
        }
    }

    #[test]
    fn chain_extension_reaches_f3_from_a_single_fault() {
        // The acceptance pin: a 1-fault seed schedule evolves into an
        // f=3 sequential chain through repeated extend mutations alone.
        let mut p = params();
        p.f = 3;
        let mut s = FaultSchedule {
            id: 0,
            scenario: FaultScenario {
                faults: vec![FaultVariant::CRASH.inject(NodeId(2), Time::from_millis(50))],
            },
        };
        let mut tried = 0u64;
        while s.budget() < 3 && tried < 512 {
            let next = mutate(&p, &s, tried);
            if next.budget() > s.budget() {
                s = next;
            }
            tried += 1;
        }
        assert_eq!(s.budget(), 3, "f=3 chain unreachable by mutation");
        assert_eq!(s.scenario.faults.len(), 3);
        for w in s.scenario.faults.windows(2) {
            assert!(w[1].at > w[0].at, "sequential chain must be ordered");
        }
        // The chain never grows past the budget, however long we mutate.
        for k in 0..64 {
            assert!(mutate(&p, &s, k).budget() <= 3);
        }
    }

    #[test]
    fn extension_rounds_enumerate_the_variant_space() {
        // tofn-style per-round enumeration: extending the same schedule
        // under successive seeds must sweep every variant for the new
        // round, not just resample one.
        let mut p = params();
        p.f = 3;
        let s = FaultSchedule {
            id: 0,
            scenario: FaultScenario {
                faults: vec![FaultVariant::CRASH.inject(NodeId(0), Time::from_millis(50))],
            },
        };
        let mut seen = BTreeSet::new();
        for seed in 0..256u64 {
            let m = mutate(&p, &s, seed);
            if m.scenario.faults.len() == 2 {
                seen.insert(FaultVariant::of(&m.scenario.faults[1]).label());
            }
        }
        assert_eq!(
            seen.len(),
            FaultVariant::ALL.len(),
            "extension rounds missed variants: {seen:?}"
        );
    }

    #[test]
    fn label_signature() {
        let s = FaultSchedule {
            id: 0,
            scenario: FaultScenario {
                faults: vec![
                    FaultVariant::CRASH.inject(NodeId(1), Time(1000)),
                    FaultVariant::OMISSION_STEALTH.inject(NodeId(2), Time(2000)),
                ],
            },
        };
        assert_eq!(s.label(), "crash+omission-stealth");
        assert_eq!(
            FaultSchedule {
                id: 0,
                scenario: FaultScenario::none()
            }
            .label(),
            "fault-free"
        );
    }
}
