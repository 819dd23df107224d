//! Replay tokens: a violating run, serialized into one shell-safe string.
//!
//! A token pins everything a run depends on — workload, platform, fault
//! budget, R, horizon, simulator seed, and the exact fault schedule — so
//! `harness campaign --replay <token>` reproduces the run bit-for-bit on
//! any machine. Format (order fixed, `;`-separated):
//!
//! ```text
//! w=avionics;t=bus9x100000x5;f=1;r=150000;h=700000;me=20000000;s=12345;fl=crash@52000@n3+omission@310000@n5
//! ```
//!
//! `r`, `h`, and fault activations are µs; `me` is the simulator event
//! cap the campaign ran with (0 or absent = unlimited — pinned so a
//! `Truncated` verdict reproduces); `fl` faults are
//! `variant@at_us@n<node>` joined with `+`, each node at most once
//! (empty `fl` = fault-free). Each key appears at most once, and a key
//! outside these eight is a parse error, so a token is never replayed
//! as something it does not say. The `a` key of older tokens (the
//! authenticator suite) is one of those: every run now uses HMAC-SHA-256.

use crate::grid::{CellError, CellSpec, TopoSpec, MAX_TOKEN_US};
use crate::runner::RunRecord;
use crate::schedule::{FaultSchedule, FaultVariant};
use crate::verdict::Finished;
use btr_core::{BtrSystem, FaultScenario, InjectedFault};
use btr_model::{Duration, NodeId, Time};

/// Render the canonical token for a run.
pub(crate) fn token(
    spec: &CellSpec,
    sim_seed: u64,
    horizon: Duration,
    max_events: u64,
    scenario: &FaultScenario,
) -> String {
    let faults: Vec<String> = scenario
        .faults
        .iter()
        .map(|f| {
            format!(
                "{}@{}@n{}",
                FaultVariant::of(f).label(),
                f.at.as_micros(),
                f.node.0
            )
        })
        .collect();
    format!(
        "w={};t={};f={};r={};h={};me={};s={};fl={}",
        spec.workload,
        spec.topo.token(),
        spec.f,
        spec.r_bound.as_micros(),
        horizon.as_micros(),
        max_events,
        sim_seed,
        faults.join("+")
    )
}

/// A parsed token, ready to execute.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySpec {
    /// The cell to plan.
    pub cell: CellSpec,
    /// Simulator seed.
    pub sim_seed: u64,
    /// Judging horizon.
    pub horizon: Duration,
    /// Simulator event cap the original run executed under (0 = none).
    pub max_events: u64,
    /// The fault schedule.
    pub scenario: FaultScenario,
}

/// Token parse errors, with enough context to fix the token by hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError(String);

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad replay token: {}", self.0)
    }
}

impl std::error::Error for ReplayError {}

fn field<'a>(fields: &[(&'a str, &'a str)], key: &str) -> Result<&'a str, ReplayError> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| ReplayError(format!("missing field '{key}'")))
}

fn num(fields: &[(&str, &str)], key: &str) -> Result<u64, ReplayError> {
    field(fields, key)?
        .parse()
        .map_err(|_| ReplayError(format!("field '{key}' is not a number")))
}

/// A span or instant field: positive, and within [`MAX_TOKEN_US`] — a
/// horizon of `u64::MAX` would run (or overflow its clock) forever.
fn span(fields: &[(&str, &str)], key: &str, what: &str) -> Result<u64, ReplayError> {
    match num(fields, key)? {
        0 => Err(ReplayError(format!("{what} {key} must be positive"))),
        us if us > MAX_TOKEN_US => Err(ReplayError(format!(
            "{what} {key}={us} is past the replay ceiling of {MAX_TOKEN_US} us"
        ))),
        us => Ok(us),
    }
}

/// The keys a token may carry, in rendering order.
const KEYS: [&str; 8] = ["w", "t", "f", "r", "h", "me", "s", "fl"];

/// Parse a token back into a runnable spec.
pub fn parse(tok: &str) -> Result<ReplaySpec, ReplayError> {
    let fields: Vec<(&str, &str)> = tok
        .trim()
        .split(';')
        .filter(|s| !s.is_empty())
        .map(|pair| {
            pair.split_once('=')
                .ok_or_else(|| ReplayError(format!("'{pair}' is not key=value")))
        })
        .collect::<Result<_, _>>()?;
    for (i, (key, _)) in fields.iter().enumerate() {
        if *key == "a" {
            return Err(ReplayError(
                "key 'a' (the authenticator suite) was removed; every run uses HMAC-SHA-256".into(),
            ));
        }
        if !KEYS.contains(key) {
            return Err(ReplayError(format!("unknown key '{key}'")));
        }
        if fields[..i].iter().any(|(k, _)| k == key) {
            return Err(ReplayError(format!("key '{key}' given twice")));
        }
    }

    let topo_tok = field(&fields, "t")?;
    let topo = TopoSpec::parse(topo_tok)
        .ok_or_else(|| ReplayError(format!("unparseable topology '{topo_tok}'")))?;
    // Range checks up front: a malformed token must fail with a parse
    // error here, not panic inside a workload generator or silently
    // truncate a field on its way into the planner.
    if topo.n_nodes() < 2 {
        return Err(ReplayError(format!(
            "topology '{topo_tok}' has {} node(s); workloads need at least 2",
            topo.n_nodes()
        )));
    }
    // Campaign cells top out at tens of nodes; a crafted token must not
    // be able to ask the workload generator / planner for a
    // multi-billion-node platform (allocation panic at best).
    const MAX_REPLAY_NODES: usize = 4096;
    if topo.n_nodes() > MAX_REPLAY_NODES {
        return Err(ReplayError(format!(
            "topology '{topo_tok}' has {} nodes; replay caps at {MAX_REPLAY_NODES}",
            topo.n_nodes()
        )));
    }
    let n_nodes = topo.n_nodes() as u32;
    let f = num(&fields, "f")?;
    if f == 0 || f > u8::MAX as u64 {
        return Err(ReplayError(format!(
            "fault budget f={f} out of range (1..={})",
            u8::MAX
        )));
    }
    let r = span(&fields, "r", "recovery bound")?;
    let h = span(&fields, "h", "horizon")?;

    let mut faults: Vec<InjectedFault> = Vec::new();
    let fl = field(&fields, "fl")?;
    if !fl.is_empty() {
        for part in fl.split('+') {
            let bits: Vec<&str> = part.split('@').collect();
            let [variant, at, node] = bits.as_slice() else {
                return Err(ReplayError(format!(
                    "fault '{part}' is not variant@at@node"
                )));
            };
            let variant = FaultVariant::parse(variant)
                .ok_or_else(|| ReplayError(format!("unknown variant '{variant}'")))?;
            let at: u64 = at
                .parse()
                .ok()
                .filter(|&at| at <= MAX_TOKEN_US)
                .ok_or_else(|| ReplayError(format!("bad activation '{at}'")))?;
            let node: u32 = node
                .strip_prefix('n')
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| ReplayError(format!("bad node '{node}'")))?;
            if node >= n_nodes {
                return Err(ReplayError(format!(
                    "node n{node} out of range for {} nodes",
                    n_nodes
                )));
            }
            // A node suffers its first entry only (`fault_of`): a later
            // one would be silently ignored.
            if faults.iter().any(|f| f.node == NodeId(node)) {
                return Err(ReplayError(format!("fault list names n{node} twice")));
            }
            faults.push(variant.inject(NodeId(node), Time(at)));
        }
        // Sequential-chain grammar checks (the f=3 hunting space): the
        // token models the paper's sequential adversary, so activations
        // must be non-decreasing, and the chain length is capped so a
        // crafted token cannot smuggle an unbounded fault list past the
        // budget math into the scenario machinery.
        const MAX_REPLAY_FAULTS: usize = 8;
        if faults.len() > MAX_REPLAY_FAULTS {
            return Err(ReplayError(format!(
                "{} faults in chain; replay caps at {MAX_REPLAY_FAULTS}",
                faults.len()
            )));
        }
        for w in faults.windows(2) {
            if w[1].at < w[0].at {
                return Err(ReplayError(format!(
                    "chain activations out of order: {} after {}",
                    w[1].at.as_micros(),
                    w[0].at.as_micros()
                )));
            }
        }
    }

    Ok(ReplaySpec {
        cell: CellSpec {
            workload: field(&fields, "w")?.to_string(),
            topo,
            f: f as u8,
            r_bound: Duration(r),
        },
        sim_seed: num(&fields, "s")?,
        horizon: Duration(h),
        // Older/hand-written tokens may omit the cap; absent = unlimited.
        max_events: if field(&fields, "me").is_ok() {
            num(&fields, "me")?
        } else {
            0
        },
        scenario: FaultScenario { faults },
    })
}

/// Plan and execute a replay, judged like any campaign run (zero
/// slack, grid indices zero).
pub fn run(spec: &ReplaySpec) -> Result<RunRecord, CellError> {
    let system = spec.cell.plan()?.with_max_events(spec.max_events);
    let report = system.run(&spec.scenario, spec.horizon, spec.sim_seed);
    Ok(spec.judge(&system, (&report).into()))
}

impl ReplaySpec {
    /// The record of this token's run on `system` (planned from
    /// [`ReplaySpec::cell`]), on whichever substrate `run` finished.
    pub fn judge(&self, system: &BtrSystem, run: Finished<'_>) -> RunRecord {
        let schedule = FaultSchedule {
            id: 0,
            scenario: self.scenario.clone(),
        };
        RunRecord::judge(system, &schedule, self.sim_seed, run, Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CellSpec {
        CellSpec {
            workload: "avionics".into(),
            topo: TopoSpec::Bus {
                n: 9,
                bytes_per_ms: 100_000,
                latency_us: 5,
            },
            f: 1,
            r_bound: Duration::from_millis(150),
        }
    }

    #[test]
    fn token_round_trips() {
        let scenario = FaultScenario {
            faults: vec![
                FaultVariant::EQUIVOCATION.inject(NodeId(0), Time::from_millis(52)),
                FaultVariant::COMMISSION_GARBLED.inject(NodeId(3), Time(250_001)),
            ],
        };
        let tok = token(
            &spec(),
            12345,
            Duration::from_millis(700),
            5_000_000,
            &scenario,
        );
        let parsed = parse(&tok).expect("parses");
        assert_eq!(parsed.scenario, scenario);
        assert_eq!(parsed.sim_seed, 12345);
        assert_eq!(parsed.horizon, Duration::from_millis(700));
        assert_eq!(parsed.max_events, 5_000_000);
        assert_eq!(parsed.cell.workload, "avionics");
        assert_eq!(parsed.cell.f, 1);
        assert_eq!(parsed.cell.r_bound, Duration::from_millis(150));
        // Round-trip is exact: re-rendering yields the same token.
        assert_eq!(
            token(
                &parsed.cell,
                parsed.sim_seed,
                parsed.horizon,
                parsed.max_events,
                &parsed.scenario
            ),
            tok
        );
    }

    #[test]
    fn tokens_without_event_cap_parse_as_unlimited() {
        let tok = "w=avionics;t=bus9x100000x5;f=1;r=150000;h=500000;s=7;fl=";
        let parsed = parse(tok).expect("parses");
        assert_eq!(parsed.max_events, 0);
    }

    #[test]
    fn suite_tokens_are_rejected() {
        // The suite key is gone: a token that carries it must not replay
        // under HMAC as if it said nothing.
        let base = "w=avionics;t=bus9x100000x5;f=1;r=150000;h=400000;s=9;fl=crash@52000@n2";
        for suite in ["sip", "hmac", "rot13"] {
            let err = parse(&format!("{base};a={suite}"))
                .expect_err(suite)
                .to_string();
            assert!(err.contains("'a'") && err.contains("removed"), "{err}");
        }
    }

    #[test]
    fn fault_free_token_round_trips() {
        let tok = token(
            &spec(),
            5,
            Duration::from_millis(100),
            0,
            &FaultScenario::none(),
        );
        let parsed = parse(&tok).expect("parses");
        assert!(parsed.scenario.faults.is_empty());
        assert_eq!(parsed.max_events, 0);
    }

    #[test]
    fn bad_tokens_are_rejected_with_context() {
        for (tok, needle) in [
            ("w=avionics;t=bus9x100000x5;f=1;r=1;h=1", "missing field"),
            ("w=a;t=tree3;f=1;r=1;h=1;s=1;fl=", "unparseable topology"),
            (
                "w=a;t=bus9x1x1;f=1;r=1;h=1;s=1;fl=warp@1@n0",
                "unknown variant",
            ),
            (
                "w=a;t=bus9x1x1;f=1;r=1;h=1;s=1;fl=crash@1@n99",
                "out of range",
            ),
            ("w=a;t=bus9x1x1;f=1;r=x;h=1;s=1;fl=", "not a number"),
            // Range checks: tokens that used to panic in a workload
            // generator or silently truncate must be parse errors.
            ("w=avionics;t=bus1x100x1;f=1;r=1;h=1;s=1;fl=", "at least 2"),
            (
                "w=avionics;t=bus9x1x1;f=900;r=1;h=1;s=1;fl=",
                "out of range",
            ),
            ("w=avionics;t=bus9x1x1;f=0;r=1;h=1;s=1;fl=", "out of range"),
            (
                "w=avionics;t=bus9x1x1;f=1;r=0;h=1;s=1;fl=",
                "must be positive",
            ),
            (
                "w=avionics;t=bus9x1x1;f=1;r=1;h=0;s=1;fl=",
                "must be positive",
            ),
            // Spans past an hour of simulated time: a horizon of
            // u64::MAX used to run forever.
            (
                "w=avionics;t=bus9x1x1;f=1;r=1;h=18446744073709551615;s=1;fl=",
                "past the replay ceiling",
            ),
            (
                "w=avionics;t=bus9x1x1;f=1;r=3600000001;h=1;s=1;fl=",
                "past the replay ceiling",
            ),
            (
                "w=avionics;t=bus9x1x1;f=1;r=1;h=1;s=1;fl=crash@3600000001@n1",
                "bad activation",
            ),
            ("w=avionics;t=bus9x0x1;f=1;r=1;h=1;s=1;fl=", "unparseable"),
            // Oversized platforms: crafted tokens must not reach the
            // workload generator (allocation panic) — the overflow-prone
            // torus/fattree guards parse to None, and in-range-but-huge
            // sizes hit the replay node cap.
            (
                "w=scada;t=torus4294967296x4294967297x1x1;f=1;r=1;h=1;s=1;fl=",
                "unparseable topology",
            ),
            (
                "w=scada;t=torus3000000000x3000000000x1x1;f=1;r=1;h=1;s=1;fl=",
                "unparseable topology",
            ),
            (
                "w=scada;t=fattree6000000x1x1;f=1;r=1;h=1;s=1;fl=",
                "unparseable topology",
            ),
            ("w=scada;t=bus100000x100x1;f=1;r=1;h=1;s=1;fl=", "caps at"),
            (
                "w=scada;t=torus1000x1000x100x1;f=1;r=1;h=1;s=1;fl=",
                "caps at",
            ),
            // Chain grammar: sequential activations must be ordered, and
            // the chain length is bounded.
            (
                "w=avionics;t=bus9x1x1;f=3;r=1;h=1;s=1;fl=crash@200@n1+omission@100@n2",
                "out of order",
            ),
            (
                "w=avionics;t=bus9x1x1;f=3;r=1;h=1;s=1;\
                 fl=crash@1@n0+crash@2@n1+crash@3@n2+crash@4@n3+crash@5@n4\
                 +crash@6@n5+crash@7@n6+crash@8@n7+crash@9@n8",
                "caps at",
            ),
            // A node suffers one fault (its first entry, on both
            // substrates), so a list that names it twice is malformed.
            (
                "w=avionics;t=bus9x100000x5;f=1;r=150000;h=400000;s=7;\
                 fl=commission@42000@n6+crash@60000@n6",
                "names n6 twice",
            ),
            // A key outside the eight, or one given twice, is not
            // ignored: the token would replay something it does not say.
            (
                "w=a;t=bus9x1x1;f=1;r=1;h=1;s=1;fl=;zz=1",
                "unknown key 'zz'",
            ),
            ("w=a;t=bus9x1x1;f=1;r=1;h=1;s=1;fl=;S=1", "unknown key 'S'"),
            (
                "w=a;t=bus9x1x1;f=1;r=1;h=1;s=1;fl=;s=2",
                "key 's' given twice",
            ),
            (
                "me=0;w=a;t=bus9x1x1;f=1;r=1;h=1;s=1;me=5;fl=",
                "key 'me' given twice",
            ),
            (
                "w=a;t=bus9x1x1;f=1;r=1;h=1;s=1;fl=;fl=crash@1@n0",
                "key 'fl' given twice",
            ),
        ] {
            let err = parse(tok).expect_err(tok).to_string();
            assert!(err.contains(needle), "{tok}: {err}");
        }
    }

    #[test]
    fn f3_chain_tokens_round_trip_byte_identically() {
        // The fuzzer's hunting regime: three sequential faults on
        // distinct victims, rendered and re-parsed bit-for-bit.
        let mut cell = spec();
        cell.f = 3;
        let scenario = FaultScenario {
            faults: vec![
                FaultVariant::CRASH.inject(NodeId(2), Time::from_millis(52)),
                FaultVariant::OMISSION_STEALTH.inject(NodeId(5), Time::from_millis(260)),
                FaultVariant::COMMISSION_GARBLED.inject(NodeId(7), Time::from_millis(470)),
            ],
        };
        let tok = token(&cell, 99, Duration::from_millis(900), 20_000_000, &scenario);
        let parsed = parse(&tok).expect("parses");
        assert_eq!(parsed.scenario, scenario);
        assert_eq!(parsed.cell.f, 3);
        assert_eq!(
            token(
                &parsed.cell,
                parsed.sim_seed,
                parsed.horizon,
                parsed.max_events,
                &parsed.scenario
            ),
            tok
        );
        // Equal activations are legal (simultaneity is not disorder).
        let tied = "w=avionics;t=bus9x1x1;f=2;r=1;h=1;s=1;fl=crash@100@n1+omission@100@n2";
        assert!(parse(tied).is_ok());
    }

    #[test]
    fn fixed_equivocation_gap_replays_clean() {
        // This token is PR 2's first campaign finding; the detector fix
        // (checker echo) closed it, and the regression suite in
        // tests/regressions.rs pins it. Replay must agree: no violations,
        // deterministically.
        let scenario = FaultScenario {
            faults: vec![FaultVariant::EQUIVOCATION.inject(NodeId(0), Time::from_millis(52))],
        };
        let tok = token(
            &spec(),
            7,
            Duration::from_millis(500),
            20_000_000,
            &scenario,
        );
        let a = run(&parse(&tok).unwrap()).expect("replays");
        let b = run(&parse(&tok).unwrap()).expect("replays");
        assert!(
            a.violations.is_empty(),
            "fixed gap fired again: {:?}",
            a.violations
        );
        assert_eq!(a.violations, b.violations, "replay is deterministic");
        assert_eq!(a.recovery_us, b.recovery_us);
    }

    #[test]
    fn replay_reproduces_violations_deterministically() {
        // An inadmissible double-crash at f = 1 exceeds what the strategy
        // covers, so the violation machinery still has a live path
        // through replay: same token, same verdicts, every time.
        let scenario = FaultScenario {
            faults: vec![
                FaultVariant::CRASH.inject(NodeId(0), Time::from_millis(52)),
                FaultVariant::CRASH.inject(NodeId(1), Time::from_millis(252)),
            ],
        };
        let tok = token(
            &spec(),
            7,
            Duration::from_millis(500),
            20_000_000,
            &scenario,
        );
        let a = run(&parse(&tok).unwrap()).expect("replays");
        let b = run(&parse(&tok).unwrap()).expect("replays");
        assert!(
            !a.violations.is_empty(),
            "double crash of both pinned sensor hosts at f=1 must violate"
        );
        assert_eq!(a.violations, b.violations, "replay is deterministic");
        assert_eq!(a.recovery_us, b.recovery_us);
    }
}
