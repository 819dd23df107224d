//! Replay-token regression suite: every R-bound gap the PR 2 campaign
//! sweep found, frozen as the exact reproducer token it was found (or
//! minimised) as. Each token pins workload, platform, f, R, horizon,
//! event cap, simulator seed, and the fault schedule, so these runs are
//! bit-for-bit reproducible on any machine — if a detector regression
//! reopens a gap, the corresponding test fires with the original
//! evidence attached.
//!
//! The four findings (see EXPERIMENTS.md "campaign findings — resolved"):
//!
//! 1. **Equivocation on the avionics bus** — a single-consumer victim
//!    never produced conflicting-signature evidence; fixed by consumers
//!    echoing accepted outputs to the task's checker.
//! 2. **Plain omission / timing on SCADA** — sparse consumer fan-in kept
//!    attribution below threshold; fixed by fan-in-aware per-suspect
//!    thresholds plus timing declarations feeding the tracker.
//! 3. **Sequential-fault false-attribution cascade** — honest declarers
//!    implicated themselves into conviction and the cluster converged on
//!    a 9-node fault set; fixed by splitting direct accusations from
//!    self-implication in the omission tracker (plus upstream-starvation
//!    gating of declarations).
//! 4. **Crash on the fusion-chain ring** — multi-hop routes through a
//!    crashed relay were never healed; fixed by the simulator's link
//!    layer rerouting around crashed relays.

use btr_campaign::{replay, RunRecord};

/// The frozen reproducer tokens, verbatim from EXPERIMENTS.md.
const FINDINGS: [(&str, &str); 4] = [
    (
        "equivocation-single-consumer-avionics",
        "w=avionics;t=bus9x100000x5;f=1;r=150000;h=500000;me=20000000;s=7;\
         fl=equivocation@52000@n0",
    ),
    (
        "scada-omission-sparse-fan-in",
        "w=scada;t=bus6x100000x10;f=1;r=400000;h=1080000;me=20000000;s=7;\
         fl=omission@100000@n2",
    ),
    (
        "sequential-false-attribution-cascade",
        "w=avionics;t=bus9x100000x5;f=2;r=150000;h=740000;me=20000000;\
         s=13679457532755275413;fl=crash@428844@n2+omission@570000@n4",
    ),
    (
        "ring-crashed-relay-rerouting",
        "w=fusion-chain;t=ring9x100000x5;f=1;r=150000;h=490000;me=20000000;s=7;\
         fl=crash@100000@n3",
    ),
];

/// Additional victims of the same findings, exercised more cheaply (one
/// replay each, no determinism double-run): the SCADA gap hit two
/// victims per variant, and the ring gap hit five of nine positions.
const SIBLING_REPRODUCERS: [&str; 3] = [
    "w=scada;t=bus6x100000x10;f=1;r=400000;h=1080000;me=20000000;s=7;\
     fl=timing@100000@n4",
    "w=fusion-chain;t=ring9x100000x5;f=1;r=150000;h=490000;me=20000000;s=7;\
     fl=crash@100000@n8",
    "w=avionics;t=bus9x100000x5;f=2;r=150000;h=740000;me=20000000;\
     s=13679457532755275413;fl=omission@377579@n5+commission@570000@n4",
];

fn replay_token(tok: &str) -> RunRecord {
    let spec = replay::parse(tok).unwrap_or_else(|e| panic!("{tok}: {e}"));
    replay::run(&spec).unwrap_or_else(|e| panic!("{tok}: {e}"))
}

fn assert_recovers(name: &str, tok: &str, report: &RunRecord) {
    assert!(
        report.violations.is_empty(),
        "{name}: regression reopened — token '{tok}' violates again: {:?} \
         (bad window {} us over {}/{} outputs)",
        report.violations,
        report.recovery_us,
        report.bad_outputs,
        report.total_outputs,
    );
    assert!(report.converged, "{name}: correct nodes diverged");
}

/// Every finding's primary reproducer recovers within R, and replaying
/// it twice is bit-for-bit identical (the whole record).
#[test]
fn campaign_findings_stay_fixed_and_deterministic() {
    for (name, tok) in FINDINGS {
        let a = replay_token(tok);
        assert_recovers(name, tok, &a);
        let b = replay_token(tok);
        assert_eq!(a, b, "{name}: the record differs");
    }
}

/// Sibling victims of the same gaps also stay fixed.
#[test]
fn sibling_reproducers_stay_fixed() {
    for tok in SIBLING_REPRODUCERS {
        let report = replay_token(tok);
        assert_recovers("sibling", tok, &report);
    }
}

/// Evidence-spam on n8 of the scada fat-tree (found while sizing the
/// benchmark's 36-node cell). While relays forwarded on their own slices,
/// the honest relays on n8's paths queued their own outputs behind its
/// flood (no guardian denied anything): outputs went missing for a 910 ms
/// window against R = 400 ms, and two of those relays (n0, n2) were
/// convicted instead of n8. A relay now forwards on the originator's slice
/// (DESIGN.md "Network model"), so the flood spends only n8's allocation:
/// no output goes bad and nobody is convicted — the record the thread
/// fleet folds to as well.
#[test]
fn scada_fattree_evidence_spam_recovers_within_r() {
    let tok = "w=scada;t=fattree4x1000000x5;f=1;r=400000;h=1080000;me=20000000;\
               s=7191089600892374487;fl=evidence-spam@169689@n8";
    let report = replay_token(tok);
    assert_recovers("scada-fattree-evidence-spam", tok, &report);
    assert_eq!((report.bad_outputs, report.convictions), (0, 0));
}

/// The primary reproducers replayed from N concurrent threads agree
/// bit-for-bit with the sequential replays: the fixes hold under the
/// same parallelism the campaign runner uses, with no hidden shared
/// state between runs.
#[test]
fn findings_replay_identically_across_threads() {
    let sequential: Vec<(u64, u32)> = FINDINGS
        .iter()
        .map(|(_, tok)| {
            let r = replay_token(tok);
            (r.recovery_us, r.bad_outputs)
        })
        .collect();
    let parallel: Vec<(u64, u32)> = std::thread::scope(|scope| {
        let handles: Vec<_> = FINDINGS
            .iter()
            .map(|(_, tok)| {
                scope.spawn(move || {
                    let r = replay_token(tok);
                    (r.recovery_us, r.bad_outputs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    assert_eq!(sequential, parallel, "parallel replays diverged");
}
