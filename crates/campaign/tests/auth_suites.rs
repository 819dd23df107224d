//! The campaign-level cross-suite differential oracle.
//!
//! Authenticator tags travel in a fixed-size wire field and nothing
//! downstream of verification reads tag bytes, so a campaign cell run
//! under the HMAC and SipHash suites must produce byte-identical
//! verdicts: same records, same `runs_digest`, same replay behaviour.
//! These tests pin that contract end to end (schedule generation →
//! parallel runner → oracle scoring → report digest), which is what lets
//! `harness campaign --auth sip` stand in for the default suite in
//! perf-sensitive sweeps.

use btr_campaign::report::runs_digest;
use btr_campaign::runner::{execute, plan_cells};
use btr_campaign::schedule::FaultVariant;
use btr_campaign::{replay, CampaignConfig, CellSpec, TopoSpec};
use btr_crypto::AuthSuite;
use btr_model::Duration;

/// A single-cell campaign over the avionics bus, parameterised by suite.
fn config(suite: AuthSuite) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(77, 10, 2);
    cfg.sim_seeds = 1;
    cfg.combos = true;
    cfg.cells = vec![CellSpec {
        workload: "avionics".into(),
        topo: TopoSpec::Bus {
            n: 9,
            bytes_per_ms: 100_000,
            latency_us: 5,
        },
        f: 2,
        r_bound: Duration::from_millis(150),
        auth: suite,
        variants: vec![
            FaultVariant::CRASH,
            FaultVariant::COMMISSION,
            FaultVariant::EQUIVOCATION,
            FaultVariant::OMISSION_STEALTH,
        ],
    }];
    cfg
}

#[test]
fn cross_suite_campaign_records_are_byte_identical() {
    let run = |suite: AuthSuite| {
        let cfg = config(suite);
        let cells = plan_cells(&cfg).expect("plans");
        execute(&cfg, &cells).0
    };
    let hmac = run(AuthSuite::HmacSha256);
    let sip = run(AuthSuite::SipHash24);
    assert_eq!(hmac.len(), sip.len());
    assert!(!hmac.is_empty());
    // Full record equality (labels, verdicts, recovery windows,
    // violations) and the digest CI compares across suites.
    assert_eq!(hmac, sip, "campaign records diverged across suites");
    assert_eq!(runs_digest(&hmac), runs_digest(&sip));
    // The scenario space actually exercised evidence-bearing faults.
    assert!(hmac
        .iter()
        .any(|r| r.label.contains("commission") || r.label.contains("equivocation")));
}

#[test]
fn sip_replay_token_reproduces_hmac_verdicts() {
    // The same violating schedule replayed under both suites: tokens
    // differ only in the trailing `a=sip`, verdicts not at all. (An
    // inadmissible double crash at f=1 keeps the violation path live.)
    let faults = "fl=crash@52000@n0+crash@252000@n1";
    let base = format!("w=avionics;t=bus9x100000x5;f=1;r=150000;h=500000;me=20000000;s=7;{faults}");
    let hmac = replay::run(&replay::parse(&base).expect("parses")).expect("replays");
    let sip_tok = format!("{base};a=sip");
    let sip = replay::run(&replay::parse(&sip_tok).expect("parses")).expect("replays");
    assert!(
        !hmac.violations.is_empty(),
        "double crash at f=1 must violate"
    );
    assert_eq!(hmac, sip);
}
