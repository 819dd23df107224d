//! Every baseline scheme's `RunReport`, frozen.
//!
//! The four schemes share one period engine, and E1 and E2 read their
//! reports. These constants pin each report whole — a digest of its
//! `Debug` rendering (verdicts, recovery, survival, simulator counters)
//! — for every scheme under no fault, a crash, a commission and an
//! omission, at f = 1 and f = 2, on the 9-node avionics bus E1 and E2
//! run on. An engine refactor must leave every constant untouched.
//!
//! To regenerate after an *intended* behaviour change:
//! `GOLDEN_PRINT=1 cargo test -p btr-baselines --test pins -- --nocapture`.

use btr_baselines::{Baseline, BaselineSystem};
use btr_core::{FaultScenario, RunReport};
use btr_model::{Duration, FaultKind, NodeId, Time, Topology};
use btr_sched::SchedParams;

/// FNV-1a, 64 bit: a digest with a fixed definition (std's hashers
/// promise no stability across releases).
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const SCHEMES: [Baseline; 4] = [
    Baseline::BftMask,
    Baseline::PbftLite,
    Baseline::Zz,
    Baseline::SelfStab,
];

fn system(b: Baseline, f: u8) -> BaselineSystem {
    let w = btr_workload::generators::avionics(9);
    let topo = Topology::bus(9, 200_000, Duration(5));
    BaselineSystem::plan(b, w, topo, f, &SchedParams::default()).expect("plannable")
}

/// (scheme, fault, f) → FNV-1a of the report's `Debug`.
const PINS: [(&str, &str, u8, u64); 32] = [
    ("BFT-mask(2f+1)", "none", 1, 0xc81de25648fb5c8a),
    ("BFT-mask(2f+1)", "crash", 1, 0x3d2b83564259157e),
    ("BFT-mask(2f+1)", "commission", 1, 0x460e107f0965ba84),
    ("BFT-mask(2f+1)", "omission", 1, 0xd3bb5cd17a634b3c),
    ("BFT-mask(2f+1)", "none", 2, 0x90e3cc5ce5a6a13a),
    ("BFT-mask(2f+1)", "crash", 2, 0xbc0655242d428799),
    ("BFT-mask(2f+1)", "commission", 2, 0xb0f8b9e361185520),
    ("BFT-mask(2f+1)", "omission", 2, 0xb9b1e83b2ad2093d),
    ("PBFT-lite(3f+1)", "none", 1, 0x9bf73ba05123bdf2),
    ("PBFT-lite(3f+1)", "crash", 1, 0x7aa87b61a876cf05),
    ("PBFT-lite(3f+1)", "commission", 1, 0x517be1d73db0b21c),
    ("PBFT-lite(3f+1)", "omission", 1, 0x798b2e59662f1b67),
    ("PBFT-lite(3f+1)", "none", 2, 0xc6db148177ca8582),
    ("PBFT-lite(3f+1)", "crash", 2, 0xa99b8374429f418b),
    ("PBFT-lite(3f+1)", "commission", 2, 0xcf6e264aee8f60ec),
    ("PBFT-lite(3f+1)", "omission", 2, 0xff52d3fe8c4be938),
    ("ZZ(f+1+f)", "none", 1, 0xb9893b58eebdf85d),
    ("ZZ(f+1+f)", "crash", 1, 0x33a3a2758a67ca14),
    ("ZZ(f+1+f)", "commission", 1, 0xaf30e4eb788e84ad),
    ("ZZ(f+1+f)", "omission", 1, 0x6e9d8fd41681007b),
    ("ZZ(f+1+f)", "none", 2, 0xbaff0209a2441e71),
    ("ZZ(f+1+f)", "crash", 2, 0x1d6ffeae0267c016),
    ("ZZ(f+1+f)", "commission", 2, 0x680df669061dd996),
    ("ZZ(f+1+f)", "omission", 2, 0xd105bc0178ad9a50),
    ("self-stab(1)", "none", 1, 0x053b2bad9810cf82),
    ("self-stab(1)", "crash", 1, 0x6006929ffe4eec45),
    ("self-stab(1)", "commission", 1, 0x4ba6bc4c8b58ff8d),
    ("self-stab(1)", "omission", 1, 0x209e2a177011213f),
    ("self-stab(1)", "none", 2, 0x053b2bad9810cf82),
    ("self-stab(1)", "crash", 2, 0x6006929ffe4eec45),
    ("self-stab(1)", "commission", 2, 0x4ba6bc4c8b58ff8d),
    ("self-stab(1)", "omission", 2, 0x209e2a177011213f),
];

#[test]
fn every_scheme_report_is_pinned() {
    let mut got = Vec::new();
    for b in SCHEMES {
        for f in [1u8, 2] {
            let sys = system(b, f);
            for fault in [
                None,
                Some(FaultKind::Crash),
                Some(FaultKind::Commission),
                Some(FaultKind::Omission),
            ] {
                let scenario = fault.map_or_else(FaultScenario::none, |kind| {
                    FaultScenario::single(NodeId(1), kind, Time::from_millis(52))
                });
                let report = sys.run(&scenario, Duration::from_millis(300), 7);
                let label = fault.map_or("none", |k| k.label());
                got.push((b.label(), label, f, fnv1a(&format!("{report:?}"))));
            }
        }
    }
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        for (b, fault, f, d) in &got {
            println!("    ({b:?}, {fault:?}, {f}, {d:#018x}),");
        }
        return;
    }
    assert_eq!(got.len(), PINS.len());
    for (pin, row) in PINS.iter().zip(&got) {
        assert_eq!(pin, row, "report moved (GOLDEN_PRINT=1 prints the table)");
    }
}

/// A timing fault delays every emission of the faulty node by the
/// attack's delay, whichever scheme it runs. With each sink's host as
/// the victim in turn: from the first period that starts after the
/// activation, each of that sink's actuations lands exactly that much
/// later than fault-free, or not at all (the victim's own delayed
/// outputs can starve it of an input), and some do land.
#[test]
fn timing_fault_delays_emissions_on_every_scheme() {
    let delay = Duration::from_millis(6);
    let at = Time::from_millis(52);
    let horizon = Duration::from_millis(200);
    for b in SCHEMES {
        let sys = system(b, 1);
        let w = sys.workload();
        let times = |r: &RunReport, sink| -> Vec<(u64, Option<Time>)> {
            r.verdicts
                .iter()
                .filter(|v| v.sink == sink)
                .map(|v| (v.period, v.at))
                .collect()
        };
        let clean = sys.run(&FaultScenario::none(), horizon, 7);
        let mut delayed = 0;
        for sink in w.sinks() {
            let host = sink.kind.pinned_node().expect("sinks are pinned");
            let late = sys.run(
                &FaultScenario::single(host, FaultKind::Timing, at),
                horizon,
                7,
            );
            for ((p, clean_at), (_, late_at)) in times(&clean, sink.id)
                .into_iter()
                .zip(times(&late, sink.id))
            {
                let clean_at = clean_at.expect("fault-free actuation");
                if Time(p * w.period.as_micros()) >= at {
                    if late_at.is_some() {
                        assert_eq!(late_at, Some(clean_at + delay), "{}: {p}", b.label());
                        delayed += 1;
                    }
                } else if clean_at < at {
                    assert_eq!(late_at, Some(clean_at), "{}: {p}", b.label());
                }
            }
        }
        assert!(delayed > 0, "{}: no actuation after the fault", b.label());
    }
}
