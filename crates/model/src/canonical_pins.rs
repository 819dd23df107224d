//! SHA-256 pins of the canonical bytes every signature in the protocol
//! covers, and the lengths and wire sizes that go with them.
//!
//! Signer and verifier lay out the same bytes through the same code, so
//! a layout that moved a field, dropped a length prefix or changed a
//! domain tag would still sign and verify: only bytes held to values
//! recorded from an independent run of the encoder notice. Each line is
//! `label length wire-size sha256-prefix` (the wire size is `-` where
//! the bytes are not an envelope's). Print fresh lines with
//! `GOLDEN_PRINT=1 cargo test -p btr-model canonical_pins -- --nocapture`;
//! a change that is not meant to alter what is signed leaves them alone.

use crate::enc;
use crate::evidence::{EvidenceRecord, SignedOutput, PREFIXED_ID_LEN};
use crate::ids::{NodeId, PlanId, TaskId};
use crate::message::{Envelope, Payload, PbftPhase};
use crate::time::Time;
use btr_crypto::{sha256, NodeKey, Signer};
use proptest::prelude::*;
use std::sync::Arc;

fn signer(i: u32) -> Signer {
    Signer::new(NodeKey::derive(11, i))
}

/// An output of task `t` signed by node `n`, with every field of a
/// width that shows byte order.
fn out(t: u32, n: u32, value: u64) -> SignedOutput {
    SignedOutput::sign(
        &signer(n),
        TaskId(t),
        (t % 3) as u8,
        0x0102_0304_0506_0708 + u64::from(t),
        value,
        0xa1a2_a3a4_a5a6_a7a8 ^ u64::from(t),
        NodeId(n),
    )
}

fn envelope_bytes(src: NodeId, sent_at: Time, payload: &Payload) -> Vec<u8> {
    let mut buf = vec![0xee; 5]; // A used scratch is cleared first.
    Envelope::write_signing_bytes(src, sent_at, payload, &mut buf);
    buf
}

fn output_id(o: &SignedOutput) -> Vec<u8> {
    let prefixed = enc::array::<PREFIXED_ID_LEN>(|f| o.put_prefixed_id(f));
    prefixed[8..].to_vec()
}

fn output_signing(o: &SignedOutput) -> Vec<u8> {
    let mut buf = Vec::new();
    SignedOutput::sign_with(
        &signer(o.producer.0),
        o.task,
        o.replica,
        o.period,
        o.value,
        o.inputs_digest,
        o.producer,
        &mut buf,
    );
    buf
}

/// The bytes a declaration's own signature covers.
fn declaration_bytes(r: &EvidenceRecord) -> Vec<u8> {
    match r {
        EvidenceRecord::PathDeclaration {
            declarer,
            from,
            to,
            task,
            period,
            ..
        } => EvidenceRecord::path_decl_bytes(*declarer, *from, *to, *task, *period).to_vec(),
        EvidenceRecord::TimingDeclaration {
            declarer,
            output,
            expected_by,
            observed_at,
            ..
        } => EvidenceRecord::timing_decl_bytes(*declarer, output, *expected_by, *observed_at)
            .to_vec(),
        EvidenceRecord::CrashSuspicion {
            declarer,
            about,
            period,
            ..
        } => EvidenceRecord::crash_decl_bytes(*declarer, *about, *period).to_vec(),
        _ => panic!("not a declaration"),
    }
}

fn records() -> Vec<(&'static str, EvidenceRecord)> {
    let witnesses = vec![out(4, 1, 11), out(5, 2, u64::MAX)];
    let accused = NodeId(3);
    let output = out(6, 3, 0xdead_beef);
    let bad_witness_payload = Payload::Output {
        output: output.clone(),
        witnesses: witnesses.clone(),
    };
    let env_sig = signer(3).sign(&envelope_bytes(accused, Time(77), &bad_witness_payload));
    vec![
        (
            "equivocation",
            EvidenceRecord::Equivocation {
                accused,
                a: out(6, 3, 1),
                b: out(6, 3, 2),
            },
        ),
        (
            "bad-computation",
            EvidenceRecord::BadComputation {
                accused,
                output: output.clone(),
                inputs: witnesses.clone(),
            },
        ),
        (
            "bad-witness",
            EvidenceRecord::BadWitness {
                accused,
                output: output.clone(),
                witnesses,
                sent_at: Time(77),
                env_sig,
            },
        ),
        (
            "path-decl",
            EvidenceRecord::declare_path(
                &signer(2),
                NodeId(2),
                NodeId(9),
                NodeId(2),
                TaskId(7),
                41,
            ),
        ),
        (
            "timing-decl",
            EvidenceRecord::declare_timing(
                &signer(4),
                NodeId(4),
                output,
                Time(1_000_000),
                Time(1_000_001),
            ),
        ),
        (
            "crash-decl",
            EvidenceRecord::declare_crash(&signer(5), NodeId(5), NodeId(0x0102_0304), 0x0a0b),
        ),
    ]
}

fn payloads() -> Vec<(String, Payload)> {
    let mut all = Vec::new();
    for n in [0, 1, 3] {
        all.push((
            format!("output/{n}"),
            Payload::Output {
                output: out(10, 3, 0x1111_2222_3333_4444),
                witnesses: (0..n).map(|i| out(11 + i, 4 + i, u64::from(i))).collect(),
            },
        ));
    }
    all.push((
        "heartbeat".into(),
        Payload::Heartbeat {
            period: 0x0102_0304_0506,
        },
    ));
    for (label, r) in records() {
        all.push((format!("evidence/{label}"), Payload::Evidence(Arc::new(r))));
    }
    all.push((
        "state-transfer".into(),
        Payload::StateTransfer {
            task: TaskId(8),
            to_plan: PlanId(0x0a0b_0c0d),
            seq: 2,
            total: 5,
            bytes: 4096,
        },
    ));
    all.push((
        "mode-ack".into(),
        Payload::ModeAck {
            plan: PlanId(3),
            activate_at: Time(0x7fff_0000_1234),
        },
    ));
    for (i, phase) in [PbftPhase::PrePrepare, PbftPhase::Prepare, PbftPhase::Commit]
        .into_iter()
        .enumerate()
    {
        all.push((
            format!("pbft/{i}"),
            Payload::Pbft {
                task: TaskId(9),
                period: 12,
                value: 0xfeed_face,
                phase,
                view: 3,
            },
        ));
    }
    all.push((
        "wake".into(),
        Payload::Wake {
            task: TaskId(2),
            period: 33,
        },
    ));
    all.push((
        "audit".into(),
        Payload::Audit {
            about: TaskId(6),
            period: 34,
            value: 99,
        },
    ));
    all.push(("control".into(), Payload::Control(0xab)));
    all
}

fn line(label: &str, bytes: &[u8], wire: Option<u32>) -> String {
    let wire = wire.map_or("-".to_string(), |w| w.to_string());
    let sha = sha256(bytes).to_hex();
    format!("{label} {} {wire} {}", bytes.len(), &sha[..16])
}

fn lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (label, p) in payloads() {
        let bytes = envelope_bytes(NodeId(0x0304), Time(0x0001_0203_0405), &p);
        let env = Envelope::new(NodeId(0x0304), NodeId(1), Time(0x0001_0203_0405), p);
        let wire = env.clone().signed(&signer(0x0304)).wire_size();
        assert_eq!(wire, env.wire_size() + 36, "{label}");
        lines.push(line(&format!("envelope/{label}"), &bytes, Some(wire)));
    }
    let o = out(12, 6, u64::MAX - 1);
    lines.push(line("output-id", &output_id(&o), None));
    lines.push(line("output-signing", &output_signing(&o), None));
    for (label, r) in records() {
        if r.convicts().is_none() {
            lines.push(line(
                &format!("signed/{label}"),
                &declaration_bytes(&r),
                None,
            ));
        }
        lines.push(format!("id/{label} {}", r.id()));
    }
    lines
}

const PINS: &[&str] = &[
    "envelope/output/0 170 194 47e29fd9d5a47fe9",
    "envelope/output/1 276 300 6e316e2ad13af315",
    "envelope/output/3 488 512 5e00e1fec6c48599",
    "envelope/heartbeat 68 92 770798514878826a",
    "envelope/evidence/equivocation 247 271 a4608b268f46eba0",
    "envelope/evidence/bad-computation 328 352 2e95b182db51e0e4",
    "envelope/evidence/bad-witness 380 404 51715db93489ba58",
    "envelope/evidence/path-decl 157 181 ab8ff4e4f2f63df1",
    "envelope/evidence/timing-decl 230 254 1398b9e1a996d36b",
    "envelope/evidence/crash-decl 149 173 8b6f8179e3a2a157",
    "envelope/state-transfer 80 4184 f2fa5f6f594d70a2",
    "envelope/mode-ack 72 96 643e04803d03097b",
    "envelope/pbft/0 85 109 3d1318dccc9fd040",
    "envelope/pbft/1 85 109 b68d1c05cac82143",
    "envelope/pbft/2 85 109 3ffefa026085d905",
    "envelope/wake 72 96 87875ffde0be242d",
    "envelope/audit 80 104 135b69835a26dcc3",
    "envelope/control 61 85 9d0cd47baed39081",
    "output-id 98 - 8d8fdbbbfffffe65",
    "output-signing 51 - 17b2ffdf00f62ab0",
    "id/equivocation evdf3f24026e86ac93",
    "id/bad-computation ev82210705110f03a0",
    "id/bad-witness ev4e79d3c4eb63a8df",
    "signed/path-decl 45 - 0ae92c405b1e7806",
    "id/path-decl ev7fe3b63c4426db8c",
    "signed/timing-decl 149 - 0895335945f87734",
    "id/timing-decl ev54e607dba50ca5c5",
    "signed/crash-decl 38 - 9a7ff95b7eabd9fc",
    "id/crash-decl evd612b907a24523a4",
];

#[test]
fn canonical_bytes_are_pinned() {
    let got = lines();
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        for l in &got {
            println!("    \"{l}\",");
        }
    }
    assert_eq!(got, PINS);
}

/// Every pinned payload, its lists (witnesses, a proof's inputs or
/// witnesses) `n` long, and its numbers replaced by `x` where the
/// layout is fixed-size either way.
fn payload_of(kind: usize, n: usize, x: u64) -> Payload {
    let list: Vec<SignedOutput> = (0..n).map(|i| out(i as u32, 2, x ^ i as u64)).collect();
    let mut all = payloads();
    match all.swap_remove(kind % all.len()).1 {
        Payload::Output { output, .. } => Payload::Output {
            output,
            witnesses: list,
        },
        Payload::Evidence(ev) => Payload::Evidence(Arc::new(match Arc::unwrap_or_clone(ev) {
            EvidenceRecord::BadComputation {
                accused, output, ..
            } => EvidenceRecord::BadComputation {
                accused,
                output,
                inputs: list,
            },
            EvidenceRecord::BadWitness {
                accused,
                output,
                env_sig,
                ..
            } => EvidenceRecord::BadWitness {
                accused,
                output,
                witnesses: list,
                sent_at: Time(x),
                env_sig,
            },
            r => r,
        })),
        Payload::Heartbeat { .. } => Payload::Heartbeat { period: x },
        p => p,
    }
}

proptest! {
    /// The computed lengths are the lengths written: the envelope's
    /// length prefix, the bytes after it and the wire size all agree
    /// with `Payload::canonical_len`, for every variant.
    #[test]
    fn canonical_len_is_the_length_written(kind in 0usize..64, n in 0usize..7, x in any::<u64>()) {
        let p = payload_of(kind, n, x);
        let bytes = envelope_bytes(NodeId(2), Time(x), &p);
        // Domain tag, source, send time, then the payload's length prefix.
        let prefix = 20 + 4 + 8;
        let len = u64::from_be_bytes(bytes[prefix..prefix + 8].try_into().unwrap());
        prop_assert_eq!(len as usize, p.canonical_len());
        prop_assert_eq!(bytes.len(), prefix + 8 + p.canonical_len());
        if !matches!(p, Payload::StateTransfer { .. }) {
            prop_assert_eq!(p.wire_size() as usize, p.canonical_len());
        }
    }
}
