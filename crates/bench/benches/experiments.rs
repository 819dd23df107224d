//! Criterion benchmarks over the experiment kernels and the hot
//! substrate paths. One bench group per DESIGN.md experiment id (the
//! table itself is regenerated by the `harness` binary; these measure
//! the kernels' cost), plus microbenches for the layers underneath.

use btr_bench::experiments::{avionics_setup, detection_latency, kernels};
use btr_bench::{hotpath, signed};
use btr_core::FaultScenario;
use btr_crypto::{
    sha256, AuthSuite, KeyStore, NodeKey, SigBatch, Signer, SplitMix64, Xoshiro256StarStar,
};
use btr_model::{Duration, Envelope, FaultKind, NodeId, Payload, Time, Topology};
use btr_net::{FecCodec, RoutingTable};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_substrate(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate");
    g.sample_size(20);

    let data = vec![0xabu8; 4096];
    g.bench_function("sha256_4k", |b| b.iter(|| sha256(black_box(&data))));

    let signer = Signer::new(NodeKey::derive(1, 0));
    let ks = KeyStore::derive(1, 4);
    g.bench_function("sign_verify_256B", |b| {
        let msg = vec![0x5au8; 256];
        b.iter(|| {
            let sig = signer.sign(black_box(&msg));
            ks.verify(&sig, &msg).unwrap();
        })
    });

    // The authenticator suites head to head: sign, verify, and a
    // batched verification pass over an evidence-set-sized group (one
    // output + three witnesses), per suite.
    for suite in AuthSuite::ALL {
        let signer = Signer::new(NodeKey::derive_suite(1, 0, suite));
        let ks = KeyStore::derive_suite(1, 4, suite);
        let msg = vec![0x5au8; 128];
        let sig = signer.sign(&msg);
        g.bench_function(&format!("sign_128B_{}", suite.name()), |b| {
            b.iter(|| black_box(signer.sign(black_box(&msg))))
        });
        g.bench_function(&format!("verify_128B_{}", suite.name()), |b| {
            b.iter(|| ks.verify(black_box(&sig), &msg).unwrap())
        });
        g.bench_function(&format!("batch_verify_4x128B_{}", suite.name()), |b| {
            let mut batch = SigBatch::new();
            let mut ok = Vec::new();
            b.iter(|| {
                batch.clear();
                ok.clear();
                for _ in 0..4 {
                    batch.push_with(&sig, |buf| buf.extend_from_slice(&msg));
                }
                black_box(ks.verify_batch(&batch, &mut ok))
            })
        });
    }

    let codec = FecCodec::new(4, 2).unwrap();
    let payload = vec![0x42u8; 1024];
    g.bench_function("fec_encode_decode_1k", |b| {
        b.iter(|| {
            let mut shards: Vec<Option<Vec<u8>>> = codec
                .encode(black_box(&payload))
                .into_iter()
                .map(Some)
                .collect();
            shards[0] = None;
            shards[3] = None;
            codec.decode(&shards).unwrap()
        })
    });
    g.finish();
}

/// Microbenches for the layers under the simulator's per-message
/// path: loss sampling, route lookup, and canonical signing-byte
/// generation.
fn bench_hot_path_layers(c: &mut Criterion) {
    let mut g = c.benchmark_group("hot_path");
    g.sample_size(20);

    g.bench_function("loss_roll_xoshiro", |b| {
        let mut rng = Xoshiro256StarStar::from_parts(&[b"btr-loss", &7u64.to_be_bytes()]);
        b.iter(|| black_box(rng.next_below(1_000_000)))
    });
    g.bench_function("node_rng_splitmix", |b| {
        let mut rng = SplitMix64::from_parts(&[b"btr-node-rng", &7u64.to_be_bytes()]);
        b.iter(|| black_box(rng.next_u64()))
    });

    let topo = Topology::mesh(4, 5, 1_000_000, Duration(5));
    let routing = RoutingTable::new(&topo);
    g.bench_function("route_path_cached", |b| {
        b.iter(|| black_box(routing.path_and_links(NodeId(0), NodeId(19))))
    });

    let payload = Payload::Heartbeat { period: 42 };
    g.bench_function("signing_bytes_scratch", |b| {
        let mut scratch = Vec::new();
        b.iter(|| {
            Envelope::write_signing_bytes(NodeId(3), Time(99), &payload, &mut scratch);
            black_box(scratch.len())
        })
    });
    g.finish();
}

/// The end-to-end 20-node scenario (short run).
fn bench_hot_path_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_hot_path");
    g.sample_size(10);
    g.bench_function("mesh20_100periods", |b| {
        b.iter(|| black_box(hotpath::run_hotpath(7, 100, hotpath::HOTPATH_LOSS_PPM)))
    });
    // The signed-traffic scenario under both authenticator suites: the
    // end-to-end counterpart of the sign/verify microbenches above.
    for suite in AuthSuite::ALL {
        g.bench_function(&format!("signed_mesh20_100periods_{}", suite.name()), |b| {
            b.iter(|| black_box(signed::run_signed(7, suite, 100)))
        });
    }
    g.finish();
}

fn bench_e1_recovery(c: &mut Criterion) {
    let mut g = c.benchmark_group("e1_recovery_timeline");
    g.sample_size(10);
    let sys = avionics_setup(1);
    g.bench_function("btr_crash_300ms", |b| {
        b.iter(|| black_box(kernels::btr_recovery_run(&sys)))
    });
    g.finish();
}

fn bench_e2_e5_fault_free(c: &mut Criterion) {
    let mut g = c.benchmark_group("e2_replica_cost");
    g.sample_size(10);
    let sys = avionics_setup(1);
    g.bench_function("btr_fault_free_200ms", |b| {
        b.iter(|| {
            let r = sys.run(&FaultScenario::none(), Duration::from_millis(200), 3);
            black_box(r.metrics.msgs_sent)
        })
    });
    g.finish();
}

fn bench_e3_min_speed(c: &mut Criterion) {
    let mut g = c.benchmark_group("e3_min_speed");
    g.sample_size(10);
    g.bench_function("binary_search_probe", |b| {
        b.iter(|| black_box(kernels::min_speed_probe()))
    });
    g.finish();
}

fn bench_e6_planner(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_planner_scale");
    g.sample_size(10);
    g.bench_function("plan_9nodes_f1", |b| {
        b.iter(|| black_box(kernels::plan_build(9, 1)))
    });
    g.bench_function("plan_12nodes_f2", |b| {
        b.iter(|| black_box(kernels::plan_build(12, 2)))
    });
    g.finish();
}

fn bench_e7_detection(c: &mut Criterion) {
    let mut g = c.benchmark_group("e7_detection_latency");
    g.sample_size(10);
    let sys = avionics_setup(1);
    let victim = NodeId(2);
    g.bench_function("commission_detect", |b| {
        b.iter(|| {
            let scenario =
                FaultScenario::single(victim, FaultKind::Commission, Time::from_millis(52));
            black_box(detection_latency(
                &sys,
                &scenario,
                victim,
                Duration::from_millis(150),
                7,
            ))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_substrate,
    bench_hot_path_layers,
    bench_hot_path_end_to_end,
    bench_e1_recovery,
    bench_e2_e5_fault_free,
    bench_e3_min_speed,
    bench_e6_planner,
    bench_e7_detection
);
criterion_main!(benches);
