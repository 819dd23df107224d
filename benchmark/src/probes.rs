//! Isolated layer probes (traced runs only).
//!
//! The workloads go through whole-system entry points (`World`,
//! `BtrSystem`, `plan_cells`, `run_live`). The probes here are the one
//! place that reaches below them — `net` routing backends, `sched`,
//! `planner::placement`, the raw authenticators — to price a single
//! call of a single layer. A refactor of those internals edits this
//! file and nothing else in the benchmark.

use crate::stats;
use crate::trace::Tracer;
use crate::workloads::Outcome;
use btr::crypto::{AuthSuite, KeyStore, NodeKey, SigBatch, Signer};
use btr::model::{Duration, NodeId, Topology};
use btr::net::{DemandRoutes, RouteBackend, Routes, RoutingTable};
use btr::planner::{build_strategy, lane_counts, place, placement::PlaceOpts};
use btr::workload::generators;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// Best duration (µs) of `reps` calls of `f`, each under a span.
fn timed_us<T>(
    tracer: &mut Tracer,
    name: &'static str,
    reps: u64,
    mut f: impl FnMut() -> T,
) -> f64 {
    let mut us = Vec::with_capacity(reps as usize);
    for op in 0..reps {
        let span = tracer.begin(name, op);
        let start = Instant::now();
        black_box(f());
        us.push(start.elapsed().as_secs_f64() * 1e6);
        tracer.end(span);
    }
    stats::best(&us)
}

/// Nanoseconds per call of `f` over a loop long enough to time.
fn per_call_ns(calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..calls {
        f(i);
    }
    start.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// The (src, dst) pairs the unsigned blaster sends over, in send order.
fn blaster_pairs(n: u32, strides: [u32; 3]) -> Vec<(NodeId, NodeId)> {
    (0..n)
        .flat_map(|me| {
            strides
                .into_iter()
                .chain([1])
                .map(move |s| (NodeId(me), NodeId((me + s) % n)))
        })
        .collect()
}

/// `net` below the demand threshold: the all-pairs table on the mesh.
pub fn net_table(out: &mut Outcome, tracer: &mut Tracer) {
    let topo = Topology::mesh(4, 5, 1_000_000, Duration(5));
    out.layer(
        "net.table_build_us.mesh20",
        timed_us(tracer, "net.RoutingTable::new", 50, || {
            RoutingTable::new(&topo)
        }),
    );
    let table = RoutingTable::new(&topo);
    let pairs = blaster_pairs(20, [7, 11, 13]);
    let mut hops = 0usize;
    let ns = per_call_ns(2_000_000, |i| {
        let (s, d) = pairs[i as usize % pairs.len()];
        hops += table.path_and_links(s, d).map_or(0, |(p, _)| p.len());
    });
    black_box(hops);
    out.layer("net.lookup_ns.table", ns);
}

/// `net` above it: demand-driven rows on the 1000-node torus, plus the
/// set-up costs that only show at that size.
pub fn net_demand(out: &mut Outcome, tracer: &mut Tracer, seed: u64) {
    let topo = btr::topo::torus(25, 40, 1_000_000, Duration(5)).expect("25x40 is a valid torus");
    let mut demand = DemandRoutes::new(&topo);
    // Every first lookup toward a new destination builds a cold row.
    let mut dst = 0u32;
    out.layer(
        "net.demand_row_us.torus1000",
        timed_us(tracer, "net.DemandRoutes::path_and_links(cold)", 64, || {
            dst += 15;
            demand
                .path_and_links(NodeId(0), NodeId(dst))
                .map(|(p, _)| p.len())
        }),
    );
    let pairs = blaster_pairs(1000, [7, 13, 500]);
    let mut demand = DemandRoutes::new(&topo);
    for &(s, d) in &pairs {
        demand.path_and_links(s, d);
    }
    let (hits0, misses0, _) = demand.cache_stats();
    let mut hops = 0usize;
    let ns = per_call_ns(1_000_000, |i| {
        let (s, d) = pairs[i as usize % pairs.len()];
        hops += demand.path_and_links(s, d).map_or(0, |(p, _)| p.len());
    });
    black_box(hops);
    let (hits, misses, _) = demand.cache_stats();
    out.layer("net.lookup_ns.demand", ns);
    out.layer(
        "net.demand_hit_ratio",
        (hits - hits0) as f64 / ((hits - hits0) + (misses - misses0)).max(1) as f64,
    );
    // One crash: the backend the world would pick, warmed, re-planned
    // around the dead relay.
    let avoid = BTreeSet::from([NodeId(1)]);
    out.layer(
        "net.heal_us.torus1000",
        timed_us(tracer, "net.RouteBackend::recompute", 8, || {
            let mut backend = RouteBackend::auto(&topo);
            backend.warm((0..1000).map(NodeId));
            let start = Instant::now();
            backend.recompute(&topo, &avoid, true);
            start.elapsed()
        }),
    );
    out.layer(
        "crypto.keystore_derive_us.n1000",
        timed_us(tracer, "crypto.KeyStore::derive_suite", 16, || {
            KeyStore::derive_suite(seed, 1000, AuthSuite::default())
        }),
    );
}

/// The raw authenticators of one suite on 128-byte messages.
pub fn crypto(out: &mut Outcome, tracer: &mut Tracer, suite: AuthSuite, seed: u64) {
    let tag = suite.token();
    let signer = Signer::new(NodeKey::derive_suite(seed, 3, suite));
    let keys = KeyStore::derive_suite(seed, 9, suite);
    let msg = [0xA5u8; 128];
    let span = tracer.begin("crypto.Signer::sign", 0);
    let sign_ns = per_call_ns(200_000, |i| {
        black_box(signer.sign_parts(&[&i.to_be_bytes(), &msg]));
    });
    tracer.end(span);
    let sig = signer.sign(&msg);
    let span = tracer.begin("crypto.KeyStore::verify", 0);
    let mut bad = 0u64;
    let verify_ns = per_call_ns(200_000, |_| {
        bad += keys.verify(black_box(&sig), &msg).is_err() as u64;
    });
    tracer.end(span);
    let mut batch = SigBatch::new();
    for _ in 0..4 {
        batch.push_with(&sig, |buf| buf.extend_from_slice(&msg));
    }
    let mut ok = Vec::with_capacity(4);
    let span = tracer.begin("crypto.KeyStore::verify_batch", 0);
    let batch_ns = per_call_ns(50_000, |_| {
        ok.clear();
        bad += (keys.verify_batch(black_box(&batch), &mut ok) != 4) as u64;
    });
    tracer.end(span);
    out.check((bad > 0).then(|| format!("{bad} valid {tag} tags failed to verify")));
    out.layer(&format!("crypto.sign_ns.{tag}"), sign_ns);
    out.layer(&format!("crypto.verify_ns.{tag}"), verify_ns);
    out.layer(
        &format!("crypto.batch_verify_ns_per_sig.{tag}"),
        batch_ns / 4.0,
    );
    if suite == AuthSuite::HmacSha256 {
        out.layer(
            "crypto.keystore_derive_us.n9",
            timed_us(tracer, "crypto.KeyStore::derive_suite", 200, || {
                KeyStore::derive_suite(seed, 9, suite)
            }),
        );
    }
}

/// Single calls inside the planner at n = 64, and what a second planner
/// thread buys there.
pub fn planner_n64(out: &mut Outcome, tracer: &mut Tracer, threads: usize, plan_1t_s: f64) {
    let workload = generators::avionics(64);
    let topo = Topology::bus(64, 150_000, Duration(5));
    let cfg = crate::workloads::planner::config(1);
    let routing = RoutingTable::new(&topo);
    let lanes = lane_counts(&workload, cfg.replication, cfg.f, &BTreeSet::new(), 64);
    let none = BTreeSet::new();
    let opts = PlaceOpts::default();
    let mut placement = BTreeMap::new();
    out.layer(
        "planner.place_us.n64",
        timed_us(tracer, "planner.placement::place", 10, || {
            placement = place(&workload, &topo, &routing, &lanes, &none, None, &opts)
                .expect("the initial mode places");
        }),
    );
    out.layer(
        "sched.synthesize_us.n64",
        timed_us(tracer, "sched.synthesize", 10, || {
            btr::sched::synthesize(&workload, &topo, &routing, &placement, &lanes, &cfg.sched)
                .map(|s| s.makespan)
                .ok()
        }),
    );
    let mut mt = cfg;
    mt.threads = threads;
    let span = tracer.begin("planner.build_strategy(mt)", 0);
    let start = Instant::now();
    let built = build_strategy(&workload, &topo, &mt);
    let mt_s = start.elapsed().as_secs_f64();
    tracer.end(span);
    out.check(
        built
            .err()
            .map(|e| format!("multi-threaded plan failed: {e}")),
    );
    out.layer("planner.mt_speedup.n64", plan_1t_s / mt_s);
}
