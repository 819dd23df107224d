//! The names, units and bounds of everything the benchmark reports, and
//! the `BENCHMARK.json` they are published in.
//!
//! This table is the single source: `manifest` renders the root
//! `BENCHMARK.json` from it and the smoke test holds the committed file
//! to that rendering, so a metric cannot be printed without being
//! declared or declared without being printed.

use crate::json::escape;
use crate::workloads;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Measured with tracing off, on every workload. What an operation and
/// the latency interval are is the workload's to say (see README.md).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.10,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count or a simulated time: a pure function of the seed, which
    /// `compare` holds to equality.
    pub exact: bool,
}

/// A host-time metric.
const fn m(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

/// An exact metric.
const fn x(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// Measured on traced runs. A workload reports the metrics of the
/// layers it exercises; the rest read 0 on it.
pub const PER_LAYER: &[PerLayer] = &[
    // The workload-specific end-to-end numbers, under the names later
    // issues cite, on the workloads that have them.
    m("deliveries_per_s", "1/s", Higher),
    x("allocs_per_kdelivery", "count", Lower),
    m("runs_per_s", "1/s", Higher),
    m("run_ms_p50", "ms", Lower),
    m("run_ms_p95", "ms", Lower),
    m("plan_ladder_s", "s", Lower),
    m("realtime_factor", "x", Higher),
    m("recovery_wall_ms_p50", "ms", Lower),
    x("recovery_ms_p50", "ms", Lower),
    x("recovery_ms_p95", "ms", Lower),
    x("slack_to_r_ms_min", "ms", Higher),
    // planner, sched
    m("planner.plan_s.n20f2", "s", Lower),
    m("planner.plan_s.n36f1", "s", Lower),
    m("planner.plan_s.n64f1", "s", Lower),
    m("planner.plan_s.n100f1", "s", Lower),
    x("planner.plans_total", "count", Lower),
    x("planner.transitions_total", "count", Lower),
    m("planner.us_per_plan", "us", Lower),
    m("planner.allocs_per_plan", "count", Lower),
    m("planner.place_us.n64", "us", Lower),
    m("planner.mt_speedup.n64", "x", Higher),
    m("sched.synthesize_us.n64", "us", Lower),
    // topo, net
    m("topo.torus1000_build_us", "us", Lower),
    m("net.table_build_us.mesh20", "us", Lower),
    m("net.demand_row_us.torus1000", "us", Lower),
    m("net.lookup_ns.table", "ns", Lower),
    m("net.lookup_ns.demand", "ns", Lower),
    x("net.demand_hit_ratio", "ratio", Higher),
    m("net.heal_us.torus1000", "us", Lower),
    x("net.routing_resident_bytes.mesh20", "B", Lower),
    x("net.routing_resident_bytes.torus1000", "B", Lower),
    // crypto
    m("crypto.sign_ns.hmac", "ns", Lower),
    m("crypto.verify_ns.hmac", "ns", Lower),
    m("crypto.batch_verify_ns_per_sig.hmac", "ns", Lower),
    m("crypto.sign_ns.sip", "ns", Lower),
    m("crypto.verify_ns.sip", "ns", Lower),
    m("crypto.batch_verify_ns_per_sig.sip", "ns", Lower),
    m("crypto.keystore_derive_us.n9", "us", Lower),
    m("crypto.keystore_derive_us.n1000", "us", Lower),
    x("crypto.sig_ops_per_delivery", "count", Lower),
    // sim
    m("sim.world_new_us.mesh20", "us", Lower),
    m("sim.world_new_us.torus1000", "us", Lower),
    x("sim.events_per_delivery", "count", Lower),
    m("sim.ns_per_event", "ns", Lower),
    x("sim.count.routing", "count", Lower),
    x("sim.count.crypto_sign", "count", Lower),
    x("sim.count.crypto_verify", "count", Lower),
    x("sim.count.queue", "count", Lower),
    x("sim.count.audit", "count", Lower),
    x("sim.count.mode_switch", "count", Lower),
    x("sim.count.dispatch", "count", Lower),
    x("sim.count.other", "count", Lower),
    m("sim.share_pct.routing", "%", Lower),
    m("sim.share_pct.crypto_sign", "%", Lower),
    m("sim.share_pct.crypto_verify", "%", Lower),
    m("sim.share_pct.queue", "%", Lower),
    m("sim.share_pct.audit", "%", Lower),
    m("sim.share_pct.mode_switch", "%", Lower),
    m("sim.share_pct.dispatch", "%", Lower),
    m("sim.share_pct.other", "%", Lower),
    m("sim.trace_overhead_pct", "%", Lower),
    // core, campaign, obs
    m("core.build_world_us", "us", Lower),
    m("core.sim_run_us", "us", Lower),
    m("core.judge_us", "us", Lower),
    m("core.us_per_delivery", "us", Lower),
    m("core.span_coverage_pct", "%", Higher),
    m("campaign.plan_cells_ms", "ms", Lower),
    m("campaign.run_ms_p50.n9", "ms", Lower),
    m("campaign.run_ms_p50.n36", "ms", Lower),
    m("campaign.score_us_p50", "us", Lower),
    m("campaign.parallel_speedup", "x", Higher),
    m("obs.recorder_overhead_pct", "%", Lower),
    // detector, evidence, modeswitch, runtime (simulated time, counts)
    x("detector.detect_ms_p50", "ms", Lower),
    x("evidence.agree_ms_p50", "ms", Lower),
    x("modeswitch.blackout_ms_p50", "ms", Lower),
    x("modeswitch.switch_ms_p50", "ms", Lower),
    x("runtime.settle_ms_p50", "ms", Lower),
    x("detector.near_miss_per_run", "count", Lower),
    x("detector.suppressed_per_run", "count", Lower),
    x("detector.excess_convictions", "count", Lower),
    x("runtime.msgs_per_run", "count", Lower),
    x("runtime.bytes_per_run", "B", Lower),
    // node
    m("node.msgs_per_wall_s", "1/s", Higher),
    m("node.frontier_stalls_per_msg", "count", Lower),
    m("node.redrains_per_kmsg", "count", Lower),
    m("node.timer_lag_us_p50", "us", Lower),
    m("node.timer_lag_us_p99", "us", Lower),
    m("node.wall_overshoot_us_p50", "us", Lower),
    m("node.mailbox_full", "count", Lower),
    m("node.overruns", "count", Lower),
    m("node.panics", "count", Lower),
    m("node.trace_retries", "count", Lower),
    // host
    m("host.calib_ms_p50", "ms", Lower),
    m("host.calib_spread_pct", "%", Lower),
];

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 15;

/// One line per workload on why it exists (`BENCHMARK.json`'s `why`).
pub const WHY: [&str; 6] = [
    "The headline hot path: 20-node mesh, unsigned traffic, FEC-masked loss; queue, dispatch and the all-pairs routing table do nearly all the work. Op: delivered message; latency: one slice.",
    "Same layer, other regime: 1000-node torus, demand-driven routing rows, a mid-slice relay crash, a working set past the caches; where sharding or routing changes must show. Op: delivered message.",
    "Signed lane: every message a signed output with 3 witnesses audited in one batch (SipHash); crypto and the per-delivery allocation dominate; catches unsigned gains bought with signed cost.",
    "The full stack under faults: the campaign grid's 8 cells of up to 9 nodes, 2 single-fault runs each over all 8 variants, HMAC, all cores; protocol crates dominate. Op: judged run; latency: one run.",
    "The offline planner alone: avionics on a bus, (n,f) = (20,2), (36,1), 1 thread; (64,1), (100,1) traced only; steep growth nothing else exercises, no sim work. Op: built strategy; latency: the ladder.",
    "The second substrate: the same runtime on threads, loopback transport and causal frontier; 4 scenarios, paced and unpaced. Op: message at pace 0.01; latency: wall recovery at pace 1.",
];

/// The root `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(concat!(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", ",
        "\"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n"
    ));
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in workloads::NAMES.iter().zip(WHY).enumerate() {
        let comma = if i + 1 < WHY.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{}\"}}{comma}\n",
            escape(why)
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, e) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            e.name,
            e.unit,
            e.better.label(),
            e.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, l) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            l.name,
            l.unit,
            l.better.label()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn manifest_is_valid_and_within_the_published_limits() {
        let v = crate::json::parse(&manifest()).expect("manifest is JSON");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|e| e.bound <= 0.25));
        assert!(
            WHY.iter().all(|w| w.len() <= 200 && !w.contains('\n')),
            "{WHY:?}"
        );
        let mut names = BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|e| (e.name, e.unit))
            .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)))
            .chain(workloads::NAMES.iter().map(|&n| (n, "s")));
        for (name, unit) in all {
            assert!(names.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(unit.len() <= 16 && !unit.is_empty());
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(manifest().len() < 64 * 1024);
    }
}
