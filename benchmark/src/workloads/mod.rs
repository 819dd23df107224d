//! The six workloads and what one run of any of them hands back.
//!
//! A workload is cut into *operations* — the unit its throughput is
//! counted in — and its timed work is repeated in slices until the
//! requested measuring time is used up. Every slice re-creates its
//! inputs from the seed, so set-up is sampled once per slice and the
//! simulated results of all slices of one run must be identical.

pub mod campaign;
pub mod live;
pub mod planner;
pub mod sim;

use crate::calib::Calibrator;
use crate::trace::Tracer;
use btr_obs::RecoveryTimeline;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// How long to measure (set-up samples included).
    pub seconds: f64,
    /// Reduced sizes, same checks; numbers not comparable.
    pub smoke: bool,
}

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose results were checked.
    pub attempted: u64,
    /// Operations that failed a check; each has a line in `failures`.
    pub failed: u64,
    pub failures: Vec<String>,
    /// One sample per set-up repetition (seconds).
    pub setup_s: Vec<f64>,
    /// Operations per host second (from the best repetitions).
    pub throughput_per_s: f64,
    /// The workload's latency interval in host ms: the median over
    /// operations, each timed best-of-k.
    pub latency_ms_p50: f64,
    /// Heap allocations per operation in the timed work.
    pub allocs_per_op: f64,
    /// Peak live heap during the timed work (MiB).
    pub peak_heap_mb: f64,
    /// Per-layer metrics this workload's layers produced (traced runs);
    /// a name that is absent reads 0: the layer did no work here.
    pub layers: BTreeMap<String, f64>,
}

impl Outcome {
    /// Count one checked operation; `problem` is why it failed, if it did.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            // Keep the report readable when everything is broken.
            if self.failures.len() < 32 {
                self.failures.push(p);
            }
        }
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Set up `reps` times, timing each, and keep the last result: a
    /// set-up that takes well under a slice is sampled several times
    /// per slice, so that its best-of-k has as many samples as the
    /// timed work's.
    pub fn set_up<T>(&mut self, reps: usize, mut f: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            last = Some(f());
            self.setup_s.push(start.elapsed().as_secs_f64());
        }
        last.expect("at least one repetition")
    }

    /// The simulated-time phase medians (ms) of the faulted runs' folds.
    pub fn phase_layers(&mut self, timelines: &[impl Borrow<RecoveryTimeline>]) {
        type Phase = fn(&RecoveryTimeline) -> u64;
        let phases: [(&str, Phase); 5] = [
            ("detector.detect_ms_p50", |t| t.detect_us),
            ("evidence.agree_ms_p50", |t| t.agree_us),
            ("modeswitch.blackout_ms_p50", |t| t.blackout_us),
            ("modeswitch.switch_ms_p50", |t| t.switch_us),
            ("runtime.settle_ms_p50", |t| t.settle_us),
        ];
        for (name, pick) in phases {
            let ms: Vec<f64> = timelines
                .iter()
                .map(|t| pick(t.borrow()) as f64 / 1e3)
                .collect();
            self.layer(name, crate::stats::median(&ms));
        }
    }
}

/// The measuring-time budget of one run.
pub struct Budget {
    start: Instant,
    limit: Duration,
}

impl Budget {
    pub fn new(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            limit: Duration::from_secs_f64(seconds),
        }
    }

    pub fn spent(&self) -> bool {
        self.start.elapsed() >= self.limit
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// The names `--workload` takes, in the order of `BENCHMARK.json`.
pub const NAMES: [&str; 6] = [
    "sim_mesh20_unsigned",
    "sim_torus1000_unsigned",
    "sim_mesh20_signed",
    "campaign_grid_faults",
    "planner_ladder",
    "live_bus9_faults",
];

pub fn run(name: &str, args: &RunArgs, tracer: &mut Tracer) -> Option<Outcome> {
    let mut calib = Calibrator::new();
    crate::alloc::mark_harness();
    let mut out = match name {
        "sim_mesh20_unsigned" => sim::run(sim::Kind::Mesh20Unsigned, args, tracer, &mut calib),
        "sim_torus1000_unsigned" => {
            sim::run(sim::Kind::Torus1000Unsigned, args, tracer, &mut calib)
        }
        "sim_mesh20_signed" => sim::run(sim::Kind::Mesh20Signed, args, tracer, &mut calib),
        "campaign_grid_faults" => campaign::run(args, tracer, &mut calib),
        "planner_ladder" => planner::run(args, tracer, &mut calib),
        "live_bus9_faults" => live::run(args, tracer, &mut calib),
        _ => return None,
    };
    if tracer.on() {
        let samples = calib.samples_ms();
        out.layer("host.calib_ms_p50", crate::stats::median(samples));
        out.layer(
            "host.calib_spread_pct",
            crate::stats::spread(samples).unwrap_or(0.0) * 100.0,
        );
    }
    Some(out)
}
