//! The experiment harness: regenerates every table/figure in
//! EXPERIMENTS.md, measures the live thread fleet (`live`), and drives
//! the fault-injection campaign and the schedule fuzzer. The simulator's
//! wall clock is the repository benchmark's (`benchmark/`).
//!
//! Usage:
//!
//! ```text
//! harness all               # run the full experiment suite
//! harness e1 e7 a2          # run selected experiments
//! harness live [...]        # the thread-fleet measurement, emit LIVE_btr.json
//! harness campaign [...]    # fault-injection campaign, emit CAMPAIGN_btr.json
//! harness fuzz [...]        # coverage-guided schedule search, emit FUZZ_btr.json
//! harness --list            # list every subcommand and experiment id
//! harness --threads N ...   # worker threads (campaign + fuzz + all)
//! ```

#![forbid(unsafe_code)]

use btr_bench::experiments as exp;
use btr_bench::live::{self, LiveMeasurement, LIVE_PACE, LIVE_SEED, LIVE_SMOKE_PACE};
use btr_crypto::AuthSuite;
use btr_obs::json::{self, Layout::Block, Layout::Inline};
use btr_obs::{Histogram, Lat, TraceBuilder};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once a write to stdout has failed (`harness --list | head`).
static STDOUT_GONE: AtomicBool = AtomicBool::new(false);

/// Write one line through the locked stdout handle. `println!` panics
/// when the reader has gone away; here a closed stdout only stops the
/// progress lines — reports are still written and the exit code still
/// says what the gates found.
fn emit(line: std::fmt::Arguments<'_>) {
    if STDOUT_GONE.load(Ordering::Relaxed) {
        return;
    }
    let mut out = std::io::stdout().lock();
    if out
        .write_fmt(line)
        .and_then(|()| out.write_all(b"\n"))
        .is_err()
    {
        STDOUT_GONE.store(true, Ordering::Relaxed);
    }
}

/// `println!` over [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

/// A report file, opened while the arguments are parsed: an unwritable
/// path is a usage error (exit 2) before any measurement starts. An
/// existing file keeps its contents until the replacement is ready.
struct Report(String, std::fs::File);

impl Report {
    fn open(path: String) -> Report {
        let mut options = std::fs::OpenOptions::new();
        match options.write(true).create(true).truncate(false).open(&path) {
            Ok(file) => Report(path, file),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Replace the file's contents with `content`, or exit 2.
    fn write(self, content: &str) {
        let Report(path, mut file) = self;
        match file
            .set_len(0)
            .and_then(|()| file.write_all(content.as_bytes()))
        {
            Ok(()) => outln!("  wrote {path}"),
            Err(e) => {
                eprintln!("error: failed to write {path}: {e}");
                std::process::exit(2);
            }
        }
    }
}

/// A histogram's count and p50/p95/p99 (`Histogram::quantile` returns
/// the upper edge of the hit bucket; null quantiles mean the histogram
/// is empty).
fn quantiles_json(o: &mut json::Object<'_>, key: &str, h: &Histogram) {
    o.object(key, Inline, |o| {
        o.field("count", h.count());
        o.field("p50", h.quantile(0.5));
        o.field("p95", h.quantile(0.95));
        o.field("p99", h.quantile(0.99));
    });
}

/// One pinned scenario's members: the live measurement, its five-phase
/// recovery timeline (`null` when fault-free: nothing to decompose),
/// then the simulator substrate's latency quantiles.
fn live_scenario_json(o: &mut json::Object<'_>, r: &ScenarioRun) {
    let m = &r.m;
    o.field("name", m.name);
    o.field("nodes", m.nodes);
    o.field("horizon_us", m.horizon_us);
    o.field("fault", &m.fault);
    o.field("trace_match", m.trace_match);
    o.field("actuations", m.actuations);
    o.field("healthy", m.healthy);
    o.field("panics", m.panics);
    o.field("overruns", m.overruns);
    o.field("converged", m.converged);
    o.field("recovery_us", m.recovery_us);
    o.field("r_bound_us", m.r_bound_us);
    o.field("within_r", m.within_r);
    o.field("fault_wall_us", m.fault_wall_us);
    o.field("switch_wall_us", m.switch_wall_us);
    o.field("recovery_wall_us", m.recovery_wall_us);
    o.field("within_r_wall", m.within_r_wall);
    o.field("msgs_sent", m.msgs_sent);
    o.field("mailbox_full", m.mailbox_full);
    o.field("frontier_stalls", m.frontier_stalls);
    o.array("frontier_blockers", Inline, |a| {
        a.items(&m.frontier_blockers)
    });
    o.field("top_blocker", m.top_blocker().map(|(node, _)| node.0));
    o.field("redrains", m.redrains);
    o.field("timer_lag_p50_us", m.timer_lag_p50_us);
    o.field("timer_lag_p95_us", m.timer_lag_p95_us);
    o.field("timer_lag_p99_us", m.timer_lag_p99_us);
    match &m.timeline {
        Some(t) => o.object("timeline", Block, |o| {
            o.field("detect_us", t.detect_us);
            o.field("agree_us", t.agree_us);
            o.field("blackout_us", t.blackout_us);
            o.field("switch_us", t.switch_us);
            o.field("settle_us", t.settle_us);
            o.field("recovery_us", t.recovery_us);
            o.field("slack_to_r_us", t.slack_to_r_us);
        }),
        None => o.field("timeline", None::<u64>),
    }
    o.field("wall_ms", m.wall_ms);
    quantiles_json(o, "sim_delivery_latency_us", r.sim_rec.lat(Lat::Delivery));
}

/// The verdict lines of one judged run: what `campaign --replay` and
/// `live --replay` both end on.
fn print_record(r: &btr_campaign::RunRecord) {
    outln!(
        "  schedule {} ({}): bad window {:.1} ms (slack to budget {:.1} ms), {}/{} bad outputs, \
         converged: {}, convictions: {}",
        r.label,
        if r.admissible {
            "admissible"
        } else {
            "over budget"
        },
        r.recovery_us as f64 / 1e3,
        r.slack_us as f64 / 1e3,
        r.bad_outputs,
        r.total_outputs,
        r.converged,
        r.convictions
    );
    if r.violations.is_empty() {
        outln!("  no violations");
    }
    for v in &r.violations {
        outln!("  VIOLATION: {v}");
    }
}

/// Replay a campaign reproducer token on the live runtime: plan the
/// cell, run the schedule on real threads, and hold the live trace
/// against the simulator oracle.
fn run_live_replay(token: &str, pace: f64) {
    use btr_campaign as campaign;
    use btr_node::{run_live, LiveConfig};

    let spec = match campaign::replay::parse(token) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let system = match spec.cell.plan() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if spec.max_events != 0 {
        outln!(
            "note: live replay ignores the token's simulator event cap (me={})",
            spec.max_events
        );
    }
    outln!(
        "live replay: {} fault(s) on {} (f={}, R={}, seed {}, pace {pace})",
        spec.scenario.faults.len(),
        spec.cell.name(),
        spec.cell.f,
        spec.cell.r_bound,
        spec.sim_seed
    );
    let (reference, _) = system.observed_world(&spec.scenario, spec.horizon, spec.sim_seed);
    let reference = reference.logical_trace();
    let mut cfg = LiveConfig::new(spec.sim_seed);
    cfg.pace = pace;
    let report = run_live(&system, &spec.scenario, spec.horizon, &cfg);
    let judgment = system.judge_actuations(&spec.scenario, spec.horizon, &report.trace.events);
    let divergence = report
        .trace
        .first_divergence(&reference, ["live", "simulator"]);
    outln!(
        "  trace {} simulator ({} actuations)",
        if divergence.is_none() {
            "matches"
        } else {
            "DIVERGES from"
        },
        report.trace.len(),
    );
    if let Some(d) = divergence {
        outln!("  first divergence: {d}");
    }
    print_record(&spec.judge(&system, live::finished(&judgment, &report)));
    if let Some(w) = report.last_switch_wall_us() {
        outln!("  last mode switch at wall {:.1} ms", w as f64 / 1e3);
    }
    // Arbitrary tokens include over-budget and byzantine-flood schedules
    // where divergence or R violation is the finding, not a harness bug;
    // only process health gates the exit code here.
    if !report.healthy() {
        eprintln!(
            "error: live replay unhealthy (panics: {:?}, overruns: {:?})",
            report.panics, report.deadline_overruns
        );
        std::process::exit(1);
    }
}

/// One executed pinned scenario: the measurement, the raw live report
/// (for trace export), and the simulator
/// substrate's recorder — phase marks plus latency histograms.
struct ScenarioRun {
    spec: live::LiveScenario,
    m: LiveMeasurement,
    report: btr_node::LiveReport,
    sim_rec: btr_obs::ObsRecorder,
}

/// Plan each platform size once and run every pinned scenario on both
/// substrates.
fn run_scenario_set(smoke: bool, seed: u64, pace: f64) -> Vec<ScenarioRun> {
    let specs = live::pinned_scenarios(smoke);
    let mut runs: Vec<ScenarioRun> = Vec::new();
    let mut system: Option<(usize, btr_core::BtrSystem)> = None;
    for spec in specs {
        if system.as_ref().map(|(n, _)| *n) != Some(spec.nodes) {
            system = Some((spec.nodes, live::live_system(spec.nodes)));
        }
        let sys = &system.as_ref().expect("planned above").1;
        let (m, report, sim_rec) = live::measure_live(sys, &spec, seed, pace);
        runs.push(ScenarioRun {
            spec,
            m,
            report,
            sim_rec,
        });
    }
    runs
}

/// Export every scenario onto one Chrome trace, three process groups
/// apiece (pids 1.. in scenario order).
fn build_trace(runs: &[ScenarioRun]) -> TraceBuilder {
    let mut t = TraceBuilder::new();
    for (i, r) in runs.iter().enumerate() {
        let base_pid = (i as u32) * 3 + 1;
        live::export_scenario_trace(
            &mut t,
            base_pid,
            r.spec.name,
            r.sim_rec.marks(),
            &r.report,
            r.m.timeline.as_ref(),
        );
    }
    t
}

/// `harness live`: the thread-fleet measurement. Runs the pinned fault
/// scenarios on both substrates, holds each live trace against the
/// simulator's, prints each fault's five-phase recovery breakdown,
/// writes the scenario records (timelines, runtime counters, latency
/// quantiles) as JSON, and optionally exports a Chrome trace. Exits 1
/// unless every scenario passes `LiveMeasurement::ok`.
fn run_live_cli(mut args: Vec<String>, _threads: usize) {
    let smoke = take_flag(&mut args, "--smoke");
    let seed = take_value(&mut args, "--seed").unwrap_or(LIVE_SEED);
    let pace: f64 =
        take_value(&mut args, "--pace").unwrap_or(if smoke { LIVE_SMOKE_PACE } else { LIVE_PACE });
    if pace <= 0.0 || !pace.is_finite() {
        eprintln!("error: --pace must be positive, got {pace}");
        std::process::exit(2);
    }
    if pace > MAX_PACE {
        eprintln!("error: --pace must be at most {MAX_PACE}");
        std::process::exit(2);
    }
    let out_path: String = take_value(&mut args, "--out").unwrap_or("LIVE_btr.json".into());
    let trace_out: Option<String> = take_value(&mut args, "--trace-out");
    let replay: Option<String> = take_value(&mut args, "--replay");
    if let Some(stray) = args.first() {
        eprintln!("error: unknown live argument '{stray}'");
        std::process::exit(2);
    }
    if let Some(token) = replay {
        if trace_out.is_some() {
            eprintln!("error: --replay does not take --trace-out");
            std::process::exit(2);
        }
        run_live_replay(&token, pace);
        return;
    }
    let report = Report::open(out_path);
    let trace_report = trace_out.map(Report::open);

    let runs = run_scenario_set(smoke, seed, pace);
    outln!(
        "live runtime: {} pinned scenario(s), seed {seed}, pace {pace}{}",
        runs.len(),
        if smoke { " (smoke)" } else { "" }
    );
    let ms = |us: u64| us as f64 / 1e3;
    for r in &runs {
        let m = &r.m;
        outln!(
            "  {:<14} {:>4} actuations  trace {}  recovery {:>7.1} ms (R {:.0} ms)  wall {}  [{}]",
            m.name,
            m.actuations,
            if m.trace_match { "ok" } else { "DIVERGED" },
            ms(m.recovery_us),
            ms(m.r_bound_us),
            match m.recovery_wall_us {
                Some(w) => format!("{:>7.1} ms", ms(w)),
                None => "      —".to_string(),
            },
            if m.ok() { "ok" } else { "FAIL" },
        );
        if !m.healthy {
            eprintln!(
                "error: {}: {} panic(s), {} deadline overrun(s)",
                m.name, m.panics, m.overruns
            );
        }
        match &m.timeline {
            Some(t) => outln!(
                "  {:<14} detect {:>5.1}  agree {:>5.1}  blackout {:>5.1}  switch {:>5.1}  \
                 settle {:>5.1}  = {:>5.1} ms (slack {:.1} ms)",
                "",
                ms(t.detect_us),
                ms(t.agree_us),
                ms(t.blackout_us),
                ms(t.switch_us),
                ms(t.settle_us),
                ms(t.recovery_us),
                t.slack_to_r_us as f64 / 1e3,
            ),
            None => outln!("  {:<14} fault-free: no recovery to decompose", ""),
        }
        // Who held the frontier: the peer the fleet slept on most.
        outln!(
            "  {:<14} frontier: {} stalls ({}), {} redrains over {} msgs",
            "",
            m.frontier_stalls,
            match m.top_blocker() {
                Some((node, sleeps)) => format!("top blocker {node}, {sleeps}"),
                None => "nobody blocked".to_string(),
            },
            m.redrains,
            m.msgs_sent,
        );
        // The latency quantiles both substrates carry: the simulator's
        // logical delivery latencies, and the live runtime's wall timer
        // lag past its paced instants.
        let d = r.sim_rec.lat(Lat::Delivery);
        outln!(
            "  {:<14} delivery p50/p95/p99 {}/{}/{} µs over {} (sim)  \
             timer-lag p50/p95/p99 {}/{}/{} µs (live)",
            "",
            d.quantile(0.5).unwrap_or(0),
            d.quantile(0.95).unwrap_or(0),
            d.quantile(0.99).unwrap_or(0),
            d.count(),
            m.timer_lag_p50_us,
            m.timer_lag_p95_us,
            m.timer_lag_p99_us,
        );
    }
    report.write(&json::document(Block, |o| {
        o.field("report", "btr_live");
        o.field("seed", seed);
        o.field("pace", pace);
        o.field("smoke", smoke);
        o.field("wall_slack_us", live::LIVE_WALL_SLACK_US);
        o.array("scenarios", Block, |a| {
            for r in &runs {
                a.object(Block, |o| live_scenario_json(o, r));
            }
        });
    }));
    if let Some(trace) = trace_report {
        trace.write(&build_trace(&runs).finish());
    }
    let failed: Vec<&str> = runs
        .iter()
        .filter(|r| !r.m.ok())
        .map(|r| r.m.name)
        .collect();
    if !failed.is_empty() {
        eprintln!("error: live scenario gate failed: {}", failed.join(", "));
        std::process::exit(1);
    }
}

/// One subcommand: `usage` and `--list` are both rendered from this
/// table, and `main` dispatches through it.
struct Command {
    name: &'static str,
    /// What it does; `\n` separates display lines.
    about: &'static str,
    /// `(flag with its metavariable, help)`; `\n` in the help as above.
    options: &'static [(&'static str, &'static str)],
    /// Entry point: the arguments after the command name, and `--threads`.
    run: fn(Vec<String>, usize),
}

const COMMANDS: [Command; 3] = [
    Command {
        name: "live",
        about: "the thread-fleet measurement: pinned fault scenarios on\n\
                the live thread-per-node runtime, simulator as trace\n\
                oracle, five-phase recovery timelines (emits\n\
                LIVE_btr.json)",
        options: &[
            (
                "--smoke",
                "small fleet, short horizons, double speed (CI budget)",
            ),
            ("--seed S", "run seed (default 7)"),
            (
                "--pace X",
                "wall-us per logical-us, at most 100 (default 1.0; 0.5\n\
                 under --smoke)",
            ),
            ("--out PATH", "report path (default LIVE_btr.json)"),
            (
                "--trace-out PATH",
                "Chrome trace_event JSON (chrome://tracing, Perfetto)",
            ),
            (
                "--replay TOKEN",
                "run one campaign reproducer token on the live runtime",
            ),
        ],
        run: run_live_cli,
    },
    Command {
        name: "campaign",
        about: "parallel fault-injection campaign (emits CAMPAIGN_btr.json)",
        options: &[
            (
                "--runs N",
                "target run count, at least 1 (default 256); with the\n\
                 cells and --sim-seeds, at most 1000000 executed runs",
            ),
            ("--seed S", "campaign seed (default 42)"),
            (
                "--sim-seeds K",
                "simulator seeds per schedule, at least 1 (default 2)",
            ),
            (
                "--combos",
                "sequential multi-fault schedules up to budget f",
            ),
            (
                "--over-budget",
                "add f+1-fault schedules (inadmissible; exercises the shrinker)",
            ),
            (
                "--all-variants",
                "every fault variant on every cell (alias of the default grid)",
            ),
            (
                "--auth SUITE",
                "hmac | sip force one authenticator suite on every cell;\n\
                 both twins each cell with a `-sip` SipHash copy",
            ),
            ("--out PATH", "report path (default CAMPAIGN_btr.json)"),
            (
                "--replay TOKEN",
                "re-execute one reproducer token and print its verdicts",
            ),
        ],
        run: run_campaign_cli,
    },
    Command {
        name: "fuzz",
        about: "coverage-guided fault-schedule search over the f=3\n\
                hunting grid (emits FUZZ_btr.json; byte-identical at any\n\
                thread count)",
        options: &[
            (
                "--budget N",
                "total simulation runs to spend, 1 to 1000000 (default\n\
                 128)",
            ),
            ("--seed S", "fuzzer seed (default 42)"),
            ("--out PATH", "report path (default FUZZ_btr.json)"),
        ],
        run: run_fuzz_cli,
    },
];

/// `label` padded to the help column, then `text` with its
/// continuation lines aligned under it.
fn help_entry(label: &str, text: &str) -> String {
    format!(
        "  {label:<19}{}\n",
        text.replace('\n', &format!("\n{:21}", ""))
    )
}

fn usage() -> String {
    let mut u = String::from("usage: harness [--threads N] [--list] <command>...\n\ncommands:\n");
    u += &help_entry("all", "run the full experiment suite (e1..e10 a1 a2 r1)");
    u += &help_entry("e1 .. e10 a1 a2 r1", "individual experiments (see --list)");
    for c in &COMMANDS {
        u += &help_entry(&format!("{} [opts]", c.name), c.about);
    }
    u += "\nglobal options:\n";
    u += &help_entry(
        "--threads N",
        "worker threads for campaign, fuzz and `all`\n\
         (default: available parallelism)",
    );
    for c in &COMMANDS {
        u += &format!("\n{} options:\n", c.name);
        for (flag, help) in c.options {
            u += &help_entry(flag, help);
        }
    }
    u.truncate(u.trim_end().len());
    u
}

/// `harness --list`: every experiment id, then every subcommand with
/// its flags (wrapped at 80 columns) and what it does.
fn list() -> String {
    let mut l = String::new();
    for (id, about, _) in &exp::SUITE {
        l += &format!("{id:<3} {about}\n");
    }
    for c in &COMMANDS {
        let mut line = c.name.to_string();
        for (flag, _) in c.options {
            if line.len() + flag.len() + 3 > 80 {
                l += &format!("{line}\n");
                line = " ".repeat(c.name.len());
            }
            line += &format!(" [{flag}]");
        }
        l += &format!("{line}\n");
        for about in c.about.lines() {
            l += &format!("{:17}{about}\n", "");
        }
    }
    l.truncate(l.trim_end().len());
    l
}

/// Remove `--flag VALUE` from `args`, returning the parsed value.
fn take_value<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("error: {flag} needs a value");
        std::process::exit(2);
    }
    let raw = args.remove(i + 1);
    args.remove(i);
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("error: bad value '{raw}' for {flag}");
            std::process::exit(2);
        }
    }
}

/// Remove a bare `--flag`, returning whether it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// The most runs one `harness campaign` executes (cells × schedules per
/// cell × `--sim-seeds`). A million is over an hour of this host at ~300
/// judged runs a second, and far below where the schedule tables of that
/// many runs stop fitting in memory.
const MAX_CAMPAIGN_RUNS: usize = 1_000_000;

/// The most simulation runs one `harness fuzz` spends: the campaign's
/// ceiling, for the same reason. Far larger budgets used to never return.
const MAX_FUZZ_BUDGET: usize = MAX_CAMPAIGN_RUNS;

/// The slowest `harness live` pace: at 100 wall microseconds per logical
/// one the pinned scenarios already take minutes, and far slower paces
/// used to never return.
const MAX_PACE: f64 = 100.0;

fn run_campaign_cli(mut args: Vec<String>, threads: usize) {
    use btr_campaign as campaign;

    if let Some(token) = take_value::<String>(&mut args, "--replay") {
        if let Some(stray) = args.first() {
            eprintln!("error: --replay takes no other campaign arguments (got '{stray}')");
            std::process::exit(2);
        }
        let spec = match campaign::replay::parse(&token) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        outln!(
            "replaying {} on {} (f={}, R={}, seed {})",
            spec.scenario.faults.len(),
            spec.cell.name(),
            spec.cell.f,
            spec.cell.r_bound,
            spec.sim_seed
        );
        match campaign::replay::run(&spec) {
            Ok(r) => print_record(&r),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
        return;
    }

    let runs = take_value(&mut args, "--runs").unwrap_or(256);
    if runs == 0 {
        eprintln!("error: --runs must be at least 1");
        std::process::exit(2);
    }
    let seed = take_value(&mut args, "--seed").unwrap_or(42);
    let sim_seeds = take_value(&mut args, "--sim-seeds").unwrap_or(2);
    if sim_seeds == 0 {
        eprintln!("error: --sim-seeds must be at least 1");
        std::process::exit(2);
    }
    let combos = take_flag(&mut args, "--combos");
    let over_budget = take_flag(&mut args, "--over-budget");
    let all_variants = take_flag(&mut args, "--all-variants");
    let auth: Option<String> = take_value(&mut args, "--auth");
    let out_path: String = take_value(&mut args, "--out").unwrap_or("CAMPAIGN_btr.json".into());
    if let Some(stray) = args.first() {
        eprintln!("error: unknown campaign argument '{stray}'");
        std::process::exit(2);
    }

    let mut cfg = campaign::CampaignConfig::new(seed, runs, threads);
    cfg.sim_seeds = sim_seeds;
    cfg.combos = combos;
    cfg.over_budget = over_budget;
    if all_variants {
        cfg.cells = campaign::all_variant_grid();
    }
    // Authenticator-suite selection: force one suite on every cell, or
    // sweep both (each cell twinned with `-sip`). Verdicts are
    // suite-independent, so forced hmac/sip campaigns over the same
    // grid must report the same runs_digest — the CI cross-suite check.
    let auth_label = match auth.as_deref() {
        None => "",
        Some("both") => {
            cfg.cells = campaign::auth_sweep(cfg.cells);
            ", auth both"
        }
        Some(s) => match AuthSuite::parse(s) {
            Some(AuthSuite::HmacSha256) => {
                cfg.cells = campaign::with_auth(cfg.cells, AuthSuite::HmacSha256);
                ", auth hmac"
            }
            Some(AuthSuite::SipHash24) => {
                cfg.cells = campaign::with_auth(cfg.cells, AuthSuite::SipHash24);
                ", auth sip"
            }
            None => {
                eprintln!("error: --auth wants hmac, sip, or both (got '{s}')");
                std::process::exit(2);
            }
        },
    };
    // What runs is cells x schedules x seeds, each factor from a flag.
    let executed = cfg.executed_runs();
    if executed > MAX_CAMPAIGN_RUNS {
        eprintln!(
            "error: --runs {runs} over {} cells at --sim-seeds {sim_seeds} executes {executed} \
             runs, at most {MAX_CAMPAIGN_RUNS}",
            cfg.cells.len()
        );
        std::process::exit(2);
    }
    let report = Report::open(out_path);

    outln!(
        "campaign: {} cells, target {} runs, seed {}, {} threads{}{}{}{}, sha256 {}",
        cfg.cells.len(),
        cfg.runs,
        cfg.seed,
        cfg.threads,
        if combos { ", combos" } else { "" },
        if over_budget { ", over-budget" } else { "" },
        if all_variants { ", all-variants" } else { "" },
        auth_label,
        btr_crypto::sha256::backend(),
    );
    let outcome = match campaign::run_campaign(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    for t in &outcome.scaling {
        outln!(
            "  {} thread{}: {} runs in {:.2} s  ({:.1} runs/sec)",
            t.threads,
            if t.threads == 1 { " " } else { "s" },
            t.runs,
            t.wall_ns as f64 / 1e9,
            t.runs_per_sec()
        );
    }
    if let Some(t) = outcome.scaling.first() {
        outln!(
            "  {:.2} MACs per delivered message ({} MACs / {} deliveries)",
            t.macs_per_delivery(),
            t.macs,
            t.delivered
        );
    }
    let admissible_viol = outcome.admissible_violations();
    let total_viol = outcome
        .records
        .iter()
        .filter(|r| !r.violations.is_empty())
        .count();
    outln!(
        "  {} violations ({} within the admitted budget f)",
        total_viol,
        admissible_viol
    );
    if let Some(s) = campaign::report::min_slack_us(&outcome.records) {
        outln!(
            "  minimum slack to R: {:.1} ms (over admissible schedules)",
            s as f64 / 1e3
        );
    }
    for sh in &outcome.shrunk {
        outln!(
            "  run {} shrunk {} -> {} fault(s) in {} probes; replay with:",
            sh.run_idx,
            sh.faults_before,
            sh.faults_after,
            sh.probes
        );
        outln!("    harness campaign --replay '{}'", sh.replay);
    }

    report.write(&outcome.to_json());
    // Any admissible violation is a bug: the campaign-found R-bound gaps
    // are fixed, so the full variant space — including --all-variants
    // and --combos — gates the exit code. (Over-budget schedules are
    // inadmissible by construction and never count.)
    if admissible_viol > 0 {
        eprintln!("error: {admissible_viol} admissible runs violated the R-bound");
        std::process::exit(1);
    }
}

fn run_fuzz_cli(mut args: Vec<String>, threads: usize) {
    use btr_campaign as campaign;

    let budget = take_value(&mut args, "--budget").unwrap_or(128usize);
    let seed = take_value(&mut args, "--seed").unwrap_or(42);
    let out_path: String = take_value(&mut args, "--out").unwrap_or("FUZZ_btr.json".into());
    if let Some(stray) = args.first() {
        eprintln!("error: unknown fuzz argument '{stray}'");
        std::process::exit(2);
    }
    if budget == 0 {
        eprintln!("error: --budget must be at least 1");
        std::process::exit(2);
    }
    if budget > MAX_FUZZ_BUDGET {
        eprintln!("error: --budget must be at most {MAX_FUZZ_BUDGET}, got {budget}");
        std::process::exit(2);
    }
    let report = Report::open(out_path);

    let cfg = campaign::FuzzConfig::new(seed, budget, threads);
    outln!(
        "fuzz: {} cells, budget {} runs, seed {}, {} threads",
        cfg.cells.len(),
        cfg.budget,
        cfg.seed,
        cfg.threads
    );
    let started = std::time::Instant::now();
    let out = match campaign::run_fuzz(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // Wall time goes to stdout only: FUZZ_btr.json is fully
    // deterministic, so CI can byte-compare 1-thread and N-thread runs.
    let wall = started.elapsed().as_secs_f64();
    outln!(
        "  {} runs in {:.2} s  ({:.1} runs/sec)",
        out.runs,
        wall,
        out.runs as f64 / wall.max(1e-9)
    );
    outln!(
        "  coverage: {} signatures across {} generations",
        out.coverage,
        out.curve.len()
    );
    outln!(
        "  corpus: {} schedules, digest {:#018x}, best score {}",
        out.corpus.len(),
        out.corpus.digest(),
        out.best_score
    );
    if let (Some(min), Some(max)) = (out.min_slack_us, out.max_slack_us) {
        outln!(
            "  admissible slack to R: min {:.1} ms, max {:.1} ms",
            min as f64 / 1e3,
            max as f64 / 1e3
        );
    }
    for tok in &out.violations {
        outln!("  VIOLATION; replay with:");
        outln!("    harness campaign --replay '{tok}'");
    }

    report.write(&out.to_json());
    // Like the campaign: an admissible violation is a bug, and a fuzz
    // run that surfaces one fails loudly so CI can gate on it (fixed
    // findings are frozen as replay-token regressions in
    // crates/campaign/tests/regressions.rs).
    if !out.violations.is_empty() {
        eprintln!(
            "error: {} admissible runs violated the R-bound",
            out.violations.len()
        );
        std::process::exit(1);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        outln!("{}", usage());
        return;
    }
    let threads = take_value(&mut args, "--threads")
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    if threads == 0 {
        eprintln!("error: --threads must be at least 1");
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--list") {
        outln!("{}", list());
        return;
    }
    // The command is the first argument that is not a flag. Matching a
    // command name anywhere would let a flag's *value* pick the command
    // (`harness fuzz --out campaign`).
    let Some(at) = args.iter().position(|a| !a.starts_with('-')) else {
        // No command (or only global flags) is an error, not a silent
        // success.
        eprintln!("{}", usage());
        std::process::exit(2);
    };
    if let Some(cmd) = COMMANDS.iter().find(|c| c.name == args[at]) {
        args.remove(at);
        (cmd.run)(args, threads);
        return;
    }
    let mut tables = Vec::new();
    for id in &args {
        match exp::SUITE.iter().find(|(known, _, _)| known == id) {
            Some((_, _, table)) => tables.push(table),
            None if id == "all" => {}
            None => {
                eprintln!("error: unknown command or experiment '{id}' (see harness --list)");
                std::process::exit(2);
            }
        }
    }
    if args.iter().any(|a| a == "all") {
        outln!("{}", exp::run_all(threads));
        return;
    }
    for table in tables {
        outln!("{}", table());
    }
}
