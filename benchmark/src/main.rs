//! The repository benchmark (see README.md beside this package).
//!
//! ```text
//! btr-benchmark --workload W --seed N --seconds S --trace 0|1
//!               [--smoke] [--out DIR] [--record FILE]
//! btr-benchmark compare A.jsonl B.jsonl
//! btr-benchmark manifest
//! ```
//!
//! A run generates its inputs from the seed, measures one workload for
//! about `S` seconds, checks the outputs, prints one line per metric
//! (`workload metric value unit`) and, last, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exit 0 when every check held, 1 when one did not (or `compare`
//! found a regression), 2 on a malformed command line.

mod alloc;
mod calib;
mod compare;
mod json;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::process::ExitCode;
use workloads::{Outcome, RunArgs};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  btr-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR] [--record FILE]
  btr-benchmark compare A.jsonl B.jsonl
  btr-benchmark manifest
workloads: sim_mesh20_unsigned sim_torus1000_unsigned sim_mesh20_signed
           campaign_grid_faults planner_ladder live_bus9_faults";

struct Cli {
    workload: String,
    run: RunArgs,
    trace: bool,
    out_dir: String,
    record: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        run: RunArgs {
            seed: 1,
            seconds: metrics::RUN_SECONDS as f64,
            smoke: false,
        },
        trace: false,
        out_dir: "benchmark/out".to_string(),
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cli.run.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use '{value}'");
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => cli.run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.run.seconds = value.parse().map_err(|_| bad())?;
                if !(cli.run.seconds > 0.0 && cli.run.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => cli.out_dir = value.clone(),
            "--record" => cli.record = Some(value.clone()),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if !workloads::NAMES.contains(&cli.workload.as_str()) {
        return Err(format!("unknown workload '{}'", cli.workload));
    }
    Ok(cli)
}

/// The metrics of one run in declaration order: (name, value, unit).
fn reported(out: &Outcome, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    if trace {
        for name in out.layers.keys() {
            if !metrics::PER_LAYER.iter().any(|l| l.name == name) {
                eprintln!("note: {name} is measured but not declared in BENCHMARK.json; dropped");
            }
        }
        metrics::PER_LAYER
            .iter()
            .map(|l| {
                (
                    l.name,
                    out.layers.get(l.name).copied().unwrap_or(0.0),
                    l.unit,
                )
            })
            .collect()
    } else {
        let values = [
            stats::best(&out.setup_s),
            out.throughput_per_s,
            out.latency_ms_p50,
            out.allocs_per_op,
            out.peak_heap_mb,
        ];
        metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(e, v)| (e.name, v, e.unit))
            .collect()
    }
}

/// The last line of a run: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_json(out: &Outcome, rows: &[(&str, f64, &str)], correct: bool) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json::number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn run(cli: &Cli) -> std::io::Result<bool> {
    let mut tracer = trace::Tracer::new(cli.trace);
    let out = workloads::run(&cli.workload, &cli.run, &mut tracer)
        .expect("workload names are checked when the command line is parsed");
    let rows = reported(&out, cli.trace);
    // A metric that is not a finite number is a failed measurement.
    let measured = rows.iter().all(|(_, v, _)| v.is_finite())
        && (cli.trace || rows.iter().all(|(_, v, _)| *v > 0.0));
    let correct = out.failed == 0 && out.attempted > 0 && measured;

    for problem in &out.failures {
        eprintln!("FAILED {}: {problem}", cli.workload);
    }
    if cli.run.smoke {
        println!("# smoke run: reduced sizes, numbers not comparable");
    }
    for (name, value, unit) in &rows {
        println!("{} {name} {} {unit}", cli.workload, json::number(*value));
    }
    let result = result_json(&out, &rows, correct);

    // The same object, tagged with what produced it, for `compare`.
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, {}\n",
        cli.workload,
        cli.run.seed,
        json::number(cli.run.seconds),
        cli.trace as u8,
        cli.run.smoke,
        &result[1..]
    );
    std::fs::create_dir_all(&cli.out_dir)?;
    std::fs::write(
        format!(
            "{}/result-{}-trace{}.json",
            cli.out_dir, cli.workload, cli.trace as u8
        ),
        &record,
    )?;
    if cli.trace {
        std::fs::write(
            format!("{}/trace-{}.json", cli.out_dir, cli.workload),
            tracer.to_chrome_json(&cli.workload),
        )?;
    }
    if let Some(path) = &cli.record {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(record.as_bytes())?;
    }
    println!("{result}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") if args.len() == 1 => {
            print!("{}", metrics::manifest());
            ExitCode::SUCCESS
        }
        Some("compare") if args.len() == 3 => match compare::run(&args[1], &args[2]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        },
        _ => match parse_cli(&args) {
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
            Ok(cli) => match run(&cli) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("cannot write results: {e}");
                    ExitCode::from(2)
                }
            },
        },
    }
}
